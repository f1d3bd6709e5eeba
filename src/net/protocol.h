#ifndef LDV_NET_PROTOCOL_H_
#define LDV_NET_PROTOCOL_H_

#include <string>

#include "common/result.h"
#include "exec/executor.h"

namespace ldv::net {

/// What a request asks the server to do. Encoded as a trailing byte of the
/// request frame; decoders treat its absence as kQuery, so clients from
/// before the field existed (and recorded replay logs) stay decodable.
enum class RequestKind : uint8_t {
  kQuery = 0,
  /// Return a snapshot of the server's MetricsRegistry as one row with a
  /// single `stats_json` string column (request latency histogram, dedup /
  /// overload counters, fault-injection coverage).
  kStats = 1,
  /// Clear the server's trace buffer and start recording spans.
  kTraceStart = 2,
  /// Return buffered spans as one `trace_json` string column (Chrome
  /// trace_event JSON), then stop recording and clear the buffer.
  kTraceDump = 3,
  /// Cancel every in-flight statement matching (process_id, query_id);
  /// query_id == 0 matches the whole process. `sql` is ignored. Returns one
  /// `cancelled` int column with the number of statements signalled. The
  /// kill is cooperative — targets observe it at their next governor check
  /// and unwind with kCancelled (DESIGN.md §11).
  kCancel = 4,
  /// Register `sql` (which may contain ? / $N placeholders) as a prepared
  /// statement named `handle` on this session. Equivalent to sending
  /// `PREPARE <handle> AS <sql>` as a query.
  kPrepare = 5,
  /// Execute the session's prepared statement `handle` with `params` bound
  /// to its placeholders; `sql` is ignored. Like queries, executions are
  /// deduplicated on (process_id, query_id) — the handle and the encoded
  /// parameters are folded into the dedup key.
  kExecute = 6,
  /// Drop the prepared statement `handle`; an empty handle drops every
  /// prepared statement of the session (DEALLOCATE ALL).
  kDeallocate = 7,
  /// Replication: register (or re-register) a standby named `handle` whose
  /// applied LSN is `query_id`. Returns one row (primary_lsn, role). `sql`
  /// is ignored, as for every replication verb.
  kReplSubscribe = 8,
  /// Replication: long-poll for WAL record frames after LSN `query_id` on
  /// behalf of standby `handle`, waiting up to `timeout_millis` when caught
  /// up. Doubles as an acknowledgement of `query_id`. Returns one row
  /// (frames, last_lsn, primary_lsn); empty `frames` means "caught up".
  kReplFrames = 9,
  /// Replication: acknowledge that standby `handle` has durably applied up
  /// to LSN `query_id`, without fetching. Returns one row (primary_lsn,
  /// role). Sent right after an apply so semi-sync committers unblock
  /// without waiting for the next fetch round-trip.
  kReplHeartbeat = 10,
  /// Flip a read-only standby to primary after draining its apply queue.
  /// Idempotent on an already-primary server. Returns one row (role,
  /// applied_lsn).
  kPromote = 11,
};

/// One client->server request. The process and query identifiers are the
/// ones the (auditing) client library assigned (paper §VII-C); a plain
/// client sends zeros.
struct DbRequest {
  std::string sql;
  int64_t process_id = 0;
  int64_t query_id = 0;
  RequestKind kind = RequestKind::kQuery;
  /// Per-statement deadline in milliseconds; 0 means "use the server's
  /// --statement-timeout-ms default". Encoded as a trailing varint (after
  /// the kind byte), absent on old frames — which decode as 0.
  int64_t timeout_millis = 0;
  /// Prepared-statement name for kPrepare / kExecute / kDeallocate. Encoded
  /// as a trailing string, absent on old frames — which decode as empty.
  std::string handle;
  /// Parameter values bound by kExecute, in placeholder order. Encoded as a
  /// trailing count + serialized values, absent on old frames.
  storage::Tuple params;
  /// Ship each provenance tuple's values once per session: records of
  /// versions this session was already sent come back without values
  /// (DESIGN.md §17). Only the auditing client sets it, in server-included
  /// mode. Encoded as a trailing bool written only when set, so frames
  /// without it (old clients, recorded replay logs) decode as false and
  /// keep their bytes.
  bool elide_shipped_values = false;
};

/// Binary encoding of requests/responses (varint-based, little-endian).
std::string EncodeRequest(const DbRequest& request);
Result<DbRequest> DecodeRequest(std::string_view bytes);

/// A response is either an error status or a ResultSet.
std::string EncodeResponse(const Status& status,
                           const exec::ResultSet& result);
Result<exec::ResultSet> DecodeResponse(std::string_view bytes);

/// ResultSet payload encoding, reused by the server-excluded replay log.
void EncodeResultSet(const exec::ResultSet& result, BufferWriter* w);
Result<exec::ResultSet> DecodeResultSet(BufferReader* r);

/// Hard cap on a single frame's payload. The 4-byte length prefix arrives
/// from the peer (or from a corrupted stream), so it must never be trusted
/// as an allocation size: a forged multi-GiB prefix is rejected up front.
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;  // 64 MiB

/// Frame I/O over a connected stream socket: 4-byte little-endian length
/// prefix followed by the payload. Fault points `net.send` / `net.recv`
/// fire before the first syscall, so an injected failure never leaves a
/// half-written frame on the wire. Frames above kMaxFrameBytes are refused
/// on both sides (see IsOversizedFrameError).
Status SendFrame(int fd, std::string_view payload);
Result<std::string> RecvFrame(int fd);

/// True when `status` is RecvFrame's oversized-length-prefix rejection. The
/// server uses this to send a protocol error response before dropping the
/// connection (the stream cannot be resynchronized past an unread payload).
bool IsOversizedFrameError(const Status& status);

}  // namespace ldv::net

#endif  // LDV_NET_PROTOCOL_H_

#include "net/protocol.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/fault.h"
#include "util/serde.h"

namespace ldv::net {

using exec::DmlRecord;
using exec::ProvTupleRecord;
using exec::ResultSet;
using storage::TupleVid;
using storage::Value;

namespace {

void EncodeVid(const TupleVid& vid, BufferWriter* w) {
  w->PutVarint(vid.table_id);
  w->PutVarint(vid.rowid);
  w->PutVarint(vid.version);
}

Result<TupleVid> DecodeVid(BufferReader* r) {
  TupleVid vid;
  LDV_ASSIGN_OR_RETURN(int64_t table_id, r->GetVarint());
  vid.table_id = static_cast<int32_t>(table_id);
  LDV_ASSIGN_OR_RETURN(vid.rowid, r->GetVarint());
  LDV_ASSIGN_OR_RETURN(vid.version, r->GetVarint());
  return vid;
}

void EncodeTuple(const storage::Tuple& tuple, BufferWriter* w) {
  w->PutVarint(static_cast<int64_t>(tuple.size()));
  for (const Value& v : tuple) v.Serialize(w);
}

/// Sanity bound for decoded element counts: every element costs at least
/// one byte, so a count above the remaining payload is corruption. Guards
/// the reserve() calls against fuzzed/corrupted length prefixes.
Status CheckCount(int64_t n, const BufferReader& r) {
  if (n < 0 || static_cast<uint64_t>(n) > r.remaining()) {
    return Status::IOError("corrupt count in encoded result set");
  }
  return Status::Ok();
}

Result<storage::Tuple> DecodeTuple(BufferReader* r) {
  LDV_ASSIGN_OR_RETURN(int64_t n, r->GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(n, *r));
  storage::Tuple tuple;
  tuple.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    LDV_ASSIGN_OR_RETURN(Value v, Value::Deserialize(r));
    tuple.push_back(std::move(v));
  }
  return tuple;
}

}  // namespace

std::string EncodeRequest(const DbRequest& request) {
  BufferWriter w;
  w.PutString(request.sql);
  w.PutVarint(request.process_id);
  w.PutVarint(request.query_id);
  w.PutU8(static_cast<uint8_t>(request.kind));
  w.PutVarint(request.timeout_millis);
  w.PutString(request.handle);
  EncodeTuple(request.params, &w);
  if (request.elide_shipped_values) w.PutBool(true);
  return w.TakeData();
}

Result<DbRequest> DecodeRequest(std::string_view bytes) {
  BufferReader r(bytes);
  DbRequest request;
  LDV_ASSIGN_OR_RETURN(request.sql, r.GetString());
  LDV_ASSIGN_OR_RETURN(request.process_id, r.GetVarint());
  LDV_ASSIGN_OR_RETURN(request.query_id, r.GetVarint());
  // Frames written before the kind byte existed (old clients, recorded
  // replay logs) end here; they are plain queries.
  if (r.remaining() > 0) {
    LDV_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
    if (kind > static_cast<uint8_t>(RequestKind::kPromote)) {
      return Status::InvalidArgument("unknown request kind: " +
                                     std::to_string(kind));
    }
    request.kind = static_cast<RequestKind>(kind);
  }
  // Frames written before the deadline field existed end here; they carry
  // no per-request timeout (the server default applies).
  if (r.remaining() > 0) {
    LDV_ASSIGN_OR_RETURN(request.timeout_millis, r.GetVarint());
  }
  // Frames written before prepared statements existed end here; they carry
  // no handle and no parameters.
  if (r.remaining() > 0) {
    LDV_ASSIGN_OR_RETURN(request.handle, r.GetString());
  }
  if (r.remaining() > 0) {
    LDV_ASSIGN_OR_RETURN(request.params, DecodeTuple(&r));
  }
  // Written only when set (see DbRequest::elide_shipped_values).
  if (r.remaining() > 0) {
    LDV_ASSIGN_OR_RETURN(request.elide_shipped_values, r.GetBool());
  }
  return request;
}

void EncodeResultSet(const ResultSet& result, BufferWriter* w) {
  result.schema.Serialize(w);
  w->PutVarint(static_cast<int64_t>(result.rows.size()));
  for (const storage::Tuple& row : result.rows) EncodeTuple(row, w);
  w->PutVarint(result.affected);
  w->PutBool(result.has_provenance);
  w->PutVarint(static_cast<int64_t>(result.lineage.size()));
  for (const auto& set : result.lineage) {
    w->PutVarint(static_cast<int64_t>(set.size()));
    for (const TupleVid& vid : set) EncodeVid(vid, w);
  }
  w->PutVarint(static_cast<int64_t>(result.prov_tuples.size()));
  for (const ProvTupleRecord& t : result.prov_tuples) {
    EncodeVid(t.vid, w);
    w->PutString(t.table);
    EncodeTuple(t.values, w);
  }
  w->PutVarint(static_cast<int64_t>(result.dml.size()));
  for (const DmlRecord& d : result.dml) {
    w->PutU8(static_cast<uint8_t>(d.kind));
    w->PutString(d.table);
    EncodeVid(d.vid, w);
    w->PutBool(d.has_prior);
    if (d.has_prior) EncodeVid(d.prior, w);
  }
}

Result<ResultSet> DecodeResultSet(BufferReader* r) {
  ResultSet result;
  LDV_ASSIGN_OR_RETURN(result.schema, storage::Schema::Deserialize(r));
  LDV_ASSIGN_OR_RETURN(int64_t num_rows, r->GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(num_rows, *r));
  result.rows.reserve(static_cast<size_t>(num_rows));
  for (int64_t i = 0; i < num_rows; ++i) {
    LDV_ASSIGN_OR_RETURN(storage::Tuple row, DecodeTuple(r));
    result.rows.push_back(std::move(row));
  }
  LDV_ASSIGN_OR_RETURN(result.affected, r->GetVarint());
  LDV_ASSIGN_OR_RETURN(result.has_provenance, r->GetBool());
  LDV_ASSIGN_OR_RETURN(int64_t num_lineage, r->GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(num_lineage, *r));
  result.lineage.reserve(static_cast<size_t>(num_lineage));
  for (int64_t i = 0; i < num_lineage; ++i) {
    LDV_ASSIGN_OR_RETURN(int64_t n, r->GetVarint());
    LDV_RETURN_IF_ERROR(CheckCount(n, *r));
    exec::LineageSet set;
    set.reserve(static_cast<size_t>(n));
    for (int64_t k = 0; k < n; ++k) {
      LDV_ASSIGN_OR_RETURN(TupleVid vid, DecodeVid(r));
      set.push_back(vid);
    }
    result.lineage.push_back(std::move(set));
  }
  LDV_ASSIGN_OR_RETURN(int64_t num_prov, r->GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(num_prov, *r));
  result.prov_tuples.reserve(static_cast<size_t>(num_prov));
  for (int64_t i = 0; i < num_prov; ++i) {
    ProvTupleRecord rec;
    LDV_ASSIGN_OR_RETURN(rec.vid, DecodeVid(r));
    LDV_ASSIGN_OR_RETURN(rec.table, r->GetString());
    LDV_ASSIGN_OR_RETURN(rec.values, DecodeTuple(r));
    result.prov_tuples.push_back(std::move(rec));
  }
  LDV_ASSIGN_OR_RETURN(int64_t num_dml, r->GetVarint());
  LDV_RETURN_IF_ERROR(CheckCount(num_dml, *r));
  result.dml.reserve(static_cast<size_t>(num_dml));
  for (int64_t i = 0; i < num_dml; ++i) {
    DmlRecord rec;
    LDV_ASSIGN_OR_RETURN(uint8_t kind, r->GetU8());
    rec.kind = static_cast<DmlRecord::Kind>(kind);
    LDV_ASSIGN_OR_RETURN(rec.table, r->GetString());
    LDV_ASSIGN_OR_RETURN(rec.vid, DecodeVid(r));
    LDV_ASSIGN_OR_RETURN(rec.has_prior, r->GetBool());
    if (rec.has_prior) {
      LDV_ASSIGN_OR_RETURN(rec.prior, DecodeVid(r));
    }
    result.dml.push_back(std::move(rec));
  }
  return result;
}

std::string EncodeResponse(const Status& status, const ResultSet& result) {
  BufferWriter w;
  w.PutBool(status.ok());
  if (!status.ok()) {
    w.PutU8(static_cast<uint8_t>(status.code()));
    w.PutString(status.message());
  } else {
    EncodeResultSet(result, &w);
  }
  return w.TakeData();
}

Result<ResultSet> DecodeResponse(std::string_view bytes) {
  BufferReader r(bytes);
  LDV_ASSIGN_OR_RETURN(bool ok, r.GetBool());
  if (!ok) {
    LDV_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
    LDV_ASSIGN_OR_RETURN(std::string message, r.GetString());
    return Status(static_cast<StatusCode>(code), std::move(message));
  }
  return DecodeResultSet(&r);
}

Status SendFrame(int fd, std::string_view payload) {
  LDV_FAULT_POINT("net.send");
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "frame payload too large: " + std::to_string(payload.size()) +
        " bytes (max " + std::to_string(kMaxFrameBytes) + ")");
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  char header[4];
  for (int i = 0; i < 4; ++i) header[i] = static_cast<char>(len >> (8 * i));
  std::string buf(header, 4);
  buf.append(payload);
  size_t sent = 0;
  while (sent < buf.size()) {
    ssize_t n = ::send(fd, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + strerror(errno));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {
constexpr char kOversizedFrameMsg[] = "oversized frame";
}  // namespace

bool IsOversizedFrameError(const Status& status) {
  return status.code() == StatusCode::kIOError &&
         status.message().rfind(kOversizedFrameMsg, 0) == 0;
}

Result<std::string> RecvFrame(int fd) {
  LDV_FAULT_POINT("net.recv");
  auto read_exact = [fd](char* out, size_t n) -> Status {
    size_t got = 0;
    while (got < n) {
      ssize_t r = ::recv(fd, out + got, n - got, 0);
      if (r == 0) return Status::IOError("connection closed");
      if (r < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("recv: ") + strerror(errno));
      }
      got += static_cast<size_t>(r);
    }
    return Status::Ok();
  };
  char header[4];
  LDV_RETURN_IF_ERROR(read_exact(header, 4));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<unsigned char>(header[i]))
           << (8 * i);
  }
  if (len > kMaxFrameBytes) {
    // The prefix is attacker/corruption-controlled: refuse before the
    // std::string allocation, not after a multi-GiB new[] attempt.
    return Status::IOError(std::string(kOversizedFrameMsg) + ": " +
                           std::to_string(len) + " byte length prefix (max " +
                           std::to_string(kMaxFrameBytes) + ")");
  }
  std::string payload(len, '\0');
  if (len > 0) LDV_RETURN_IF_ERROR(read_exact(payload.data(), len));
  return payload;
}

}  // namespace ldv::net

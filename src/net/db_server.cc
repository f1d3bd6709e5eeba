#include "net/db_server.h"

#include <errno.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/json.h"
#include "common/logging.h"
#include "exec/governor.h"
#include "exec/plan_cache.h"
#include "obs/span.h"

namespace ldv::net {

DbServer::DbServer(EngineHandle* engine, std::string socket_path,
                   DbServerOptions options)
    : engine_(engine),
      socket_path_(std::move(socket_path)),
      options_(options),
      request_latency_(obs::MetricsRegistry::Global().latency_histogram(
          "server.request_latency_micros")),
      requests_total_(
          obs::MetricsRegistry::Global().counter("server.requests")) {}

DbServer::~DbServer() { Stop(); }

Status DbServer::Start() {
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " + socket_path_);
  }
  memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  ::unlink(socket_path_.c_str());
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::IOError("bind " + socket_path_ + ": " + strerror(errno));
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    return Status::IOError(std::string("listen: ") + strerror(errno));
  }
  draining_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  disconnect_watch_thread_ = std::thread([this] { DisconnectWatchLoop(); });
  return Status::Ok();
}

void DbServer::Stop() {
  bool was_running = running_.exchange(false);
  // Graceful drain: reject requests that arrive from here on; requests
  // already executing finish and their responses are still delivered.
  draining_.store(true);
  if (int fd = listen_fd_.exchange(-1); fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  if (was_running && accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(exec_mu_);
    exec_cv_.notify_all();
  }
  if (was_running && disconnect_watch_thread_.joinable()) {
    disconnect_watch_thread_.join();
  }
  {
    // Wake connection threads blocked in recv; the write side stays open so
    // an in-flight response can still be sent.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [id, conn] : connections_) {
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RD);
    }
  }
  std::map<int64_t, Connection> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(connections_);
    finished_.clear();
  }
  for (auto& [id, conn] : conns) {
    if (conn.thread.joinable()) conn.thread.join();
    if (conn.fd >= 0) ::close(conn.fd);
  }
  ::unlink(socket_path_.c_str());
}

int64_t DbServer::active_connections() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return static_cast<int64_t>(connections_.size());
}

void DbServer::ApplyIoTimeouts(int fd) {
  if (options_.io_timeout_micros <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(options_.io_timeout_micros / 1'000'000);
  tv.tv_usec =
      static_cast<suseconds_t>(options_.io_timeout_micros % 1'000'000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void DbServer::ReapFinished() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int64_t id : finished_) {
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;
      to_join.push_back(std::move(it->second.thread));
      connections_.erase(it);
    }
    finished_.clear();
  }
  for (std::thread& t : to_join) {
    if (t.joinable()) t.join();
  }
}

void DbServer::AcceptLoop() {
  while (running_.load()) {
    ReapFinished();  // joins threads of connections that already hung up
    int fd = ::accept(listen_fd_.load(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    ApplyIoTimeouts(fd);
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (options_.max_connections > 0 &&
        static_cast<int>(connections_.size()) >= options_.max_connections) {
      // Clean refusal: the client gets a decodable protocol error instead
      // of a hang or a silent close, and can back off and retry.
      ++rejected_connections_;
      (void)SendFrame(
          fd, EncodeResponse(
                  Status::IOError("server overloaded: too many connections"),
                  {}));
      ::close(fd);
      continue;
    }
    int64_t id = ++next_connection_id_;
    ++total_connections_;
    Connection& conn = connections_[id];
    conn.fd = fd;
    conn.thread = std::thread([this, id, fd] { ServeConnection(id, fd); });
  }
}

void DbServer::DisconnectWatchLoop() {
  const auto poll_interval =
      std::chrono::milliseconds(options_.disconnect_poll_millis > 0
                                    ? options_.disconnect_poll_millis
                                    : 20);
  std::unique_lock<std::mutex> lock(exec_mu_);
  while (running_.load()) {
    if (executing_.empty()) {
      // Nothing in flight: sleep until a statement starts (or Stop()),
      // instead of waking every poll interval on an idle server.
      exec_cv_.wait(lock,
                    [&] { return !running_.load() || !executing_.empty(); });
      continue;
    }
    exec_cv_.wait_for(lock, poll_interval);
    std::vector<std::pair<int64_t, int>> watch(executing_.begin(),
                                               executing_.end());
    lock.unlock();
    for (const auto& [session, fd] : watch) {
      pollfd p{};
      p.fd = fd;
#ifdef POLLRDHUP
      // Half-close (client shutdown of its write side) counts as gone too.
      p.events = POLLRDHUP;
#endif
      // POLLHUP/POLLERR are always reported regardless of `events`.
      if (::poll(&p, 1, 0) <= 0) continue;
      if ((p.revents & (POLLHUP | POLLERR
#ifdef POLLRDHUP
                        | POLLRDHUP
#endif
                        )) == 0) {
        continue;
      }
      const int64_t n = exec::QueryRegistry::Global().CancelSession(
          session, StatusCode::kCancelled, "client disconnected");
      if (n > 0) disconnect_cancels_.fetch_add(n);
    }
    lock.lock();
  }
}

void DbServer::PurgeExpiredDedupLocked(int64_t now_nanos) {
  if (options_.dedup_ttl_millis <= 0) return;
  const int64_t ttl_nanos = options_.dedup_ttl_millis * 1'000'000;
  // The LRU list is ordered by last touch, so expired entries form a prefix.
  while (!dedup_lru_.empty()) {
    auto it = dedup_.find(dedup_lru_.front());
    if (it != dedup_.end() && now_nanos - it->second.touched_nanos < ttl_nanos) {
      break;
    }
    if (it != dedup_.end()) dedup_.erase(it);
    dedup_lru_.pop_front();
  }
}

int64_t DbServer::dedup_entries() const {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  return static_cast<int64_t>(dedup_lru_.size());
}

std::string DbServer::ExecuteDeduped(const DbRequest& request,
                                     int64_t session_id) {
  const bool use_dedup =
      options_.dedup_capacity > 0 &&
      (request.process_id != 0 || request.query_id != 0);
  // The dedup key must distinguish an EXECUTE from a plain query with the
  // same (pid, qid), and one parameter binding from another: fold the verb,
  // the handle, and the encoded parameter values into the sql slot.
  std::string dedup_sql = request.sql;
  if (request.kind != RequestKind::kQuery) {
    dedup_sql.push_back('\x1f');
    dedup_sql.push_back(static_cast<char>(request.kind));
    dedup_sql.append(request.handle);
    BufferWriter w;
    for (const storage::Value& v : request.params) v.Serialize(&w);
    dedup_sql.append(w.TakeData());
  }
  // An answer with elided values is only valid for a client that asked for
  // one.
  if (request.elide_shipped_values) dedup_sql.push_back('\x1e');
  const DedupKey key{request.process_id, request.query_id,
                     std::move(dedup_sql)};
  if (use_dedup) {
    std::unique_lock<std::mutex> lock(dedup_mu_);
    PurgeExpiredDedupLocked(NowNanos());
    auto it = dedup_.find(key);
    if (it != dedup_.end()) {
      // A duplicate of a request that executed (or is executing) on another
      // connection — the client retried after losing the response. Wait for
      // the recorded response instead of executing twice.
      dedup_cv_.wait(lock, [&] {
        auto i = dedup_.find(key);
        return i == dedup_.end() || i->second.done;
      });
      auto done = dedup_.find(key);
      if (done != dedup_.end()) {
        ++deduped_requests_;
        // Replaying refreshes the entry: retries keep it alive past the
        // idle TTL and out of the capacity eviction's way.
        done->second.touched_nanos = NowNanos();
        dedup_lru_.splice(dedup_lru_.end(), dedup_lru_, done->second.lru_it);
        return done->second.response;
      }
      // Evicted while waiting: execute afresh below.
    }
    dedup_.emplace(key, DedupEntry{});  // in-progress marker
  }

  Result<exec::ResultSet> result = engine_->ExecuteSession(request, session_id);
  std::string response = result.ok()
                             ? EncodeResponse(Status::Ok(), *result)
                             : EncodeResponse(result.status(), {});

  if (use_dedup) {
    std::lock_guard<std::mutex> lock(dedup_mu_);
    auto it = dedup_.find(key);
    if (it != dedup_.end()) {
      if (!result.ok() && exec::IsGovernanceStatus(result.status().code())) {
        // A governance kill must never poison the cache: a client resending
        // the same (pid, qid, sql) after a cancel/timeout means "run it
        // again", not "replay the kill". Drop the in-progress marker so the
        // retry executes afresh.
        dedup_.erase(it);
      } else {
        it->second.done = true;
        it->second.response = response;
        it->second.touched_nanos = NowNanos();
        it->second.lru_it = dedup_lru_.insert(dedup_lru_.end(), key);
        PurgeExpiredDedupLocked(it->second.touched_nanos);
        while (dedup_lru_.size() > options_.dedup_capacity) {
          dedup_.erase(dedup_lru_.front());
          dedup_lru_.pop_front();
        }
      }
    }
    dedup_cv_.notify_all();
  }
  return response;
}

std::string DbServer::HandleControl(const DbRequest& request) {
  exec::ResultSet rs;
  switch (request.kind) {
    case RequestKind::kStats: {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      // Connection counters live in cheap atomics; mirror them into the
      // registry only when a snapshot is requested.
      reg.gauge("server.active_connections")->Set(active_connections());
      reg.gauge("server.total_connections")->Set(total_connections());
      reg.gauge("server.rejected_connections")->Set(rejected_connections());
      reg.gauge("server.deduped_requests")->Set(deduped_requests());
      reg.gauge("server.dedup_entries")->Set(dedup_entries());
      reg.gauge("server.disconnect_cancels")->Set(disconnect_cancels());
      reg.gauge("plan_cache.entries")
          ->Set(static_cast<int64_t>(exec::PlanCache::Global().entries()));
      exec::QueryRegistry& registry = exec::QueryRegistry::Global();
      reg.gauge("exec.inflight")->Set(registry.inflight());
      obs::CaptureFaultInjectorMetrics(&reg);
      Json stats = reg.Snapshot().ToJson();
      // The in-flight listing rides along in the same stats_json document:
      // who is running what, and for how long (the CANCEL verb's targets).
      Json inflight = Json::MakeArray();
      const int64_t now = NowNanos();
      for (const exec::InflightQuery& q : registry.Snapshot()) {
        Json item = Json::MakeObject();
        item.Set("process_id", Json::MakeInt(q.process_id));
        item.Set("query_id", Json::MakeInt(q.query_id));
        item.Set("session_id", Json::MakeInt(q.session_id));
        item.Set("elapsed_micros", Json::MakeInt((now - q.start_nanos) / 1000));
        item.Set("sql", Json::MakeString(q.sql.size() <= 120
                                             ? q.sql
                                             : q.sql.substr(0, 117) + "..."));
        inflight.Append(std::move(item));
      }
      stats.Set("inflight_queries", std::move(inflight));
      if (stats_augmenter_) stats_augmenter_(&stats);
      rs.schema = storage::Schema(
          {storage::Column{"stats_json", storage::ValueType::kString}});
      rs.rows.push_back({storage::Value::Str(stats.Dump())});
      rs.affected = 1;
      break;
    }
    case RequestKind::kTraceStart:
      obs::TraceRecorder::Clear();
      obs::TraceRecorder::Enable();
      break;
    case RequestKind::kTraceDump:
      rs.schema = storage::Schema(
          {storage::Column{"trace_json", storage::ValueType::kString}});
      rs.rows.push_back({storage::Value::Str(
          obs::TraceRecorder::ExportChromeTrace().Dump())});
      rs.affected = 1;
      // Stop recording but keep the buffer: a dump whose response frame is
      // lost gets retried, and the retry must see the same events. The next
      // kTraceStart clears.
      obs::TraceRecorder::Disable();
      break;
    case RequestKind::kCancel: {
      const int64_t n = exec::QueryRegistry::Global().CancelQuery(
          request.process_id, request.query_id, StatusCode::kCancelled,
          "cancelled by CANCEL request");
      rs.schema = storage::Schema(
          {storage::Column{"cancelled", storage::ValueType::kInt64}});
      rs.rows.push_back({storage::Value::Int(n)});
      rs.affected = n;
      break;
    }
    case RequestKind::kReplSubscribe:
    case RequestKind::kReplFrames:
    case RequestKind::kReplHeartbeat:
    case RequestKind::kPromote: {
      if (!repl_handler_) {
        return EncodeResponse(
            Status::NotSupported("replication is not configured on this "
                                 "server"),
            {});
      }
      Result<exec::ResultSet> result = repl_handler_(request);
      if (!result.ok()) return EncodeResponse(result.status(), {});
      rs = std::move(*result);
      break;
    }
    case RequestKind::kQuery:
    case RequestKind::kPrepare:
    case RequestKind::kExecute:
    case RequestKind::kDeallocate:
      break;  // statement kinds, dispatched to ExecuteDeduped, never here
  }
  return EncodeResponse(Status::Ok(), rs);
}

namespace {

/// Request kinds that run a statement on the engine (and therefore go
/// through dedup, latency accounting, and the disconnect watcher) as
/// opposed to server-side control verbs.
bool IsStatementKind(RequestKind kind) {
  switch (kind) {
    case RequestKind::kQuery:
    case RequestKind::kPrepare:
    case RequestKind::kExecute:
    case RequestKind::kDeallocate:
      return true;
    default:
      return false;
  }
}

}  // namespace

void DbServer::ServeConnection(int64_t id, int fd) {
  while (true) {
    Result<std::string> frame = RecvFrame(fd);
    if (!frame.ok()) {
      if (IsOversizedFrameError(frame.status())) {
        // A forged/corrupt length prefix: answer with a protocol error so
        // the client sees a reason, then drop the connection (the stream
        // cannot be resynchronized past an unread payload).
        (void)SendFrame(fd, EncodeResponse(frame.status(), {}));
      }
      break;  // client disconnected, timed out, or sent garbage framing
    }
    std::string response;
    if (draining_.load()) {
      response = EncodeResponse(
          Status::IOError("server draining: request rejected"), {});
      (void)SendFrame(fd, response);
      break;
    }
    Result<DbRequest> request = DecodeRequest(*frame);
    if (!request.ok()) {
      response = EncodeResponse(request.status(), {});
    } else if (!IsStatementKind(request->kind)) {
      response = HandleControl(*request);
    } else {
      requests_total_->Add(1);
      const int64_t start = NowNanos();
      {
        // Expose this session to the disconnect watcher for the duration of
        // the statement: a client that hangs up mid-query gets its work
        // cancelled instead of burning worker slots to completion.
        std::lock_guard<std::mutex> lock(exec_mu_);
        executing_[id] = fd;
        exec_cv_.notify_all();  // wake the watcher from its idle sleep
      }
      response = ExecuteDeduped(*request, id);
      {
        std::lock_guard<std::mutex> lock(exec_mu_);
        executing_.erase(id);
      }
      request_latency_->Observe((NowNanos() - start) / 1000);
    }
    if (!SendFrame(fd, response).ok()) break;
  }
  // A connection that drops mid-transaction must not leave the engine
  // locked for everyone else: roll its transaction back.
  engine_->AbortSession(id);
  std::lock_guard<std::mutex> lock(conn_mu_);
  auto it = connections_.find(id);
  if (it != connections_.end() && it->second.fd >= 0) {
    ::close(it->second.fd);
    it->second.fd = -1;
  }
  // Stop() may have taken ownership of the map; a stale id in finished_ is
  // ignored by ReapFinished.
  finished_.push_back(id);
}

}  // namespace ldv::net

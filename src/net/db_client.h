#ifndef LDV_NET_DB_CLIENT_H_
#define LDV_NET_DB_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/result.h"
#include "exec/executor.h"
#include "net/protocol.h"
#include "obs/metrics.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "storage/txn.h"
#include "storage/wal.h"
#include "txn/lock_registry.h"
#include "txn/snapshot.h"

namespace ldv::net {

/// The client interface of the DBMS — the analog of libpq in the prototype.
/// LDV instruments this layer: the auditing client decorates any DbClient to
/// capture statements, provenance and results; the replay client substitutes
/// recorded answers (paper §VII-C, §VIII).
class DbClient {
 public:
  virtual ~DbClient() = default;

  /// Executes `request.sql`, returning results or the engine's error.
  virtual Result<exec::ResultSet> Execute(const DbRequest& request) = 0;

  /// Convenience wrapper: plain statement, identifiers defaulted.
  Result<exec::ResultSet> Query(const std::string& sql) {
    DbRequest request;
    request.sql = sql;
    return Execute(request);
  }
};

/// Durability wiring for an EngineHandle. Both members are optional: an
/// empty data_dir disables checkpointing, checkpoint_every == 0 disables
/// the automatic trigger (Checkpoint() still works).
struct EngineDurabilityOptions {
  /// Snapshot directory for checkpoints (usually the same dir recovery
  /// loaded from).
  std::string data_dir;
  /// Take a checkpoint after this many committed transactions.
  int64_t checkpoint_every = 0;
};

/// Thread-safe façade over a Database + Executor, shared by the in-process
/// client and the socket server (the engine is single-writer).
///
/// Concurrency (DESIGN.md §12): plain non-provenance SELECTs from sessions
/// without an open transaction run on a concurrent read path — catalog and
/// table locks shared, a consistent snapshot epoch from the SnapshotManager,
/// no engine mutex — so independent readers overlap with each other and
/// with writers on other tables. Everything else (DML, DDL, provenance
/// queries, transaction control) serializes under mu_ as before, taking
/// exclusive data locks so in-place mutations never race a reader.
///
/// Prepared statements: PREPARE/EXECUTE/DEALLOCATE (SQL or the kPrepare /
/// kExecute / kDeallocate protocol verbs) are intercepted here too. Handles
/// are per-session; the parsed bodies and the plans of cacheable SELECTs
/// are shared across sessions through the process-wide exec::PlanCache.
/// EXECUTE of anything the cache cannot serve bit-identically (DML,
/// provenance, subqueries, in-transaction reads, bare placeholders in ORDER
/// BY) inlines the bound values as literals and runs the statement through
/// the ordinary paths — the WAL logs the rendered text.
///
/// Transactions: BEGIN/COMMIT/ROLLBACK are intercepted here, above the
/// executor. One explicit transaction runs at a time, owned by a session
/// (a server connection, or kLocalSession for in-process clients); other
/// sessions' statements wait for it to finish. Undo is the version archive
/// (storage::TxnScope); a statement failing inside a transaction aborts the
/// whole transaction. DDL and COPY are rejected inside explicit
/// transactions.
///
/// Durability: with a WAL attached, every committed transaction (explicit
/// or the implicit transaction around a single mutating statement) is
/// appended as one begin/op.../commit group and fsynced before the client
/// sees success. The append happens inside the engine's critical section
/// (commit order == log order); the fsync happens outside it, so concurrent
/// committers share one fsync (group commit).
class EngineHandle {
 public:
  /// Session id used by in-process clients (LocalDbClient, tools, tests).
  static constexpr int64_t kLocalSession = 0;

  explicit EngineHandle(storage::Database* db);

  EngineHandle(const EngineHandle&) = delete;
  EngineHandle& operator=(const EngineHandle&) = delete;

  Result<exec::ResultSet> Execute(const DbRequest& request) {
    return ExecuteSession(request, kLocalSession);
  }

  /// Executes on behalf of one session; the session id scopes transaction
  /// ownership (the server passes its connection id).
  Result<exec::ResultSet> ExecuteSession(const DbRequest& request,
                                         int64_t session_id);

  /// Hands the engine its write-ahead log (opened by the caller after
  /// recovery) and the checkpoint policy.
  void AttachWal(std::unique_ptr<storage::Wal> wal,
                 EngineDurabilityOptions durability);

  /// Connection teardown: rolls back the session's open transaction, if
  /// any, and drops its prepared statements and its shipped-values set.
  void AbortSession(int64_t session_id);

  /// Makes everything appended so far durable (shutdown drain). No-op
  /// without a WAL.
  Status FlushWal();

  /// Applies one replicated commit group — the standby's apply path. Runs
  /// the group's statements through the same deterministic redo recovery
  /// uses (restore the statement sequence, execute, bump), under the engine
  /// mutex and exclusive data locks, then publishes the group as one
  /// committed epoch for snapshot readers. Does NOT append to the WAL: the
  /// replicator made the frames locally durable before calling this.
  Status ApplyReplicated(const std::vector<storage::WalOp>& ops);

  /// Read-only (hot standby) mode: mutating statements and transaction
  /// control are rejected with a "read-only standby" error
  /// (IsReadOnlyStandbyError). Replicated applies are exempt. Flipped off
  /// at promotion.
  void set_read_only(bool read_only) {
    read_only_.store(read_only, std::memory_order_release);
  }
  bool read_only() const {
    return read_only_.load(std::memory_order_acquire);
  }

  /// Semi-synchronous replication: invoked with the commit LSN after the
  /// local fsync and before the client sees success; commit acknowledgement
  /// waits until the barrier returns (the replication manager releases it
  /// when every live standby has acknowledged the LSN). Runs outside the
  /// engine mutex. Set at startup, before traffic.
  void set_commit_ack_barrier(std::function<Status(uint64_t lsn)> barrier) {
    commit_ack_barrier_ = std::move(barrier);
  }

  /// Lower bound for checkpoint segment retirement: segments holding
  /// records at or above the returned LSN survive (they are standbys'
  /// catch-up source). Set at startup, before traffic.
  void set_wal_retire_floor(std::function<uint64_t()> floor) {
    wal_retire_floor_ = std::move(floor);
  }

  /// Snapshot + segment rotation: WAL flush, SaveDatabase, fresh segment,
  /// retire segments the snapshot covers. Requires a WAL and a data_dir.
  Status Checkpoint();

  /// How long a statement waits for another session's transaction before
  /// giving up with an error.
  void set_txn_wait_millis(int64_t millis) { txn_wait_millis_ = millis; }

  /// Default per-statement deadline (--statement-timeout-ms); 0 disables.
  /// A request's own timeout_millis overrides it.
  void set_statement_timeout_millis(int64_t millis) {
    statement_timeout_millis_ = millis;
  }
  /// Per-query memory budget cap (--mem-limit-mb); 0 disables.
  void set_mem_limit_bytes(size_t bytes) { mem_limit_bytes_ = bytes; }

  storage::Database* db() { return executor_.db(); }
  storage::Wal* wal() { return wal_.get(); }

  /// The MVCC snapshot source (stats, tests, benchmarks).
  txn::SnapshotManager* snapshots() { return &snapshots_; }

 private:
  static constexpr int64_t kNoSession = -1;

  /// One prepared statement of a session: the (interned, shared) parsed
  /// body, its normalized plan-cache key, and the placeholder count.
  struct PreparedStatement {
    std::string name;
    std::shared_ptr<const sql::Statement> body;
    std::string cache_key;
    int num_params = 0;
  };
  /// Cached-plan execution context for one EXECUTE: the normalized key the
  /// shared plan lives under and the bound parameter values.
  struct PreparedRun {
    const std::string* cache_key = nullptr;
    const storage::Tuple* params = nullptr;
  };

  /// BEGIN/COMMIT/ROLLBACK. On COMMIT, `*sync_lsn` is set to the LSN the
  /// caller must Sync() after releasing mu_ (0 = nothing to sync).
  Result<exec::ResultSet> ExecTransactionLocked(
      int64_t session_id, const sql::TransactionStmt& stmt,
      uint64_t* sync_lsn);
  /// The concurrent read path: shared catalog/table locks, a snapshot
  /// epoch, no mu_. Runs the statement on the caller's thread; independent
  /// readers proceed in parallel. With `prepared` set, the statement runs
  /// through the shared plan cache instead of being planned per call.
  Result<exec::ResultSet> ExecConcurrentRead(const sql::Statement& stmt,
                                             const DbRequest& request,
                                             exec::QueryGovernor* governor,
                                             const PreparedRun* prepared);
  /// Everything ExecuteSession does after the statement text is resolved:
  /// governance, concurrent-read dispatch, the serialized path, the WAL.
  /// `effective_sql` is what governance listings, trace spans and the WAL
  /// see — for substituted prepared statements, the rendered text with the
  /// bound values inlined.
  Result<exec::ResultSet> ExecuteStatement(const sql::Statement& stmt,
                                           const DbRequest& request,
                                           const std::string& effective_sql,
                                           int64_t session_id,
                                           const PreparedRun* prepared);
  /// PREPARE: validates and registers `body` under `name` on the session.
  Result<exec::ResultSet> PrepareStatement(const std::string& name,
                                           sql::Statement body,
                                           int64_t session_id);
  /// EXECUTE: binds `params` to the named statement and runs it, through
  /// the shared plan cache when eligible, by literal substitution else.
  Result<exec::ResultSet> ExecutePrepared(const std::string& name,
                                          storage::Tuple params,
                                          const DbRequest& request,
                                          int64_t session_id);
  /// DEALLOCATE: drops one handle, or all of the session's when `all`.
  Result<exec::ResultSet> DeallocateStatement(const std::string& name,
                                              bool all, int64_t session_id);
  /// The session's shipped-values set, created empty on first use.
  std::shared_ptr<exec::TupleVidSet> ShippedSet(int64_t session_id);
  /// Drops the session's shipped-values set: its next statement resends
  /// every value.
  void ForgetShipped(int64_t session_id);
  /// Takes every table's data lock exclusively, ascending by id (the
  /// acquisition order that makes the hierarchy deadlock-free). Used by
  /// transaction rollback, whose undo rewrites rows across tables.
  Status LockAllTablesExclusive(txn::LockSet* locks);
  /// Appends one commit group; returns its commit LSN.
  Result<uint64_t> AppendGroupLocked(const std::vector<storage::WalOp>& ops);
  Status CheckpointLocked();
  void MaybeCheckpointLocked();
  void EndTxnLocked();

  std::mutex mu_;
  std::condition_variable txn_cv_;
  exec::Executor executor_;

  /// Prepared-statement handles, per session then by lowercased name.
  /// Guarded by its own mutex: PREPARE/DEALLOCATE and handle lookups never
  /// contend with executing statements.
  std::mutex prepared_mu_;
  std::map<int64_t,
           std::map<std::string, std::shared_ptr<const PreparedStatement>>>
      prepared_;

  /// Per session, the tuple versions whose values it was sent in answer to
  /// requests with elide_shipped_values (DESIGN.md §17). The map is guarded
  /// by its own mutex; a set's contents are read and grown only by
  /// provenance statements, which run under mu_. A statement holds its
  /// set's shared_ptr, so AbortSession may drop the entry meanwhile.
  std::mutex shipped_mu_;
  std::map<int64_t, std::shared_ptr<exec::TupleVidSet>> shipped_;

  // MVCC state (DESIGN.md §12). The snapshot manager and lock registry are
  // internally synchronized; txn_snapshot_ (the open transaction's pinned
  // begin epoch) is guarded by mu_.
  txn::SnapshotManager snapshots_;
  txn::LockRegistry locks_;
  txn::SnapshotRef txn_snapshot_;

  // Explicit-transaction state, guarded by mu_. txn_owner_ is additionally
  // readable outside mu_ (atomic) so the concurrent-read dispatch check
  // never waits behind a long serialized statement.
  std::atomic<int64_t> txn_owner_{kNoSession};
  storage::TxnScope txn_;
  std::vector<storage::WalOp> txn_ops_;
  int64_t next_txn_id_ = 1;
  int64_t txn_wait_millis_ = 10'000;

  // Resource-governance defaults (DESIGN.md §11); set at startup, read-only
  // afterwards.
  int64_t statement_timeout_millis_ = 0;
  size_t mem_limit_bytes_ = 0;

  // Replication state (DESIGN.md §14). The barrier and floor hooks are set
  // at startup, before traffic; read_only_ flips at promotion.
  std::atomic<bool> read_only_{false};
  std::function<Status(uint64_t)> commit_ack_barrier_;
  std::function<uint64_t()> wal_retire_floor_;

  // Durability state, guarded by mu_ (Wal has its own lock; only the
  // pointer and the checkpoint counter live under mu_).
  std::unique_ptr<storage::Wal> wal_;
  EngineDurabilityOptions durability_;
  int64_t commits_since_checkpoint_ = 0;

  obs::Histogram* statement_latency_;
  obs::Counter* concurrent_reads_;
  obs::Counter* txns_committed_;
  obs::Counter* txns_rolled_back_;
  obs::Counter* checkpoints_;
};

/// In-process client: same wire contract as the socket client without the
/// socket (used by tests, replay of server-included packages, and
/// benchmarks that measure engine rather than transport costs).
class LocalDbClient final : public DbClient {
 public:
  explicit LocalDbClient(EngineHandle* engine) : engine_(engine) {}

  Result<exec::ResultSet> Execute(const DbRequest& request) override {
    return engine_->Execute(request);
  }

 private:
  EngineHandle* engine_;
};

/// Connects to a DbServer over a Unix-domain socket. Move-only; a moved-from
/// client holds no descriptor and reports itself closed on Execute.
class SocketDbClient final : public DbClient {
 public:
  ~SocketDbClient() override;

  SocketDbClient(const SocketDbClient&) = delete;
  SocketDbClient& operator=(const SocketDbClient&) = delete;
  SocketDbClient(SocketDbClient&& other) noexcept;
  SocketDbClient& operator=(SocketDbClient&& other) noexcept;

  /// Connects to the server listening at `socket_path`.
  static Result<std::unique_ptr<SocketDbClient>> Connect(
      const std::string& socket_path);

  Result<exec::ResultSet> Execute(const DbRequest& request) override;

  /// Closes the connection (idempotent); Execute afterwards returns IOError.
  void Close();

 private:
  explicit SocketDbClient(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// Sends a Stats request through `client` and parses the returned metrics
/// snapshot (the server's `stats_json` column).
Result<Json> FetchServerStats(DbClient* client);

/// Clears the server's trace buffer and starts span recording there.
Status StartServerTrace(DbClient* client);

/// Fetches the server's buffered spans as a parsed Chrome trace_event
/// document; recording stops and the buffer clears server-side.
Result<Json> FetchServerTrace(DbClient* client);

/// Sends a kCancel request for (process_id, query_id) through `client`;
/// query_id == 0 targets every in-flight statement of the process. Returns
/// the number of statements the server signalled.
Result<int64_t> CancelServerQuery(DbClient* client, int64_t process_id,
                                  int64_t query_id);

/// Registers `sql` as prepared statement `name` via a kPrepare request.
Status PrepareStatement(DbClient* client, const std::string& name,
                        const std::string& sql);

/// Executes prepared statement `name` with `params` bound, via a kExecute
/// request; the ids participate in response dedup like queries.
Result<exec::ResultSet> ExecutePrepared(DbClient* client,
                                        const std::string& name,
                                        storage::Tuple params,
                                        int64_t process_id = 0,
                                        int64_t query_id = 0);

/// Drops prepared statement `name` via a kDeallocate request; an empty
/// name drops every handle of the session (DEALLOCATE ALL).
Status DeallocatePrepared(DbClient* client, const std::string& name);

/// True when `status` is a hot standby's rejection of a mutating statement.
/// RetryingDbClient uses this to fail over to the next endpoint instead of
/// surfacing the error.
bool IsReadOnlyStandbyError(const Status& status);

/// Sends a kPromote request through `client`: the standby drains its apply
/// queue and starts accepting writes. Returns the promoted server's applied
/// LSN. Idempotent on an already-primary server.
Result<uint64_t> PromoteServer(DbClient* client);

}  // namespace ldv::net

#endif  // LDV_NET_DB_CLIENT_H_

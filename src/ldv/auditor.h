#ifndef LDV_LDV_AUDITOR_H_
#define LDV_LDV_AUDITOR_H_

#include <fstream>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "exec/executor.h"
#include "ldv/app.h"
#include "ldv/manifest.h"
#include "net/db_client.h"
#include "net/retrying_db_client.h"
#include "obs/metrics.h"
#include "os/sim_process.h"
#include "os/vfs.h"
#include "storage/database.h"
#include "trace/graph.h"

namespace ldv {

class AuditingDbClient;

/// Options for one audited run (the `ldv-audit` command of §IX).
struct AuditOptions {
  PackageMode mode = PackageMode::kServerIncluded;
  /// Output package directory (created; must not contain a package).
  std::string package_dir;
  /// Sandbox root containing the application's input files.
  std::string sandbox_root;
  /// Host path of the DB server binary to embed (server-included/PTU/VMI).
  /// Empty: a small deterministic placeholder blob is written instead (and
  /// noted in the manifest), so audits work from any build layout.
  std::string server_binary_path;
  /// Create per-result-tuple trace nodes (rich trace for provenance
  /// queries). Disable for large benchmark workloads where the §VII-D
  /// streaming persistence path alone decides package contents.
  bool record_tuple_nodes = true;
  /// Bytes of the synthetic VM base image (vm-image mode). Defaults to the
  /// paper's 8.2 GB scaled by 1/100 — see DESIGN.md substitution #5.
  int64_t vm_base_image_bytes = 82LL * 1000 * 1000;
  /// When set, audited DB connections go through a real Unix-domain socket
  /// to a DbServer at this path (the paper's client/server deployment)
  /// instead of the in-process engine. The server must serve the same
  /// database passed to the Auditor.
  std::string db_socket_path;
  /// Socket connections are wrapped in a RetryingDbClient with this policy,
  /// so transient transport failures (connection resets, server restarts,
  /// injected faults) do not abort the audited run. Set
  /// `db_retry.max_attempts = 1` to disable retries.
  net::RetryPolicy db_retry;
};

/// Statistics of one audited run.
struct AuditReport {
  std::string package_dir;
  int64_t statements_audited = 0;
  int64_t tuples_persisted = 0;
  int64_t files_copied = 0;
  int64_t processes = 0;
  int64_t trace_nodes = 0;
  int64_t trace_edges = 0;
};

/// Monitors one application execution (paper §VII): observes OS events from
/// the simulated-OS sandbox, intercepts the DB client library, builds the
/// combined execution trace, and assembles a re-executable package in one of
/// the four modes. The analog of running `ldv-audit <app>`.
class Auditor final : public os::OsEventSink, public AppEnv {
 public:
  /// `db` is the live ("server") database the application talks to; it is
  /// mutated by the application's DML exactly as a real server would be.
  Auditor(storage::Database* db, const AuditOptions& options);
  ~Auditor() override;

  Auditor(const Auditor&) = delete;
  Auditor& operator=(const Auditor&) = delete;

  /// Runs `app` under audit and finalizes the package.
  Result<AuditReport> Run(const AppFn& app);

  // AppEnv:
  os::ProcessContext& root_process() override;
  Result<net::DbClient*> OpenDbConnection(os::ProcessContext& proc) override;

  // OsEventSink (called by the sandbox):
  void OnOsEvent(const os::OsEvent& event) override;

  /// The combined execution trace built so far.
  const trace::TraceGraph& trace_graph() const { return trace_; }

  const AuditOptions& options() const { return options_; }

 private:
  friend class AuditingDbClient;

  /// Record of one statement execution, reported by the auditing client.
  struct DbStatementRecord {
    int64_t process_id = 0;
    int64_t query_id = 0;
    std::string sql;                  // original text
    sql::StatementKind kind = sql::StatementKind::kSelect;
    os::Interval t;
    const exec::ResultSet* result = nullptr;  // full (with provenance)
    std::string encoded_request;      // server-excluded replay log
    std::string encoded_response;
  };

  int64_t NextQueryId() { return ++next_query_id_; }

  /// First-touch registration of a table (the prototype's schema-extension
  /// moment, §VII-B): enables version archiving and records the schema.
  Status EnsureTableRegistered(const std::string& table);

  /// Builds trace nodes/edges and streams provenance tuples / replay frames
  /// to the package.
  Status OnDbStatement(const DbStatementRecord& record);

  /// Appends one tuple to its table's CSV stream unless it is already
  /// persisted; fails for a record without values (an elided one) of a
  /// tuple that is not. FlushStreams() pushes the statement's tuples out
  /// and reports a short write.
  Status PersistProvTuple(const exec::ProvTupleRecord& tuple);
  Status FlushStreams();
  /// Open-once appender for package files streamed during the run (the
  /// per-table tuple CSVs and the replay log).
  Result<std::ofstream*> StreamFor(const std::string& relative_path);
  /// The trace node of a tuple version, created on first use.
  trace::NodeId TupleNode(const storage::TupleVid& vid,
                          const std::string& table);
  Status FinalizePackage();

  storage::Database* db_;
  AuditOptions options_;
  LogicalClock clock_;
  os::Vfs vfs_;
  os::SimOs sim_os_;
  net::EngineHandle engine_;
  trace::TraceGraph trace_;

  std::vector<std::unique_ptr<AuditingDbClient>> clients_;
  std::vector<std::unique_ptr<net::DbClient>> backends_;

  int64_t next_query_id_ = 0;
  // Tuple versions created by the application itself — excluded from the
  // package (§II / §VII-D).
  std::unordered_set<storage::TupleVid, storage::TupleVidHash> created_vids_;
  // Tuple versions already persisted (the §VII-D in-memory dedup table).
  std::unordered_set<storage::TupleVid, storage::TupleVidHash> persisted_vids_;
  // Trace node of each tuple version seen so far (TupleNode's cache).
  std::unordered_map<storage::TupleVid, trace::NodeId, storage::TupleVidHash>
      tuple_nodes_;
  std::unordered_set<std::string> registered_tables_;
  std::vector<PackageManifest::TableEntry> table_entries_;
  std::unordered_map<std::string, int64_t> tuples_per_table_;
  // Files already copied / first written by the app (copy-on-first-read).
  std::unordered_map<std::string, std::unique_ptr<std::ofstream>> streams_;
  std::unordered_set<std::string> copied_files_;
  std::unordered_set<std::string> app_written_files_;
  std::vector<std::string> packaged_files_;

  AuditReport report_;
  int64_t statements_recorded_ = 0;
  // Process-wide mirrors of the audit progress counters (resolved once; the
  // registry lookup takes a lock).
  obs::Counter* statements_metric_ = nullptr;
  obs::Counter* tuples_metric_ = nullptr;
  /// First error raised inside a void callback (OS event sink); surfaced
  /// when the run finishes.
  Status deferred_error_;
  bool finalized_ = false;
};

}  // namespace ldv

#endif  // LDV_LDV_AUDITOR_H_

#include "ldv/auditor.h"

#include <algorithm>
#include <cstring>

#include "ldv/auditing_db_client.h"
#include "obs/span.h"
#include "storage/persistence.h"
#include "trace/serialize.h"
#include "util/csv.h"
#include "util/fsutil.h"
#include "util/serde.h"
#include "util/strings.h"

namespace ldv {

using storage::TupleVid;

namespace {

trace::NodeType StatementNodeType(sql::StatementKind kind) {
  switch (kind) {
    case sql::StatementKind::kInsert:
      return trace::NodeType::kInsert;
    case sql::StatementKind::kUpdate:
      return trace::NodeType::kUpdate;
    case sql::StatementKind::kDelete:
      return trace::NodeType::kDelete;
    default:
      return trace::NodeType::kQuery;
  }
}

std::string ProcessLabel(int64_t pid) { return "pid:" + std::to_string(pid); }

/// Deterministic placeholder used when no real server binary is supplied.
std::string PlaceholderServerBinary() {
  std::string blob;
  blob.reserve(1 << 21);
  uint64_t x = 0x1DB5EEDULL;
  while (blob.size() < (1 << 21)) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    blob.append(reinterpret_cast<const char*>(&x), sizeof(x));
  }
  return blob;
}

}  // namespace

Auditor::Auditor(storage::Database* db, const AuditOptions& options)
    : db_(db),
      options_(options),
      vfs_(options.sandbox_root),
      sim_os_(&vfs_, &clock_, this),
      engine_(db),
      statements_metric_(
          obs::MetricsRegistry::Global().counter("audit.statements")),
      tuples_metric_(
          obs::MetricsRegistry::Global().counter("audit.tuples_persisted")) {}

Auditor::~Auditor() = default;

os::ProcessContext& Auditor::root_process() { return *sim_os_.root(); }

Result<net::DbClient*> Auditor::OpenDbConnection(os::ProcessContext& proc) {
  // A fresh connection per process; the auditing layer assigns the unique
  // process id used to link DB activity to the OS trace (§VII-C).
  if (!options_.db_socket_path.empty()) {
    // Per-connection jitter streams: otherwise every connection would back
    // off in lockstep under correlated failures.
    net::RetryPolicy policy = options_.db_retry;
    policy.seed += static_cast<uint64_t>(proc.pid());
    backends_.push_back(
        net::RetryingDbClient::ForSocket(options_.db_socket_path, policy));
  } else {
    backends_.push_back(std::make_unique<net::LocalDbClient>(&engine_));
  }
  clients_.push_back(std::make_unique<AuditingDbClient>(backends_.back().get(),
                                                        this, proc.pid()));
  return clients_.back().get();
}

Result<AuditReport> Auditor::Run(const AppFn& app) {
  if (options_.package_dir.empty()) {
    return Status::InvalidArgument("AuditOptions.package_dir is required");
  }
  if (FileExists(JoinPath(options_.package_dir, std::string(kManifestFile)))) {
    return Status::AlreadyExists("package already exists at " +
                                 options_.package_dir);
  }
  LDV_RETURN_IF_ERROR(MakeDirs(options_.package_dir));

  if (options_.mode == PackageMode::kPtu ||
      options_.mode == PackageMode::kVmImage) {
    // PTU/VMI capture the server's data files in their start-of-run state
    // (the server is "started as the first step of the experiment", §IX-A).
    LDV_RETURN_IF_ERROR(storage::SaveDatabase(
        *db_, JoinPath(options_.package_dir, std::string(kFullDataDir))));
  }

  Status app_status;
  {
    obs::Span span("audit.run", "audit");
    if (span.recording()) {
      span.AddArg("mode", std::string(PackageModeName(options_.mode)));
    }
    app_status = app(*this);
  }
  if (!app_status.ok()) {
    return app_status.WithContext("audited application failed");
  }
  if (!deferred_error_.ok()) return deferred_error_;

  {
    obs::Span span("audit.finalize", "audit");
    LDV_RETURN_IF_ERROR(FinalizePackage());
  }
  report_.package_dir = options_.package_dir;
  report_.trace_nodes = trace_.num_nodes();
  report_.trace_edges = trace_.num_edges();
  return report_;
}

void Auditor::OnOsEvent(const os::OsEvent& event) {
  using Kind = os::OsEvent::Kind;
  switch (event.kind) {
    case Kind::kProcessStart: {
      trace::NodeId child = trace_.GetOrAddNode(trace::NodeType::kProcess,
                                                ProcessLabel(event.pid));
      if (event.parent_pid > 0) {
        trace::NodeId parent = trace_.GetOrAddNode(
            trace::NodeType::kProcess, ProcessLabel(event.parent_pid));
        Status s = trace_.AddEdge(parent, child, trace::EdgeType::kExecuted,
                                  event.t);
        if (!s.ok() && deferred_error_.ok()) deferred_error_ = s;
      }
      ++report_.processes;
      break;
    }
    case Kind::kProcessExit:
      break;
    case Kind::kFileRead: {
      trace::NodeId file =
          trace_.GetOrAddNode(trace::NodeType::kFile, event.path);
      trace::NodeId proc = trace_.GetOrAddNode(trace::NodeType::kProcess,
                                               ProcessLabel(event.pid));
      Status s =
          trace_.MergeEdge(file, proc, trace::EdgeType::kReadFrom, event.t);
      if (!s.ok() && deferred_error_.ok()) deferred_error_ = s;
      // CDE/PTU-style copy-on-first-read: input files enter the package in
      // the state the application observed; files the application created
      // itself are regenerated at replay and are not packaged (§II).
      if (!copied_files_.contains(event.path) &&
          !app_written_files_.contains(event.path)) {
        copied_files_.insert(event.path);
        Result<std::string> host = vfs_.HostPath(event.path);
        if (host.ok()) {
          Status copy = CopyFile(
              *host, JoinPath(options_.package_dir,
                              std::string(kFilesDir) + event.path));
          if (!copy.ok() && deferred_error_.ok()) deferred_error_ = copy;
          packaged_files_.push_back(event.path);
          ++report_.files_copied;
        }
      }
      break;
    }
    case Kind::kFileWrite: {
      trace::NodeId file =
          trace_.GetOrAddNode(trace::NodeType::kFile, event.path);
      trace::NodeId proc = trace_.GetOrAddNode(trace::NodeType::kProcess,
                                               ProcessLabel(event.pid));
      Status s =
          trace_.MergeEdge(proc, file, trace::EdgeType::kHasWritten, event.t);
      if (!s.ok() && deferred_error_.ok()) deferred_error_ = s;
      app_written_files_.insert(event.path);
      break;
    }
  }
}

Status Auditor::EnsureTableRegistered(const std::string& table_name) {
  std::string key = ToLower(table_name);
  if (registered_tables_.contains(key)) return Status::Ok();
  storage::Table* table = db_->FindTable(table_name);
  if (table == nullptr) {
    return Status::NotFound("audited statement references unknown table: " +
                            table_name);
  }
  table->set_provenance_tracking(true);
  std::string create_sql = "CREATE TABLE " + table->name() + " (";
  const storage::Schema& schema = table->schema();
  for (int i = 0; i < schema.num_columns(); ++i) {
    if (i > 0) create_sql += ", ";
    create_sql += schema.column(i).name;
    create_sql += " ";
    create_sql += storage::ValueTypeName(schema.column(i).type);
  }
  create_sql += ");";
  table_entries_.push_back({table->name(), std::move(create_sql), 0});
  registered_tables_.insert(std::move(key));
  return Status::Ok();
}

trace::NodeId Auditor::TupleNode(const TupleVid& vid,
                                 const std::string& table) {
  auto [it, inserted] = tuple_nodes_.try_emplace(vid, trace::kInvalidNode);
  if (inserted) {
    it->second = trace_.GetOrAddNode(
        trace::NodeType::kTuple,
        StrFormat("%s#%lld.v%lld", table.c_str(),
                  static_cast<long long>(vid.rowid),
                  static_cast<long long>(vid.version)));
  }
  return it->second;
}

Result<std::ofstream*> Auditor::StreamFor(const std::string& relative_path) {
  auto it = streams_.find(relative_path);
  if (it != streams_.end()) return it->second.get();
  std::string path = JoinPath(options_.package_dir, relative_path);
  // Create parent directories, then keep the stream open for the run.
  LDV_RETURN_IF_ERROR(WriteStringToFile(path, ""));
  auto stream = std::make_unique<std::ofstream>(
      path, std::ios::binary | std::ios::app);
  if (!*stream) return Status::IOError("cannot open package file: " + path);
  std::ofstream* raw = stream.get();
  streams_.emplace(relative_path, std::move(stream));
  return raw;
}

Status Auditor::PersistProvTuple(const exec::ProvTupleRecord& tuple) {
  if (persisted_vids_.contains(tuple.vid)) return Status::Ok();
  if (tuple.values.empty()) {
    // The server elided values it believes this connection already holds
    // (DESIGN.md §17); packaging the tuple without them would replay
    // against missing data.
    return Status::Internal(StrFormat(
        "server sent no values for tuple %s rowid %lld version %lld, which "
        "this audit has not received before",
        tuple.table.c_str(), static_cast<long long>(tuple.vid.rowid),
        static_cast<long long>(tuple.vid.version)));
  }
  persisted_vids_.insert(tuple.vid);
  CsvWriter row;
  std::vector<std::string> fields;
  fields.reserve(tuple.values.size() + 2);
  fields.push_back(std::to_string(tuple.vid.rowid));
  fields.push_back(std::to_string(tuple.vid.version));
  for (const storage::Value& v : tuple.values) fields.push_back(v.ToText());
  row.AppendRow(fields);
  LDV_ASSIGN_OR_RETURN(
      std::ofstream * out,
      StreamFor(std::string(kTupleDataDir) + "/" + tuple.table + ".csv"));
  out->write(row.data().data(),
             static_cast<std::streamsize>(row.data().size()));
  ++tuples_per_table_[tuple.table];
  ++report_.tuples_persisted;
  tuples_metric_->Add(1);
  return Status::Ok();
}

Status Auditor::FlushStreams() {
  for (auto& [path, stream] : streams_) {
    stream->flush();
    if (!*stream) return Status::IOError("short write to package file " + path);
  }
  return Status::Ok();
}

Status Auditor::OnDbStatement(const DbStatementRecord& record) {
  ++report_.statements_audited;
  statements_metric_->Add(1);
  const exec::ResultSet& result = *record.result;

  // --- Trace: statement node + run edge (Definition 5). ---
  trace::NodeId stmt_node = trace_.GetOrAddNode(
      StatementNodeType(record.kind),
      StrFormat("q%lld: %s", static_cast<long long>(record.query_id),
                record.sql.substr(0, 60).c_str()));
  trace::NodeId proc_node = trace_.GetOrAddNode(
      trace::NodeType::kProcess, ProcessLabel(record.process_id));
  LDV_RETURN_IF_ERROR(
      trace_.AddEdge(proc_node, stmt_node, trace::EdgeType::kRun, record.t));

  // --- Server-excluded: stream the request/response pair to disk. ---
  if (options_.mode == PackageMode::kServerExcluded) {
    BufferWriter frame;
    frame.PutString(record.encoded_request);
    frame.PutString(record.encoded_response);
    LDV_ASSIGN_OR_RETURN(std::ofstream * out,
                         StreamFor(std::string(kReplayLogFile)));
    out->write(frame.data().data(),
               static_cast<std::streamsize>(frame.data().size()));
    out->flush();
    if (!*out) return Status::IOError("short write to replay log");
    ++statements_recorded_;
  }

  if (options_.mode != PackageMode::kServerIncluded) return Status::Ok();

  // --- Server-included: persist relevant tuples + build DB-side trace. ---
  // Input side: every tuple version in the statement's provenance that the
  // application did not itself create is packaged (§VII-D), with the first
  // values received for it; later records of it may carry none.
  for (const exec::ProvTupleRecord& tuple : result.prov_tuples) {
    if (created_vids_.contains(tuple.vid)) continue;
    LDV_RETURN_IF_ERROR(PersistProvTuple(tuple));
  }
  LDV_RETURN_IF_ERROR(FlushStreams());

  const bool tuples_in_trace = options_.record_tuple_nodes;
  std::unordered_map<TupleVid, trace::NodeId, storage::TupleVidHash>
      input_nodes;
  if (tuples_in_trace) {
    for (const exec::ProvTupleRecord& tuple : result.prov_tuples) {
      trace::NodeId node = TupleNode(tuple.vid, tuple.table);
      input_nodes.emplace(tuple.vid, node);
      LDV_RETURN_IF_ERROR(trace_.MergeEdge(
          node, stmt_node, trace::EdgeType::kHasRead, record.t));
    }
  }

  if (record.kind == sql::StatementKind::kSelect && tuples_in_trace) {
    // Result tuples are fresh entities returned to the process (Figure 2).
    for (size_t i = 0; i < result.rows.size(); ++i) {
      trace::NodeId out = trace_.GetOrAddNode(
          trace::NodeType::kTuple,
          StrFormat("q%lld#%zu", static_cast<long long>(record.query_id), i));
      LDV_RETURN_IF_ERROR(trace_.AddEdge(
          stmt_node, out, trace::EdgeType::kHasReturned, record.t));
      LDV_RETURN_IF_ERROR(trace_.AddEdge(
          out, proc_node, trace::EdgeType::kReadFromDb, record.t));
      if (i < result.lineage.size()) {
        for (const TupleVid& vid : result.lineage[i]) {
          auto it = input_nodes.find(vid);
          if (it != input_nodes.end()) {
            trace_.AddTupleDependency(out, it->second);
          }
        }
      }
    }
  }

  // DML effects: remember application-created versions (excluded from the
  // package) and add the reenactment edges.
  for (size_t i = 0; i < result.dml.size(); ++i) {
    const exec::DmlRecord& dml = result.dml[i];
    switch (dml.kind) {
      case exec::DmlRecord::Kind::kInserted: {
        created_vids_.insert(dml.vid);
        if (tuples_in_trace) {
          trace::NodeId node = TupleNode(dml.vid, dml.table);
          LDV_RETURN_IF_ERROR(trace_.AddEdge(
              stmt_node, node, trace::EdgeType::kHasReturned, record.t));
          // INSERT ... SELECT: source lineage becomes the new tuple's deps.
          if (i < result.lineage.size()) {
            for (const TupleVid& vid : result.lineage[i]) {
              auto it = input_nodes.find(vid);
              if (it != input_nodes.end()) {
                trace_.AddTupleDependency(node, it->second);
              }
            }
          }
        }
        break;
      }
      case exec::DmlRecord::Kind::kUpdated: {
        created_vids_.insert(dml.vid);
        if (tuples_in_trace) {
          trace::NodeId new_node = TupleNode(dml.vid, dml.table);
          trace::NodeId old_node = TupleNode(dml.prior, dml.table);
          LDV_RETURN_IF_ERROR(trace_.MergeEdge(
              old_node, stmt_node, trace::EdgeType::kHasRead, record.t));
          LDV_RETURN_IF_ERROR(trace_.AddEdge(
              stmt_node, new_node, trace::EdgeType::kHasReturned, record.t));
          trace_.AddTupleDependency(new_node, old_node);
        }
        break;
      }
      case exec::DmlRecord::Kind::kDeleted: {
        if (tuples_in_trace) {
          trace::NodeId old_node = TupleNode(dml.prior, dml.table);
          LDV_RETURN_IF_ERROR(trace_.MergeEdge(
              old_node, stmt_node, trace::EdgeType::kHasRead, record.t));
        }
        break;
      }
    }
  }
  return Status::Ok();
}

Status Auditor::FinalizePackage() {
  if (finalized_) return Status::Internal("package already finalized");
  finalized_ = true;

  PackageManifest manifest;
  manifest.mode = options_.mode;
  manifest.processes = report_.processes;
  manifest.files = packaged_files_;
  std::sort(manifest.files.begin(), manifest.files.end());
  manifest.statements_recorded = statements_recorded_;

  // DB server binary (all modes that ship a server).
  if (options_.mode == PackageMode::kServerIncluded ||
      options_.mode == PackageMode::kPtu ||
      options_.mode == PackageMode::kVmImage) {
    std::string target =
        JoinPath(options_.package_dir, std::string(kServerBinaryFile));
    if (!options_.server_binary_path.empty() &&
        FileExists(options_.server_binary_path)) {
      LDV_RETURN_IF_ERROR(CopyFile(options_.server_binary_path, target));
    } else {
      LDV_RETURN_IF_ERROR(WriteStringToFile(target, PlaceholderServerBinary()));
    }
    manifest.has_server_binary = true;
  }

  if (options_.mode == PackageMode::kServerIncluded) {
    std::string schema_sql;
    for (PackageManifest::TableEntry& entry : table_entries_) {
      entry.rows = 0;
      auto it = tuples_per_table_.find(entry.name);
      if (it != tuples_per_table_.end()) entry.rows = it->second;
      schema_sql += entry.create_sql;
      schema_sql += "\n";
    }
    LDV_RETURN_IF_ERROR(WriteStringToFile(
        JoinPath(options_.package_dir, std::string(kSchemaFile)), schema_sql));
    manifest.tables = table_entries_;
  }

  manifest.has_full_data = options_.mode == PackageMode::kPtu ||
                           options_.mode == PackageMode::kVmImage;

  if (options_.mode == PackageMode::kVmImage) {
    // Synthetic base OS image (DESIGN.md substitution #5).
    std::string chunk(1 << 20, '\0');
    uint64_t x = 0xBA5E1Du;
    for (size_t i = 0; i < chunk.size(); i += 8) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      std::memcpy(chunk.data() + i, &x, sizeof(x));
    }
    std::string image_path =
        JoinPath(options_.package_dir, std::string(kVmBaseImageFile));
    LDV_RETURN_IF_ERROR(WriteStringToFile(image_path, ""));
    int64_t remaining = options_.vm_base_image_bytes;
    while (remaining > 0) {
      size_t n = std::min<int64_t>(remaining,
                                   static_cast<int64_t>(chunk.size()));
      LDV_RETURN_IF_ERROR(AppendStringToFile(
          image_path, std::string_view(chunk.data(), n)));
      remaining -= static_cast<int64_t>(n);
    }
    manifest.has_vm_image = true;
  }

  // The serialized execution trace travels with every package (§VII-D).
  LDV_RETURN_IF_ERROR(
      WriteStringToFile(JoinPath(options_.package_dir, std::string(kTraceFile)),
                        trace::SerializeTrace(trace_)));
  manifest.has_trace = true;

  return manifest.Save(options_.package_dir);
}

}  // namespace ldv

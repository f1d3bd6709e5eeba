#include "ldv/replayer.h"

#include <algorithm>

#include "obs/span.h"
#include "storage/persistence.h"
#include "util/csv.h"
#include "util/fsutil.h"
#include "util/strings.h"

namespace ldv {

Replayer::Replayer(ReplayOptions options, PackageManifest manifest)
    : options_(std::move(options)), manifest_(std::move(manifest)) {}

Result<std::unique_ptr<Replayer>> Replayer::Open(const ReplayOptions& options) {
  LDV_ASSIGN_OR_RETURN(PackageManifest manifest,
                       PackageManifest::Load(options.package_dir));
  std::unique_ptr<Replayer> replayer(
      new Replayer(options, std::move(manifest)));
  LDV_RETURN_IF_ERROR(replayer->Initialize());
  return replayer;
}

Status Replayer::Initialize() {
  report_.mode = manifest_.mode;
  obs::Span span("replay.init", "replay");
  if (span.recording()) {
    span.AddArg("mode", std::string(PackageModeName(manifest_.mode)));
  }
  WallTimer timer;

  // Unpack the application files into the scratch sandbox (the chroot-like
  // redirection environment of §VII-D).
  LDV_RETURN_IF_ERROR(MakeDirs(options_.scratch_dir));
  std::string files_dir =
      JoinPath(options_.package_dir, std::string(kFilesDir));
  if (DirExists(files_dir)) {
    LDV_RETURN_IF_ERROR(CopyTree(files_dir, options_.scratch_dir));
  }
  vfs_ = std::make_unique<os::Vfs>(options_.scratch_dir);
  sim_os_ = std::make_unique<os::SimOs>(vfs_.get(), &clock_, nullptr);

  switch (manifest_.mode) {
    case PackageMode::kServerIncluded: {
      // Fresh embedded server initialized from the packaged tuples: "LDV
      // needs to create the DB using the tuples included in the package"
      // (§IX-C) — the dominant Initialization cost of Fig. 7b.
      db_ = std::make_unique<storage::Database>();
      engine_ = std::make_unique<net::EngineHandle>(db_.get());
      LDV_RETURN_IF_ERROR(RestoreIncludedTuples());
      break;
    }
    case PackageMode::kPtu:
    case PackageMode::kVmImage: {
      // PTU/VMI ship the server's native data files; loading them is the
      // fast path (no per-tuple SQL work).
      db_ = std::make_unique<storage::Database>();
      LDV_RETURN_IF_ERROR(storage::LoadDatabase(
          db_.get(),
          JoinPath(options_.package_dir, std::string(kFullDataDir))));
      engine_ = std::make_unique<net::EngineHandle>(db_.get());
      report_.restored_tuples = db_->TotalLiveRows();
      break;
    }
    case PackageMode::kServerExcluded: {
      LDV_ASSIGN_OR_RETURN(
          replay_log_,
          ReplayLog::Load(JoinPath(options_.package_dir,
                                   std::string(kReplayLogFile))));
      break;
    }
  }
  report_.init_seconds = timer.Seconds();
  return Status::Ok();
}

namespace {

std::string SqlLiteral(const storage::Value& v) {
  if (v.is_null()) return "NULL";
  if (v.type() == storage::ValueType::kString) {
    std::string escaped;
    for (char c : v.AsString()) {
      escaped.push_back(c);
      if (c == '\'') escaped.push_back('\'');
    }
    return "'" + escaped + "'";
  }
  return v.ToText();
}

}  // namespace

Status Replayer::RestoreIncludedTuples() {
  // Schema first (the packaged CREATE TABLE statements).
  for (const PackageManifest::TableEntry& entry : manifest_.tables) {
    net::DbRequest create;
    create.sql = entry.create_sql;
    LDV_RETURN_IF_ERROR(engine_->Execute(create).status());
  }
  int64_t max_version = 0;
  for (const PackageManifest::TableEntry& entry : manifest_.tables) {
    storage::Table* table = db_->FindTable(entry.name);
    if (table == nullptr) {
      return Status::Internal("restored schema lost table " + entry.name);
    }
    std::string csv_path =
        JoinPath(options_.package_dir,
                 std::string(kTupleDataDir) + "/" + entry.name + ".csv");
    // A truncated package must fail here, not replay quietly against a
    // smaller database: the manifest's row count is the authority.
    if (!FileExists(csv_path)) {
      if (entry.rows == 0) continue;  // no relevant tuples for this table
      return Status::IOError(StrFormat(
          "table '%s': packaged tuple file %s is missing (manifest records "
          "%lld rows)",
          entry.name.c_str(), csv_path.c_str(),
          static_cast<long long>(entry.rows)));
    }
    LDV_ASSIGN_OR_RETURN(std::string text, ReadFileToString(csv_path));
    LDV_ASSIGN_OR_RETURN(auto rows, ParseCsv(text));
    if (static_cast<int64_t>(rows.size()) != entry.rows) {
      return Status::IOError(StrFormat(
          "table '%s': packaged tuple file %s holds %zu rows, manifest "
          "records %lld",
          entry.name.c_str(), csv_path.c_str(), rows.size(),
          static_cast<long long>(entry.rows)));
    }
    const storage::Schema& schema = table->schema();
    std::vector<storage::RowVersion> restored;
    restored.reserve(rows.size());
    for (const auto& fields : rows) {
      if (static_cast<int>(fields.size()) != schema.num_columns() + 2) {
        return Status::IOError("corrupt packaged tuple row in " + entry.name);
      }
      storage::RowVersion row;
      LDV_ASSIGN_OR_RETURN(row.rowid, ParseInt64(fields[0]));
      LDV_ASSIGN_OR_RETURN(row.version, ParseInt64(fields[1]));
      max_version = std::max(max_version, row.version);
      row.values.reserve(static_cast<size_t>(schema.num_columns()));
      for (int c = 0; c < schema.num_columns(); ++c) {
        LDV_ASSIGN_OR_RETURN(
            storage::Value v,
            storage::Value::FromText(schema.column(c).type,
                                     fields[static_cast<size_t>(c) + 2]));
        row.values.push_back(std::move(v));
      }
      restored.push_back(std::move(row));
    }
    // Restore in rowid order so replayed scans see tuples in the original
    // run's physical order regardless of the order statements first touched
    // them (the DB is "reset to the state valid at the start", §I).
    std::sort(restored.begin(), restored.end(),
              [](const storage::RowVersion& a, const storage::RowVersion& b) {
                return a.rowid < b.rowid;
              });
    // The tuples go in through the regular SQL INSERT path — re-creating the
    // DB from the package is real per-tuple work, which is why Fig. 7b's
    // Initialization bar belongs almost entirely to server-included replay.
    for (const storage::RowVersion& row : restored) {
      std::string sql = "INSERT INTO " + entry.name + " VALUES (";
      for (size_t c = 0; c < row.values.size(); ++c) {
        if (c > 0) sql += ", ";
        sql += SqlLiteral(row.values[c]);
      }
      sql += ")";
      net::DbRequest insert;
      insert.sql = std::move(sql);
      LDV_RETURN_IF_ERROR(engine_->Execute(insert).status());
      ++report_.restored_tuples;
    }
  }
  // Keep version stamps monotone across the restored boundary.
  db_->set_statement_seq(max_version);
  return Status::Ok();
}

Result<ReplayReport> Replayer::Run(const AppFn& app) {
  Status status;
  {
    obs::Span span("replay.run", "replay");
    if (span.recording()) {
      span.AddArg("mode", std::string(PackageModeName(manifest_.mode)));
    }
    status = app(*this);
  }
  if (!status.ok()) return status.WithContext("replayed application failed");
  if (replay_log_ != nullptr) {
    report_.statements_replayed = replay_log_->replayed();
  }
  return report_;
}

os::ProcessContext& Replayer::root_process() { return *sim_os_->root(); }

Result<net::DbClient*> Replayer::OpenDbConnection(os::ProcessContext& proc) {
  // Connection redirection (§VIII): server-included/PTU/VMI connect to the
  // package's embedded server; server-excluded connects to the log.
  if (manifest_.mode == PackageMode::kServerExcluded) {
    clients_.push_back(std::make_unique<ReplayDbClient>(replay_log_.get()));
  } else {
    clients_.push_back(std::make_unique<net::LocalDbClient>(engine_.get()));
  }
  return clients_.back().get();
}

}  // namespace ldv

#include <gtest/gtest.h>

#include <functional>
#include <set>

#include "ldv/auditing_db_client.h"
#include "ldv/auditor.h"
#include "ldv/replayer.h"
#include "net/db_server.h"
#include "trace/inference.h"
#include "tpch/app.h"
#include "tpch/generator.h"
#include "tpch/queries.h"
#include "trace/serialize.h"
#include "util/crc32.h"
#include "util/csv.h"
#include "util/fsutil.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ldv {
namespace {

using storage::Database;
using storage::Value;
using storage::ValueType;

/// Fixture: a small pre-existing "server" database plus a deterministic
/// application exercising files + inserts + selects + updates — a compact
/// version of the paper's Figure 1 scenario.
class AuditReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("ldv_e2e_");
    ASSERT_TRUE(dir.ok());
    base_ = *dir;
    PopulateDb();
    // Sandbox input file.
    ASSERT_TRUE(WriteStringToFile(base_ + "/sandbox/input/config.txt",
                                  "threshold=50\n")
                    .ok());
  }

  void TearDown() override { ASSERT_TRUE(RemoveAll(base_).ok()); }

  void PopulateDb() {
    db_ = std::make_unique<Database>();
    auto items = db_->CreateTable("items", storage::Schema({
                                               {"id", ValueType::kInt64},
                                               {"val", ValueType::kInt64},
                                               {"tag", ValueType::kString},
                                           }));
    ASSERT_TRUE(items.ok());
    int64_t seq = db_->NextStatementSeq();
    for (int i = 1; i <= 10; ++i) {
      ASSERT_TRUE((*items)
                      ->Insert({Value::Int(i), Value::Int(i * 10),
                                Value::Str("pre")},
                               seq)
                      .ok());
    }
  }

  /// The test application: reads config, inserts a row, queries twice,
  /// updates a row, queries the inserted row, writes an output digest.
  static AppFn TestApp(uint64_t* fingerprint_out) {
    return [fingerprint_out](AppEnv& env) -> Status {
      os::ProcessContext& proc = env.root_process();
      LDV_ASSIGN_OR_RETURN(std::string config,
                           proc.ReadFile("/input/config.txt"));
      LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
      LDV_RETURN_IF_ERROR(
          db->Query("INSERT INTO items VALUES (100, 1000, 'new')").status());
      uint64_t fp = 0;
      for (int i = 0; i < 2; ++i) {
        LDV_ASSIGN_OR_RETURN(
            exec::ResultSet r,
            db->Query(
                "SELECT id, val FROM items WHERE val BETWEEN 50 AND 80"));
        fp ^= r.Fingerprint();
      }
      LDV_RETURN_IF_ERROR(
          db->Query("UPDATE items SET val = val + 1 WHERE id = 3").status());
      LDV_ASSIGN_OR_RETURN(
          exec::ResultSet after,
          db->Query("SELECT val FROM items WHERE id = 3 OR id = 100"));
      fp ^= after.Fingerprint() << 1;
      LDV_RETURN_IF_ERROR(proc.WriteFile(
          "/output/result.txt",
          "config=" + std::string(Trim(config)) + " fp=" + std::to_string(fp)));
      if (fingerprint_out != nullptr) *fingerprint_out = fp;
      return Status::Ok();
    };
  }

  AuditOptions Options(PackageMode mode, const std::string& name) {
    AuditOptions options;
    options.mode = mode;
    options.package_dir = base_ + "/packages/" + name;
    options.sandbox_root = base_ + "/sandbox";
    options.vm_base_image_bytes = 1 << 20;
    return options;
  }

  Result<ReplayReport> ReplayPackage(const std::string& name,
                                     const AppFn& app,
                                     std::string* scratch_out = nullptr) {
    ReplayOptions options;
    options.package_dir = base_ + "/packages/" + name;
    options.scratch_dir = base_ + "/scratch/" + name;
    if (scratch_out != nullptr) *scratch_out = options.scratch_dir;
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<Replayer> replayer,
                         Replayer::Open(options));
    return replayer->Run(app);
  }

  std::string base_;
  std::unique_ptr<Database> db_;
};

TEST_F(AuditReplayTest, ServerIncludedPackagesOnlyRelevantTuples) {
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "inc"));
  auto report = auditor.Run(TestApp(&original_fp));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->statements_audited, 0);

  // Packaged tuples: rowids 5..8 (val 50..80), rowid 3 (update prior).
  auto csv = ReadFileToString(base_ + "/packages/inc/db/data/items.csv");
  ASSERT_TRUE(csv.ok());
  auto rows = ParseCsv(*csv);
  ASSERT_TRUE(rows.ok());
  std::set<int64_t> rowids;
  for (const auto& fields : *rows) rowids.insert(*ParseInt64(fields[0]));
  EXPECT_EQ(rowids, (std::set<int64_t>{3, 5, 6, 7, 8}));
  EXPECT_EQ(report->tuples_persisted, 5);

  // Exclusions (paper §II): untouched tuples (t2 analog: rowids 1,2,4,9,10)
  // and application-created tuples (t3 analog: the id=100 insert and the
  // new version of id=3) are not in the package.
  EXPECT_FALSE(rowids.contains(1));
  EXPECT_FALSE(rowids.contains(11));  // rowid of the id=100 insert

  // Input file packaged; app-written output not packaged.
  EXPECT_TRUE(
      FileExists(base_ + "/packages/inc/files/input/config.txt"));
  EXPECT_FALSE(
      FileExists(base_ + "/packages/inc/files/output/result.txt"));

  // Manifest sanity.
  auto manifest = PackageManifest::Load(base_ + "/packages/inc");
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->mode, PackageMode::kServerIncluded);
  EXPECT_TRUE(manifest->has_server_binary);
  EXPECT_FALSE(manifest->has_full_data);
  ASSERT_EQ(manifest->tables.size(), 1u);
  EXPECT_EQ(manifest->tables[0].name, "items");
  EXPECT_EQ(manifest->tables[0].rows, 5);
}

TEST_F(AuditReplayTest, StreamingPackagerAgreesWithInferenceEngine) {
  // The §VII-D streaming persistence path and the Definition 11 inference
  // engine must select the same relevant tuple versions.
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "agree"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());

  trace::DependencyAnalyzer analyzer(&auditor.trace_graph());
  std::set<std::string> inferred;
  for (trace::NodeId id : analyzer.RelevantPackageTuples()) {
    inferred.insert(auditor.trace_graph().node(id).label);
  }
  auto csv = ReadFileToString(base_ + "/packages/agree/db/data/items.csv");
  ASSERT_TRUE(csv.ok());
  auto rows = ParseCsv(*csv);
  std::set<std::string> persisted;
  for (const auto& fields : *rows) {
    persisted.insert("items#" + fields[0] + ".v" + fields[1]);
  }
  EXPECT_EQ(inferred, persisted);
}

TEST_F(AuditReplayTest, ServerIncludedReplayIsFaithful) {
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "inc2"));
  ASSERT_TRUE(auditor.Run(TestApp(&original_fp)).ok());

  uint64_t replay_fp = 0;
  std::string scratch;
  auto report = ReplayPackage("inc2", TestApp(&replay_fp), &scratch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->mode, PackageMode::kServerIncluded);
  EXPECT_EQ(report->restored_tuples, 5);
  EXPECT_EQ(replay_fp, original_fp);
  // The replayed app regenerated its output file in the scratch sandbox.
  auto out = ReadFileToString(scratch + "/output/result.txt");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("threshold=50"), std::string::npos);
}

// A truncated package must fail to open, never replay quietly against a
// smaller database: the manifest's per-table row count is checked against
// the packaged tuple file.
TEST_F(AuditReplayTest, ServerIncludedReplayRejectsTruncatedTuples) {
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "trunc"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());
  const std::string csv_path = base_ + "/packages/trunc/db/data/items.csv";
  auto open = [&](const std::string& scratch) {
    ReplayOptions options;
    options.package_dir = base_ + "/packages/trunc";
    options.scratch_dir = base_ + "/scratch/" + scratch;
    return Replayer::Open(options);
  };
  ASSERT_TRUE(open("intact").ok());

  // (b) One whole CSV line dropped.
  auto text = ReadFileToString(csv_path);
  ASSERT_TRUE(text.ok());
  ASSERT_EQ(text->back(), '\n');
  const size_t last_line = text->rfind('\n', text->size() - 2);
  ASSERT_NE(last_line, std::string::npos);
  ASSERT_TRUE(WriteStringToFile(csv_path, text->substr(0, last_line + 1)).ok());
  auto short_file = open("short");
  ASSERT_FALSE(short_file.ok());
  EXPECT_NE(short_file.status().ToString().find("'items'"), std::string::npos)
      << short_file.status().ToString();
  EXPECT_NE(short_file.status().ToString().find(csv_path), std::string::npos)
      << short_file.status().ToString();

  // (a) The tuple file deleted outright.
  ASSERT_TRUE(RemoveAll(csv_path).ok());
  auto missing = open("missing");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().ToString().find("'items'"), std::string::npos)
      << missing.status().ToString();
  EXPECT_NE(missing.status().ToString().find(csv_path), std::string::npos)
      << missing.status().ToString();

  // Restoring the file makes the package whole again.
  ASSERT_TRUE(WriteStringToFile(csv_path, *text).ok());
  EXPECT_TRUE(open("restored").ok());
}

// A double whose %.15g form is rounded (0.1 + 0.2) is packaged and restored
// bit-exactly, so the replayed SELECT returns the audited value.
TEST_F(AuditReplayTest, ServerIncludedReplayRestoresDoublesBitExactly) {
  auto measures = db_->CreateTable(
      "measures", storage::Schema({{"id", ValueType::kInt64},
                                   {"x", ValueType::kDouble}}));
  ASSERT_TRUE(measures.ok());
  const int64_t seq = db_->NextStatementSeq();
  const double values[] = {0.1 + 0.2, 1.0 / 3, 2.5, 0.05};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE((*measures)
                    ->Insert({Value::Int(i + 1), Value::Real(values[i])}, seq)
                    .ok());
  }
  auto app = [](uint64_t* fingerprint_out) -> AppFn {
    return [fingerprint_out](AppEnv& env) -> Status {
      os::ProcessContext& proc = env.root_process();
      LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
      LDV_ASSIGN_OR_RETURN(
          exec::ResultSet r,
          db->Query("SELECT id, x FROM measures WHERE x > 0.2"));
      if (r.rows.size() != 3) return Status::Internal("wrong row count");
      *fingerprint_out = r.Fingerprint();
      return Status::Ok();
    };
  };
  uint64_t audited_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "dbl"));
  ASSERT_TRUE(auditor.Run(app(&audited_fp)).ok());
  auto csv = ReadFileToString(base_ + "/packages/dbl/db/data/measures.csv");
  ASSERT_TRUE(csv.ok());
  EXPECT_NE(csv->find("0.30000000000000004"), std::string::npos) << *csv;

  uint64_t replay_fp = 0;
  auto report = ReplayPackage("dbl", app(&replay_fp));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(replay_fp, audited_fp);
}

// ---------------------------------------------------------------------------
// The auditing client against a recording backend: what reaches the server.
// ---------------------------------------------------------------------------

/// A backend DbClient that keeps every request it is sent and forwards it to
/// an engine over the audited database.
class RecordingBackend final : public net::DbClient {
 public:
  explicit RecordingBackend(Database* db) : engine_(db), local_(&engine_) {}

  Result<exec::ResultSet> Execute(const net::DbRequest& request) override {
    requests.push_back(request);
    return local_.Execute(request);
  }

  std::vector<net::DbRequest> requests;

 private:
  net::EngineHandle engine_;
  net::LocalDbClient local_;
};

/// Runs `body` under audit with an AuditingDbClient over `backend` in place
/// of the connection the Auditor would open.
AppFn OverBackend(RecordingBackend* backend,
                  std::function<Status(net::DbClient*)> body) {
  return [backend, body](AppEnv& env) -> Status {
    AuditingDbClient client(backend, static_cast<Auditor*>(&env),
                            env.root_process().pid());
    return body(&client);
  };
}

TEST_F(AuditReplayTest, AuditedUpdateAndDeleteAreOneProvenanceRequestEach) {
  RecordingBackend backend(db_.get());
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "one"));
  auto report = auditor.Run(OverBackend(&backend, [](net::DbClient* db) {
    LDV_RETURN_IF_ERROR(
        db->Query("UPDATE items SET val = val + 1 WHERE id = 3").status());
    return db->Query("DELETE FROM items WHERE id = 7").status();
  }));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  ASSERT_EQ(backend.requests.size(), 2u);
  EXPECT_EQ(backend.requests[0].sql,
            "PROVENANCE UPDATE items SET val = val + 1 WHERE id = 3");
  EXPECT_EQ(backend.requests[1].sql,
            "PROVENANCE DELETE FROM items WHERE id = 7");
  EXPECT_NE(backend.requests[0].query_id, backend.requests[1].query_id);
  // The matched pre-state versions are still packaged: rowids 3 and 7.
  auto csv = ReadFileToString(base_ + "/packages/one/db/data/items.csv");
  ASSERT_TRUE(csv.ok());
  auto rows = ParseCsv(*csv);
  ASSERT_TRUE(rows.ok());
  std::set<int64_t> rowids;
  for (const auto& fields : *rows) rowids.insert(*ParseInt64(fields[0]));
  EXPECT_EQ(rowids, (std::set<int64_t>{3, 7}));
  EXPECT_EQ(report->tuples_persisted, 2);
}

TEST_F(AuditReplayTest, AuditingClientForwardsTheApplicationsRequest) {
  RecordingBackend backend(db_.get());
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "fwd"));
  auto report = auditor.Run(OverBackend(&backend, [](net::DbClient* db) {
    net::DbRequest request;
    request.sql = "SELECT id FROM items WHERE val > 50";
    request.timeout_millis = 4321;
    return db->Execute(request).status();
  }));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(backend.requests.size(), 1u);
  EXPECT_EQ(backend.requests[0].sql,
            "PROVENANCE SELECT id FROM items WHERE val > 50");
  EXPECT_EQ(backend.requests[0].timeout_millis, 4321);
  EXPECT_GT(backend.requests[0].process_id, 0);
  EXPECT_GT(backend.requests[0].query_id, 0);
}

// Prepared statements and COPY ... TO audit fine but replay against the
// packaged subset to different answers, so server-included audit refuses
// them, naming the statement, before anything reaches the server.
TEST_F(AuditReplayTest, ServerIncludedRefusesStatementsItCannotCapture) {
  const std::string copy_path = base_ + "/items_out.csv";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"PREPARE", "PREPARE p AS SELECT id FROM items WHERE val > ?"},
      {"EXECUTE", "EXECUTE p(35)"},
      {"DEALLOCATE", "DEALLOCATE p"},
      {"COPY ... TO", "COPY items TO '" + copy_path + "'"},
  };
  RecordingBackend backend(db_.get());
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "refuse"));
  auto report = auditor.Run(OverBackend(&backend, [&](net::DbClient* db) {
    for (const auto& [name, sql] : cases) {
      Status s = db->Query(sql).status();
      EXPECT_EQ(s.code(), StatusCode::kNotSupported) << sql;
      EXPECT_NE(s.message().find(name), std::string::npos) << s.ToString();
    }
    // The same statements as protocol verbs.
    Status prepare = net::PrepareStatement(db, "p", "SELECT id FROM items");
    EXPECT_EQ(prepare.code(), StatusCode::kNotSupported);
    EXPECT_NE(prepare.message().find("PREPARE"), std::string::npos);
    Status execute = net::ExecutePrepared(db, "p", {Value::Int(35)}).status();
    EXPECT_EQ(execute.code(), StatusCode::kNotSupported);
    EXPECT_NE(execute.message().find("EXECUTE"), std::string::npos);
    Status deallocate = net::DeallocatePrepared(db, "p");
    EXPECT_EQ(deallocate.code(), StatusCode::kNotSupported);
    EXPECT_NE(deallocate.message().find("DEALLOCATE"), std::string::npos);
    return Status::Ok();
  }));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(backend.requests.empty());
  EXPECT_EQ(report->statements_audited, 0);
  EXPECT_FALSE(FileExists(copy_path));

  // The refusal is server-included only: a server-excluded package replays
  // the recorded answers, so prepared statements audit there.
  RecordingBackend excluded_backend(db_.get());
  Auditor excluded(db_.get(), Options(PackageMode::kServerExcluded, "exc"));
  auto excluded_report =
      excluded.Run(OverBackend(&excluded_backend, [](net::DbClient* db) {
        LDV_RETURN_IF_ERROR(
            db->Query("PREPARE p AS SELECT id FROM items WHERE val > ?")
                .status());
        LDV_ASSIGN_OR_RETURN(exec::ResultSet r, db->Query("EXECUTE p(35)"));
        return r.rows.size() == 7 ? Status::Ok()
                                  : Status::Internal("wrong EXECUTE answer");
      }));
  EXPECT_TRUE(excluded_report.ok()) << excluded_report.status().ToString();
}

// Prepared statements sent as protocol verbs: an EXECUTE request carries a
// handle and parameters but no statement text, so the auditing client
// classifies the verbs by request kind instead of parsing them.
TEST_F(AuditReplayTest, ServerExcludedAuditsProtocolVerbPreparedStatements) {
  auto app = [](std::vector<uint64_t>* answers) -> AppFn {
    return [answers](AppEnv& env) -> Status {
      LDV_ASSIGN_OR_RETURN(net::DbClient * db,
                           env.OpenDbConnection(env.root_process()));
      LDV_RETURN_IF_ERROR(net::PrepareStatement(
          db, "p", "SELECT id, val FROM items WHERE val > ?"));
      for (int64_t bound : {35, 75}) {
        LDV_ASSIGN_OR_RETURN(exec::ResultSet r,
                             net::ExecutePrepared(db, "p", {Value::Int(bound)}));
        answers->push_back(r.Fingerprint());
      }
      return net::DeallocatePrepared(db, "p");
    };
  };
  std::vector<uint64_t> audited;
  Auditor auditor(db_.get(), Options(PackageMode::kServerExcluded, "verbs"));
  auto report = auditor.Run(app(&audited));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->statements_audited, 4);
  ASSERT_EQ(audited.size(), 2u);
  EXPECT_NE(audited[0], audited[1]);

  std::vector<uint64_t> replayed;
  auto replay = ReplayPackage("verbs", app(&replayed));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replayed, audited);
}

// An UPDATE and a DELETE whose WHERE holds an IN-subquery over another
// table: the subquery's tuples are part of the statements' provenance, so
// they are packaged, and replay reproduces the audited answers.
TEST_F(AuditReplayTest, ServerIncludedPackagesWhereSubqueryTuples) {
  auto picks = db_->CreateTable(
      "picks", storage::Schema({{"item_id", ValueType::kInt64},
                                {"reason", ValueType::kString}}));
  ASSERT_TRUE(picks.ok());
  const int64_t seq = db_->NextStatementSeq();
  for (int64_t id : {2, 4, 6, 9, 42}) {
    ASSERT_TRUE(
        (*picks)->Insert({Value::Int(id), Value::Str("p")}, seq).ok());
  }
  auto app = [](uint64_t* fingerprint_out) -> AppFn {
    return [fingerprint_out](AppEnv& env) -> Status {
      os::ProcessContext& proc = env.root_process();
      LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
      LDV_RETURN_IF_ERROR(
          db->Query("UPDATE items SET val = val + 1000 WHERE id IN "
                    "(SELECT item_id FROM picks WHERE item_id < 5)")
              .status());
      LDV_RETURN_IF_ERROR(
          db->Query("DELETE FROM items WHERE id IN "
                    "(SELECT item_id FROM picks WHERE item_id > 5)")
              .status());
      LDV_ASSIGN_OR_RETURN(
          exec::ResultSet r,
          db->Query("SELECT id, val FROM items WHERE id < 10"));
      if (r.rows.size() != 7) {
        return Status::Internal("expected 7 rows, got " +
                                std::to_string(r.rows.size()));
      }
      *fingerprint_out = r.Fingerprint();
      return Status::Ok();
    };
  };
  uint64_t audited_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "subq"));
  auto audit = auditor.Run(app(&audited_fp));
  ASSERT_TRUE(audit.ok()) << audit.status().ToString();

  // Every picks row the two subqueries returned: item_id 2, 4 (< 5) and 6,
  // 9, 42 (> 5) — rowids 1..5.
  auto csv = ReadFileToString(base_ + "/packages/subq/db/data/picks.csv");
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  auto rows = ParseCsv(*csv);
  ASSERT_TRUE(rows.ok());
  std::set<int64_t> rowids;
  for (const auto& fields : *rows) rowids.insert(*ParseInt64(fields[0]));
  EXPECT_EQ(rowids, (std::set<int64_t>{1, 2, 3, 4, 5}));

  uint64_t replay_fp = 0;
  auto report = ReplayPackage("subq", app(&replay_fp));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(replay_fp, audited_fp);
}

TEST_F(AuditReplayTest, ServerExcludedReplayNeedsNoDatabase) {
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kServerExcluded, "exc"));
  ASSERT_TRUE(auditor.Run(TestApp(&original_fp)).ok());

  auto manifest = PackageManifest::Load(base_ + "/packages/exc");
  ASSERT_TRUE(manifest.ok());
  EXPECT_FALSE(manifest->has_server_binary);
  EXPECT_EQ(manifest->statements_recorded, 5);
  EXPECT_FALSE(FileExists(base_ + "/packages/exc/db/schema.sql"));
  EXPECT_FALSE(DirExists(base_ + "/packages/exc/db/data"));
  EXPECT_TRUE(FileExists(base_ + "/packages/exc/db/replay.log"));

  uint64_t replay_fp = 0;
  auto report = ReplayPackage("exc", TestApp(&replay_fp));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->statements_replayed, 5);
  EXPECT_EQ(replay_fp, original_fp);
}

TEST_F(AuditReplayTest, ServerExcludedReplayDetectsDivergence) {
  Auditor auditor(db_.get(), Options(PackageMode::kServerExcluded, "div"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());

  AppFn divergent = [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    return db->Query("SELECT id FROM items WHERE id = 1").status();
  };
  auto report = ReplayPackage("div", divergent);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kReplayMismatch);
}

TEST_F(AuditReplayTest, PtuPackagesFullDatabase) {
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kPtu, "ptu"));
  ASSERT_TRUE(auditor.Run(TestApp(&original_fp)).ok());

  auto manifest = PackageManifest::Load(base_ + "/packages/ptu");
  ASSERT_TRUE(manifest.ok());
  EXPECT_TRUE(manifest->has_full_data);
  EXPECT_TRUE(manifest->has_server_binary);
  EXPECT_TRUE(
      FileExists(base_ + "/packages/ptu/db/data_full/items.tbl"));

  uint64_t replay_fp = 0;
  auto report = ReplayPackage("ptu", TestApp(&replay_fp));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->restored_tuples, 10);  // the whole pre-state
  EXPECT_EQ(replay_fp, original_fp);
}

TEST_F(AuditReplayTest, PtuPackageIsLargerThanServerIncluded) {
  Auditor inc(db_.get(), Options(PackageMode::kServerIncluded, "size_inc"));
  ASSERT_TRUE(inc.Run(TestApp(nullptr)).ok());
  PopulateDb();  // fresh DB (previous app mutated it)
  Auditor ptu(db_.get(), Options(PackageMode::kPtu, "size_ptu"));
  ASSERT_TRUE(ptu.Run(TestApp(nullptr)).ok());

  auto inc_info = InspectPackage(base_ + "/packages/size_inc");
  auto ptu_info = InspectPackage(base_ + "/packages/size_ptu");
  ASSERT_TRUE(inc_info.ok());
  ASSERT_TRUE(ptu_info.ok());
  EXPECT_GT(ptu_info->full_data_bytes, inc_info->tuple_data_bytes);
  EXPECT_EQ(inc_info->full_data_bytes, 0);
  EXPECT_EQ(ptu_info->tuple_data_bytes, 0);
  EXPECT_EQ(inc_info->packaged_tuples, 5);
}

TEST_F(AuditReplayTest, VmImagePackageAndReplay) {
  uint64_t original_fp = 0;
  Auditor auditor(db_.get(), Options(PackageMode::kVmImage, "vmi"));
  ASSERT_TRUE(auditor.Run(TestApp(&original_fp)).ok());
  auto info = InspectPackage(base_ + "/packages/vmi");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->vm_image_bytes, 1 << 20);
  EXPECT_GT(info->full_data_bytes, 0);

  uint64_t replay_fp = 0;
  auto report = ReplayPackage("vmi", TestApp(&replay_fp));
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(replay_fp, original_fp);
}

TEST_F(AuditReplayTest, PackagedTraceDeserializesAndLinksModels) {
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "trace"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());
  auto bytes = ReadFileToString(base_ + "/packages/trace/trace.ldv");
  ASSERT_TRUE(bytes.ok());
  auto graph = trace::DeserializeTrace(*bytes);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  // Combined trace: OS side (process, files) and DB side (statements,
  // tuples) connected by run edges.
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kProcess).empty());
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kFile).empty());
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kQuery).empty());
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kInsert).empty());
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kUpdate).empty());
  EXPECT_FALSE(graph->NodesOfType(trace::NodeType::kTuple).empty());
  bool has_run_edge = false;
  for (const trace::TraceEdge& e : graph->edges()) {
    has_run_edge |= e.type == trace::EdgeType::kRun;
  }
  EXPECT_TRUE(has_run_edge);

  // The output file depends (Definition 11) on the input file and on the
  // packaged tuples, across model boundaries.
  trace::NodeId output =
      graph->FindNode(trace::NodeType::kFile, "/output/result.txt");
  trace::NodeId input =
      graph->FindNode(trace::NodeType::kFile, "/input/config.txt");
  ASSERT_NE(output, trace::kInvalidNode);
  ASSERT_NE(input, trace::kInvalidNode);
  trace::DependencyAnalyzer analyzer(graph.operator->());
  EXPECT_TRUE(analyzer.Depends(output, input));
}

TEST_F(AuditReplayTest, TupleReadByTwoSelectsIsOneNodeWithAnEdgePerRead) {
  // Both executions of "val BETWEEN 50 AND 80" read the pre-existing
  // version of rowid 5; nothing else touches that row.
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "reads"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());
  const trace::TraceGraph& graph = auditor.trace_graph();
  std::vector<trace::NodeId> row5;
  for (trace::NodeId id : graph.NodesOfType(trace::NodeType::kTuple)) {
    if (StartsWith(graph.node(id).label, "items#5.v")) row5.push_back(id);
  }
  ASSERT_EQ(row5.size(), 1u);
  std::vector<trace::NodeId> readers;
  for (int32_t e : graph.OutEdges(row5[0])) {
    const trace::TraceEdge& edge = graph.edges()[static_cast<size_t>(e)];
    ASSERT_EQ(edge.type, trace::EdgeType::kHasRead);
    EXPECT_EQ(graph.node(edge.to).type, trace::NodeType::kQuery);
    readers.push_back(edge.to);
  }
  ASSERT_EQ(readers.size(), 2u);
  EXPECT_NE(readers[0], readers[1]);
}

TEST_F(AuditReplayTest, SocketBackedAuditMatchesInProcessAudit) {
  // The paper's deployment: the application talks to the DB server over a
  // socket; the instrumented client library sits in between. Auditing over
  // the real wire must produce the same package as the in-process path.
  net::EngineHandle engine(db_.get());
  net::DbServer server(&engine, base_ + "/ldv.sock");
  ASSERT_TRUE(server.Start().ok());

  uint64_t socket_fp = 0;
  AuditOptions options = Options(PackageMode::kServerIncluded, "sock");
  options.db_socket_path = server.socket_path();
  {
    Auditor auditor(db_.get(), options);
    auto report = auditor.Run(TestApp(&socket_fp));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->tuples_persisted, 5);
  }
  server.Stop();

  // Replay the socket-audited package (in-process, as Bob would).
  uint64_t replay_fp = 0;
  auto replay = ReplayPackage("sock", TestApp(&replay_fp));
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay_fp, socket_fp);
}

TEST_F(AuditReplayTest, AuditRefusesToOverwritePackage) {
  Auditor first(db_.get(), Options(PackageMode::kServerExcluded, "dup"));
  ASSERT_TRUE(first.Run(TestApp(nullptr)).ok());
  Auditor second(db_.get(), Options(PackageMode::kServerExcluded, "dup"));
  auto report = second.Run(TestApp(nullptr));
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(AuditReplayTest, FailingAppSurfacesError) {
  AppFn bad = [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    return db->Query("SELECT * FROM no_such_table").status();
  };
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "bad"));
  EXPECT_FALSE(auditor.Run(bad).ok());
}

// ---------------------------------------------------------------------------
// The §VII-D trade-off: a server-included package supports *modified*
// re-execution (Bob can change queries, as long as they touch the packaged
// subset), while a server-excluded package only supports faithful replay.
// ---------------------------------------------------------------------------

TEST_F(AuditReplayTest, ServerIncludedSupportsModifiedReExecution) {
  Auditor auditor(db_.get(), Options(PackageMode::kServerIncluded, "mod"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());

  // Bob's variant: a different aggregate over the same packaged subset
  // (tuples with val in [50,80] plus the update's prior).
  AppFn bobs_variant = [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    LDV_ASSIGN_OR_RETURN(
        exec::ResultSet r,
        db->Query("SELECT count(*), sum(val) FROM items "
                  "WHERE val BETWEEN 50 AND 80"));
    if (r.rows[0][0].AsInt() != 4) {
      return Status::Internal("expected the 4 packaged tuples, got " +
                              r.rows[0][0].ToText());
    }
    return Status::Ok();
  };
  auto report = ReplayPackage("mod", bobs_variant);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
}

TEST_F(AuditReplayTest, ServerExcludedRejectsModifiedReExecution) {
  Auditor auditor(db_.get(), Options(PackageMode::kServerExcluded, "mod2"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());

  AppFn bobs_variant = [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    return db->Query("SELECT count(*) FROM items").status();
  };
  auto report = ReplayPackage("mod2", bobs_variant);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kReplayMismatch);
}

TEST_F(AuditReplayTest, PartialReExecutionReplaysAPrefix) {
  // §VIII: partial re-execution is supported as long as requests follow the
  // recorded order — a prefix of the original application.
  Auditor auditor(db_.get(), Options(PackageMode::kServerExcluded, "part"));
  ASSERT_TRUE(auditor.Run(TestApp(nullptr)).ok());

  AppFn prefix = [](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    LDV_RETURN_IF_ERROR(
        db->Query("INSERT INTO items VALUES (100, 1000, 'new')").status());
    LDV_ASSIGN_OR_RETURN(
        exec::ResultSet r,
        db->Query("SELECT id, val FROM items WHERE val BETWEEN 50 AND 80"));
    return r.rows.size() == 4 ? Status::Ok()
                              : Status::Internal("wrong replayed result");
  };
  auto report = ReplayPackage("part", prefix);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->statements_replayed, 2);
}

// ---------------------------------------------------------------------------
// Property: for randomized applications, both package types replay to the
// exact original results (package sufficiency, the paper's core guarantee).
// ---------------------------------------------------------------------------

class RandomizedReplayTest : public ::testing::TestWithParam<uint64_t> {};

AppFn RandomApp(uint64_t seed, uint64_t* fingerprint_out) {
  return [seed, fingerprint_out](AppEnv& env) -> Status {
    os::ProcessContext& proc = env.root_process();
    LDV_ASSIGN_OR_RETURN(net::DbClient * db, env.OpenDbConnection(proc));
    Rng rng(seed);
    uint64_t fp = 0;
    int steps = 8 + static_cast<int>(rng.Uniform(0, 8));
    for (int i = 0; i < steps; ++i) {
      int64_t choice = rng.Uniform(0, 3);
      if (choice == 0) {
        LDV_RETURN_IF_ERROR(
            db->Query(StrFormat("INSERT INTO items VALUES (%lld, %lld, 'r')",
                                static_cast<long long>(1000 + i),
                                static_cast<long long>(rng.Uniform(0, 500))))
                .status());
      } else if (choice == 1) {
        int64_t lo = rng.Uniform(0, 100);
        LDV_ASSIGN_OR_RETURN(
            exec::ResultSet r,
            db->Query(StrFormat(
                "SELECT id, val, tag FROM items WHERE val BETWEEN %lld AND "
                "%lld",
                static_cast<long long>(lo), static_cast<long long>(lo + 40))));
        fp ^= r.Fingerprint() + i;
      } else if (choice == 2) {
        LDV_RETURN_IF_ERROR(
            db->Query(StrFormat(
                          "UPDATE items SET val = val + 7 WHERE id = %lld",
                          static_cast<long long>(rng.Uniform(1, 10))))
                .status());
      } else {
        LDV_ASSIGN_OR_RETURN(
            exec::ResultSet r,
            db->Query("SELECT count(*), sum(val) FROM items"));
        fp ^= r.Fingerprint() * 3 + i;
      }
    }
    if (fingerprint_out != nullptr) *fingerprint_out = fp;
    return Status::Ok();
  };
}

TEST_P(RandomizedReplayTest, BothPackageTypesReplayFaithfully) {
  const uint64_t seed = GetParam();
  auto base = MakeTempDir("ldv_prop_");
  ASSERT_TRUE(base.ok());

  for (PackageMode mode :
       {PackageMode::kServerIncluded, PackageMode::kServerExcluded}) {
    Database db;
    auto items = db.CreateTable("items",
                                storage::Schema({{"id", ValueType::kInt64},
                                                 {"val", ValueType::kInt64},
                                                 {"tag", ValueType::kString}}));
    ASSERT_TRUE(items.ok());
    Rng data_rng(seed ^ 0xD474ULL);
    int64_t seq = db.NextStatementSeq();
    for (int i = 1; i <= 30; ++i) {
      ASSERT_TRUE((*items)
                      ->Insert({Value::Int(i),
                                Value::Int(data_rng.Uniform(0, 120)),
                                Value::Str("pre")},
                               seq)
                      .ok());
    }
    std::string name = std::string(PackageModeName(mode));
    AuditOptions options;
    options.mode = mode;
    options.package_dir = *base + "/pkg_" + name;
    options.sandbox_root = *base + "/sandbox_" + name;
    ASSERT_TRUE(MakeDirs(options.sandbox_root).ok());

    uint64_t original_fp = 1;
    Auditor auditor(&db, options);
    auto audit = auditor.Run(RandomApp(seed, &original_fp));
    ASSERT_TRUE(audit.ok()) << audit.status().ToString();

    ReplayOptions replay_options;
    replay_options.package_dir = options.package_dir;
    replay_options.scratch_dir = *base + "/scratch_" + name;
    auto replayer = Replayer::Open(replay_options);
    ASSERT_TRUE(replayer.ok()) << replayer.status().ToString();
    uint64_t replay_fp = 2;
    auto report = (*replayer)->Run(RandomApp(seed, &replay_fp));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(replay_fp, original_fp)
        << "mode=" << name << " seed=" << seed;
  }
  ASSERT_TRUE(RemoveAll(*base).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedReplayTest,
                         ::testing::Range<uint64_t>(1, 13));

// Pins the serialized trace of a deterministic server-included audit of a
// small TPC-H run, so any change in node or edge order, labels or intervals
// fails loudly. Update the constant only for an intended format change.
TEST(ServerIncludedTraceTest, TpchTraceBytesArePinned) {
  auto base = MakeTempDir("ldv_pin_");
  ASSERT_TRUE(base.ok());
  Database db;
  tpch::GenOptions gen;
  gen.scale_factor = 0.001;
  ASSERT_TRUE(tpch::Generate(&db, gen).ok());
  auto query = tpch::FindQuery("Q2-4");
  ASSERT_TRUE(query.ok());
  tpch::AppOptions app;
  app.query_sql = query->sql;
  app.num_inserts = 20;
  app.num_selects = 2;
  app.num_updates = 10;
  tpch::TpchSizes sizes = tpch::SizesFor(gen.scale_factor);
  app.insert_orderkey_base = sizes.orders;
  app.update_orderkey_max = sizes.orders;
  app.customer_max = sizes.customers;

  AuditOptions options;
  options.mode = PackageMode::kServerIncluded;
  options.package_dir = *base + "/pkg";
  options.sandbox_root = *base + "/sandbox";
  ASSERT_TRUE(MakeDirs(options.sandbox_root).ok());
  Auditor auditor(&db, options);
  auto report = auditor.Run(tpch::MakeExperimentApp(app, nullptr));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  std::string bytes = trace::SerializeTrace(auditor.trace_graph());
  auto packaged = ReadFileToString(*base + "/pkg/trace.ldv");
  ASSERT_TRUE(packaged.ok());
  EXPECT_EQ(*packaged, bytes);
  EXPECT_EQ(report->trace_nodes, 12967);
  EXPECT_EQ(report->trace_edges, 25871);
  EXPECT_EQ(bytes.size(), 455863u);
  EXPECT_EQ(Crc32(bytes), 0xD8FD8103u);
  ASSERT_TRUE(RemoveAll(*base).ok());
}

}  // namespace
}  // namespace ldv

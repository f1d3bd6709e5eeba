#include <gtest/gtest.h>

#include <set>

#include "exec/executor.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "util/strings.h"

namespace ldv::exec {
namespace {

using storage::Database;
using storage::TupleVid;
using storage::Value;

/// Tests for Perm-style Lineage computation (paper §IV-D, §VI-A).
class LineageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exec_ = std::make_unique<Executor>(&db_);
    Run("CREATE TABLE sales (id INT, price DOUBLE)");
    Run("INSERT INTO sales VALUES (1, 5), (2, 11), (3, 14)");
    db_.FindTable("sales")->set_provenance_tracking(true);
  }

  ResultSet Run(const std::string& sql) {
    ExecOptions options;
    options.query_id = ++next_query_id_;
    options.process_id = 77;
    auto result = exec_->Execute(sql, options);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : ResultSet{};
  }

  /// Set of (rowid) referenced by a row's lineage in `table`.
  std::set<int64_t> LineageRowIds(const ResultSet& r, size_t row) {
    std::set<int64_t> out;
    for (const TupleVid& vid : r.lineage[row]) out.insert(vid.rowid);
    return out;
  }

  Database db_;
  std::unique_ptr<Executor> exec_;
  int64_t next_query_id_ = 0;
};

TEST_F(LineageTest, SelectionLineageIsTheQualifyingTuple) {
  ResultSet r = Run("PROVENANCE SELECT id FROM sales WHERE price > 10");
  ASSERT_TRUE(r.has_provenance);
  ASSERT_EQ(r.rows.size(), 2u);
  ASSERT_EQ(r.lineage.size(), 2u);
  EXPECT_EQ(LineageRowIds(r, 0), std::set<int64_t>{2});
  EXPECT_EQ(LineageRowIds(r, 1), std::set<int64_t>{3});
  // prov_tuples carries the values of the lineage tuples.
  ASSERT_EQ(r.prov_tuples.size(), 2u);
  EXPECT_EQ(r.prov_tuples[0].table, "sales");
  EXPECT_DOUBLE_EQ(r.prov_tuples[0].values[1].AsDouble(), 11.0);
}

TEST_F(LineageTest, PaperExample4AggregateLineage) {
  // SELECT sum(price) AS ttl FROM sales WHERE price > 10 -> ttl = 25,
  // Lineage = {t2, t3} (paper Figure 5).
  ResultSet r = Run(
      "PROVENANCE SELECT sum(price) AS ttl FROM sales WHERE price > 10");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 25.0);
  EXPECT_EQ(LineageRowIds(r, 0), (std::set<int64_t>{2, 3}));
}

TEST_F(LineageTest, NonQualifyingTuplesAreExcluded) {
  ResultSet r = Run("PROVENANCE SELECT id FROM sales WHERE id = 1");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(LineageRowIds(r, 0), std::set<int64_t>{1});
  EXPECT_EQ(r.prov_tuples.size(), 1u);  // t2, t3 not included
}

TEST_F(LineageTest, JoinLineageUnionsBothSides) {
  Run("CREATE TABLE names (id INT, label TEXT)");
  Run("INSERT INTO names VALUES (2, 'two'), (3, 'three')");
  db_.FindTable("names")->set_provenance_tracking(true);
  ResultSet r = Run(
      "PROVENANCE SELECT s.id, n.label FROM sales s, names n "
      "WHERE s.id = n.id ORDER BY s.id");
  ASSERT_EQ(r.rows.size(), 2u);
  // Each output row depends on exactly one sales tuple and one names tuple.
  ASSERT_EQ(r.lineage[0].size(), 2u);
  std::set<int32_t> tables;
  for (const TupleVid& vid : r.lineage[0]) tables.insert(vid.table_id);
  EXPECT_EQ(tables.size(), 2u);
}

TEST_F(LineageTest, GroupByLineagePartitionsByGroup) {
  Run("CREATE TABLE orders2 (okey INT, qty INT)");
  Run("INSERT INTO orders2 VALUES (1, 10), (1, 20), (2, 30)");
  db_.FindTable("orders2")->set_provenance_tracking(true);
  ResultSet r = Run(
      "PROVENANCE SELECT okey, avg(qty) FROM orders2 GROUP BY okey "
      "ORDER BY okey");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.lineage[0].size(), 2u);  // group okey=1: two contributing rows
  EXPECT_EQ(r.lineage[1].size(), 1u);  // group okey=2
}

TEST_F(LineageTest, DistinctUnionsDuplicateLineage) {
  Run("INSERT INTO sales VALUES (4, 11)");  // duplicate price 11
  ResultSet r = Run(
      "PROVENANCE SELECT DISTINCT price FROM sales WHERE price = 11");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.lineage[0].size(), 2u);  // both tuples with price 11
}

TEST_F(LineageTest, CountStarLineageIsAllContributingTuples) {
  ResultSet r = Run("PROVENANCE SELECT count(*) FROM sales");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.lineage[0].size(), 3u);
}

TEST_F(LineageTest, ScanStampsUsedByMetadata) {
  Run("PROVENANCE SELECT id FROM sales WHERE price > 10");
  // query_id was assigned by Run(); process 77 reads the qualifying rows.
  ResultSet check = Run("SELECT prov_usedby, prov_p FROM sales WHERE id = 2");
  EXPECT_GT(check.rows[0][0].AsInt(), 0);
  EXPECT_EQ(check.rows[0][1].AsInt(), 77);
}

TEST_F(LineageTest, NonProvenanceQueryHasNoLineage) {
  ResultSet r = Run("SELECT id FROM sales");
  EXPECT_FALSE(r.has_provenance);
  EXPECT_TRUE(r.lineage.empty());
  EXPECT_TRUE(r.prov_tuples.empty());
}

TEST_F(LineageTest, LineageReferencesCurrentVersions) {
  Run("UPDATE sales SET price = 12 WHERE id = 1");
  ResultSet r = Run("PROVENANCE SELECT id FROM sales WHERE id = 1");
  ASSERT_EQ(r.lineage.size(), 1u);
  const TupleVid& vid = r.lineage[0][0];
  // The lineage points at the *new* version created by the update.
  const storage::RowVersion* live = db_.FindTable("sales")->Find(vid.rowid);
  EXPECT_EQ(live->version, vid.version);
}

TEST_F(LineageTest, LineageSufficiency) {
  // Property (packaging correctness): re-running the query against a copy
  // of the database containing ONLY the lineage tuples yields equal results.
  const std::string query =
      "SELECT id, price FROM sales WHERE price BETWEEN 6 AND 20";
  ResultSet full = Run("PROVENANCE " + query);

  Database subset_db;
  Executor subset_exec(&subset_db);
  auto created = subset_db.CreateTable("sales",
                                       db_.FindTable("sales")->schema());
  ASSERT_TRUE(created.ok());
  for (const ProvTupleRecord& t : full.prov_tuples) {
    storage::RowVersion row;
    row.rowid = t.vid.rowid;
    row.version = t.vid.version;
    row.values = t.values;
    ASSERT_TRUE((*created)->RestoreRow(row).ok());
  }
  auto replayed = subset_exec.Execute(query, {});
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed->Fingerprint(), [&] {
    ResultSet plain = Run(query);
    return plain.Fingerprint();
  }());
}

TEST_F(LineageTest, ProvTuplesExcludeJoinEliminatedRows) {
  // Regression: tuples that pass a scan's local filter but are eliminated
  // by the join must NOT appear in the statement's provenance (they are in
  // no result row's Lineage and must not be packaged).
  Run("CREATE TABLE obs (id INT, lum DOUBLE)");
  Run("INSERT INTO obs VALUES (2, 0.9), (3, 0.9), (40, 0.9), (50, 0.9)");
  db_.FindTable("obs")->set_provenance_tracking(true);
  ResultSet r = Run(
      "PROVENANCE SELECT s.id FROM sales s, obs o "
      "WHERE s.id = o.id AND o.lum > 0.5");
  ASSERT_EQ(r.rows.size(), 2u);  // sales 2 and 3 join; obs 40/50 do not
  // Provenance: 2 sales tuples + 2 obs tuples — not the filtered-only rows.
  EXPECT_EQ(r.prov_tuples.size(), 4u);
}

TEST_F(LineageTest, MergeLineageDeduplicates) {
  LineageSet a = {{1, 1, 1}, {1, 3, 1}};
  LineageSet b = {{1, 2, 1}, {1, 3, 1}};
  MergeLineage(&a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  MergeLineage(&a, {});
  EXPECT_EQ(a.size(), 3u);
}

// ---------------------------------------------------------------------------
// Provenance collection: each statement copies a tuple version's values once,
// out of its live row, and leaves out those of versions the client holds
// (ExecOptions::shipped_vids, DESIGN.md §17).
// ---------------------------------------------------------------------------

/// Everything a provenance answer carries, folded into one number: rows,
/// per-row lineage, each provenance record's vid, table and values, and the
/// DML records.
uint64_t AnswerDigest(const ResultSet& r) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  auto mix_vid = [&mix](const TupleVid& vid) {
    mix(static_cast<uint64_t>(vid.table_id));
    mix(static_cast<uint64_t>(vid.rowid));
    mix(static_cast<uint64_t>(vid.version));
  };
  mix(r.rows.size());
  for (const storage::Tuple& row : r.rows) mix(storage::HashTuple(row));
  mix(r.lineage.size());
  for (const LineageSet& set : r.lineage) {
    mix(set.size());
    for (const TupleVid& vid : set) mix_vid(vid);
  }
  mix(r.prov_tuples.size());
  for (const ProvTupleRecord& rec : r.prov_tuples) {
    mix_vid(rec.vid);
    mix(Fnv1a(rec.table));
    mix(storage::HashTuple(rec.values));
  }
  mix(r.dml.size());
  for (const DmlRecord& d : r.dml) {
    mix(static_cast<uint64_t>(d.kind));
    mix_vid(d.vid);
    mix_vid(d.prior);
  }
  return h;
}

/// One provenance statement over a freshly built database spanning several
/// morsels. `digest` pins the answer the engine gave when each scan still
/// copied every row that passed its filter; collection must not change it.
struct CollectionCase {
  const char* name;
  const char* sql;
  uint64_t digest;
};

// Test names print the case's name rather than its bytes.
void PrintTo(const CollectionCase& c, std::ostream* os) { *os << c.name; }

class LineageCollectionTest : public ::testing::TestWithParam<CollectionCase> {
 protected:
  /// items (5000 rows, some NULL tags), other (7 rows), an empty sink, and
  /// lax: 3000 rows of which one holds a string in its INT column, so the
  /// vectorized scan gives up and re-runs row at a time.
  static void Populate(Database* db) {
    using storage::ValueType;
    auto items = db->CreateTable("items", storage::Schema({
                                              {"id", ValueType::kInt64},
                                              {"grp", ValueType::kInt64},
                                              {"val", ValueType::kDouble},
                                              {"tag", ValueType::kString},
                                          }));
    auto other = db->CreateTable("other", storage::Schema({
                                              {"grp", ValueType::kInt64},
                                              {"w", ValueType::kDouble},
                                          }));
    auto sink = db->CreateTable("sink", storage::Schema({
                                            {"id", ValueType::kInt64},
                                            {"val", ValueType::kDouble},
                                        }));
    auto lax = db->CreateTable("lax", storage::Schema({
                                          {"id", ValueType::kInt64},
                                          {"v", ValueType::kInt64},
                                      }));
    ASSERT_TRUE(items.ok() && other.ok() && sink.ok() && lax.ok());
    const int64_t seq = db->NextStatementSeq();
    for (int64_t i = 1; i <= 5000; ++i) {
      Value tag = i % 17 == 0 ? Value::Null()
                              : Value::Str("t" + std::to_string(i % 13));
      const double val = static_cast<double>((i * 37) % 101) + 0.5;
      ASSERT_TRUE((*items)
                      ->Insert({Value::Int(i), Value::Int(i % 7),
                                Value::Real(val), std::move(tag)},
                               seq)
                      .ok());
    }
    for (int64_t g = 0; g < 7; ++g) {
      const double w = 3.0 * static_cast<double>(g);
      ASSERT_TRUE((*other)->Insert({Value::Int(g), Value::Real(w)}, seq).ok());
    }
    for (int64_t i = 1; i <= 3000; ++i) {
      Value v = i == 2500 ? Value::Str("lax") : Value::Int(i * 3);
      ASSERT_TRUE((*lax)->Insert({Value::Int(i), std::move(v)}, seq).ok());
    }
    for (storage::Table* table : db->Tables()) {
      table->set_provenance_tracking(true);
    }
  }

  /// Runs the case's statement on a fresh database.
  static ResultSet RunFresh(const std::string& sql, int threads,
                            const TupleVidSet* shipped) {
    Database db;
    Populate(&db);
    Executor exec(&db);
    ExecOptions options;
    options.threads = threads;
    options.query_id = 5;
    options.process_id = 9;
    options.shipped_vids = shipped;
    auto result = exec.Execute(sql, options);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : ResultSet{};
  }
};

TEST_P(LineageCollectionTest, AnswerIsPinnedAtEveryDop) {
  const CollectionCase& c = GetParam();
  for (int threads : {1, 8}) {
    ResultSet r = RunFresh(c.sql, threads, nullptr);
    EXPECT_FALSE(r.prov_tuples.empty());
    for (const ProvTupleRecord& rec : r.prov_tuples) {
      EXPECT_FALSE(rec.values.empty()) << rec.vid.ToString();
    }
    EXPECT_EQ(AnswerDigest(r), c.digest)
        << c.name << " at dop " << threads << ": got 0x" << std::hex
        << AnswerDigest(r);
  }
}

TEST_P(LineageCollectionTest, ShippedVersionsLoseOnlyTheirValues) {
  const CollectionCase& c = GetParam();
  const ResultSet full = RunFresh(c.sql, 1, nullptr);
  // Mark every other version as already held by the client.
  TupleVidSet shipped;
  for (size_t i = 0; i < full.prov_tuples.size(); i += 2) {
    shipped.insert(full.prov_tuples[i].vid);
  }
  for (int threads : {1, 8}) {
    SCOPED_TRACE(std::string(c.name) + " at dop " + std::to_string(threads));
    const ResultSet elided = RunFresh(c.sql, threads, &shipped);
    EXPECT_EQ(elided.rows, full.rows);
    EXPECT_EQ(elided.lineage, full.lineage);
    ASSERT_EQ(elided.prov_tuples.size(), full.prov_tuples.size());
    for (size_t i = 0; i < full.prov_tuples.size(); ++i) {
      const ProvTupleRecord& want = full.prov_tuples[i];
      const ProvTupleRecord& got = elided.prov_tuples[i];
      EXPECT_EQ(got.vid, want.vid);
      EXPECT_EQ(got.table, want.table);
      if (shipped.contains(want.vid)) {
        EXPECT_TRUE(got.values.empty()) << want.vid.ToString();
      } else {
        EXPECT_EQ(got.values, want.values) << want.vid.ToString();
      }
    }
    ASSERT_EQ(elided.dml.size(), full.dml.size());
  }
}

TEST(LineageCollectionFallbackTest, LaxCellSendsTheScanToTheRowPath) {
  // The strict-typing case below is only a row-path case if the columnar
  // scan really gives up on it.
  obs::Counter* fallbacks =
      obs::MetricsRegistry::Global().counter("exec.vectorized.fallbacks");
  Database db;
  auto lax = db.CreateTable(
      "lax", storage::Schema({{"id", storage::ValueType::kInt64},
                              {"v", storage::ValueType::kInt64}}));
  ASSERT_TRUE(lax.ok());
  const int64_t seq = db.NextStatementSeq();
  ASSERT_TRUE((*lax)->Insert({Value::Int(1), Value::Str("lax")}, seq).ok());
  ASSERT_TRUE((*lax)->Insert({Value::Int(2), Value::Int(6)}, seq).ok());
  Executor exec(&db);
  const int64_t before = fallbacks->Value();
  auto r = exec.Execute("PROVENANCE SELECT id FROM lax", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(fallbacks->Value(), before);
  ASSERT_EQ(r->prov_tuples.size(), 2u);
  EXPECT_EQ(r->prov_tuples[0].values[1].AsString(), "lax");
}

INSTANTIATE_TEST_SUITE_P(
    Statements, LineageCollectionTest,
    ::testing::Values(
        CollectionCase{"join",
                       "PROVENANCE SELECT i.id, o.w FROM items i JOIN other o "
                       "ON i.grp = o.grp WHERE i.val > 60 AND o.w < 12",
                       0xedb343bdcba63a7bULL},
        CollectionCase{"aggregate",
                       "PROVENANCE SELECT grp, COUNT(*), SUM(val) FROM items "
                       "WHERE tag IS NOT NULL GROUP BY grp",
                       0x9f146c54bab85aaaULL},
        CollectionCase{"ambient_subquery",
                       "PROVENANCE SELECT id FROM items WHERE val > (SELECT "
                       "MAX(w) FROM other WHERE grp < 4) AND grp = 3",
                       0xd84f05949deda60aULL},
        CollectionCase{"insert_select",
                       "PROVENANCE INSERT INTO sink SELECT id, val FROM items "
                       "WHERE grp = 2 AND val < 30",
                       0x7782e8ff3687cc06ULL},
        CollectionCase{"update_where_subquery",
                       "PROVENANCE UPDATE items SET tag = 'u' WHERE grp IN "
                       "(SELECT grp FROM other WHERE w > 10) AND val < 20",
                       0xc66e3e2f1fbca77fULL},
        CollectionCase{"row_fallback",
                       "PROVENANCE SELECT id, v FROM lax WHERE id % 5 = 0",
                       0x972cb10f479e6277ULL}),
    [](const ::testing::TestParamInfo<CollectionCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace ldv::exec

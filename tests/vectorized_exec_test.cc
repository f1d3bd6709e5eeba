#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/executor.h"
#include "exec/operators.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ldv::exec {
namespace {

using storage::Database;
using storage::Value;

/// Vectorized-vs-row differential: the columnar kernels (DESIGN.md §15)
/// must return bit-identical results — row values, row order, lineage
/// sets, provenance tuples — to the row-at-a-time engine, at any degree of
/// parallelism. The serial row engine is the reference; every query runs
/// through both engines at dop 1 and 8.
class VectorizedExecTest : public ::testing::Test {
 protected:
  void SetUp() override { exec_ = std::make_unique<Executor>(&db_); }

  ResultSet Run(const std::string& sql, int threads, bool vectorize) {
    ExecOptions options;
    options.threads = threads;
    options.vectorize = vectorize;
    options.query_id = ++next_query_id_;
    options.process_id = 7;
    auto result = exec_->Execute(sql, options);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : ResultSet{};
  }

  static void ExpectSameResults(const ResultSet& got, const ResultSet& want,
                                const std::string& sql,
                                const std::string& what) {
    ASSERT_EQ(got.rows.size(), want.rows.size()) << sql << " [" << what << "]";
    EXPECT_EQ(got.Fingerprint(), want.Fingerprint())
        << sql << " [" << what << "]";
    for (size_t i = 0; i < want.rows.size(); ++i) {
      EXPECT_EQ(got.rows[i], want.rows[i])
          << sql << " [" << what << "] row " << i;
    }
    ASSERT_EQ(got.lineage.size(), want.lineage.size())
        << sql << " [" << what << "]";
    for (size_t i = 0; i < want.lineage.size(); ++i) {
      EXPECT_EQ(got.lineage[i], want.lineage[i])
          << sql << " [" << what << "] lineage of row " << i;
    }
    ASSERT_EQ(got.prov_tuples.size(), want.prov_tuples.size())
        << sql << " [" << what << "]";
    for (size_t i = 0; i < want.prov_tuples.size(); ++i) {
      EXPECT_TRUE(!(got.prov_tuples[i].vid < want.prov_tuples[i].vid) &&
                  !(want.prov_tuples[i].vid < got.prov_tuples[i].vid))
          << sql << " [" << what << "] prov tuple " << i;
      EXPECT_EQ(got.prov_tuples[i].values, want.prov_tuples[i].values)
          << sql << " [" << what << "] prov tuple " << i;
    }
  }

  /// The serial row engine is the reference; vectorized (dop 1 and 8) and
  /// the parallel row engine must all match it exactly.
  void ExpectEnginesIdentical(const std::string& sql) {
    ResultSet reference = Run(sql, 1, /*vectorize=*/false);
    ExpectSameResults(Run(sql, 1, true), reference, sql, "vectorized dop=1");
    ExpectSameResults(Run(sql, 8, true), reference, sql, "vectorized dop=8");
    ExpectSameResults(Run(sql, 8, false), reference, sql, "row dop=8");
  }

  /// `n` rows spanning several morsels; values repeat so joins / GROUP BY /
  /// DISTINCT have real work, and NULLs appear in both a numeric and a text
  /// column so the kernels' null paths are exercised everywhere.
  void FillItems(size_t n, uint64_t seed) {
    (void)Run("CREATE TABLE items (id INT, grp INT, val DOUBLE, tag TEXT)", 1,
              false);
    Rng rng(seed);
    std::string insert;
    size_t pending = 0;
    for (size_t i = 0; i < n; ++i) {
      if (pending == 0) insert = "INSERT INTO items VALUES ";
      if (pending > 0) insert += ", ";
      std::string val = rng.Uniform(0, 10) == 0
                            ? "NULL"
                            : std::to_string(rng.Uniform(-500, 500)) + "." +
                                  std::to_string(rng.Uniform(0, 99));
      std::string tag = rng.Uniform(0, 13) == 0
                            ? "NULL"
                            : "'t" + std::to_string(rng.Uniform(0, 11)) + "'";
      insert += "(" + std::to_string(i) + ", " +
                std::to_string(rng.Uniform(0, 37)) + ", " + val + ", " + tag +
                ")";
      if (++pending == 512 || i + 1 == n) {
        (void)Run(insert, 1, false);
        pending = 0;
      }
    }
  }

  void FillGroups() {
    (void)Run("CREATE TABLE grps (gid INT, name TEXT, weight DOUBLE)", 1,
              false);
    std::string insert = "INSERT INTO grps VALUES ";
    for (int g = 0; g < 37; ++g) {
      if (g > 0) insert += ", ";
      insert += "(" + std::to_string(g) + ", 'g" + std::to_string(g % 7) +
                "', " + std::to_string(g) + ".5)";
    }
    (void)Run(insert, 1, false);
  }

  Database db_;
  std::unique_ptr<Executor> exec_;
  int64_t next_query_id_ = 0;
};

TEST_F(VectorizedExecTest, ScanFilterProjectKernels) {
  FillItems(3 * kMorselRows + 517, /*seed=*/101);
  ExpectEnginesIdentical("SELECT id, val * 2, grp + 1 FROM items");
  ExpectEnginesIdentical("SELECT id FROM items WHERE grp < 19 AND val > 0");
  ExpectEnginesIdentical("SELECT id FROM items WHERE grp = 5 OR tag = 't3'");
  ExpectEnginesIdentical(
      "SELECT id, val FROM items WHERE val BETWEEN -100 AND 250.5");
  ExpectEnginesIdentical("SELECT id FROM items WHERE grp IN (1, 4, 9, 16)");
  ExpectEnginesIdentical("SELECT id, tag FROM items WHERE tag LIKE 't1%'");
  ExpectEnginesIdentical("SELECT id FROM items WHERE val IS NULL");
  ExpectEnginesIdentical("SELECT id FROM items WHERE NOT (tag IS NOT NULL)");
  ExpectEnginesIdentical("SELECT id, -val, grp - id FROM items WHERE grp >= 30");
}

TEST_F(VectorizedExecTest, NullAndZeroArithmeticSemantics) {
  FillItems(2 * kMorselRows, /*seed=*/202);
  // Division by zero and modulo by zero are NULL, never an error; NULL
  // operands propagate — the kernels must reproduce this exactly.
  ExpectEnginesIdentical("SELECT id, val / grp FROM items");
  ExpectEnginesIdentical("SELECT id, id % grp FROM items");
  ExpectEnginesIdentical("SELECT id, val + val, val / 0 FROM items");
  ExpectEnginesIdentical("SELECT id FROM items WHERE val / grp > 2");
  ExpectEnginesIdentical("SELECT id, val FROM items WHERE NOT (val > 0)");
}

// SQL's three-valued logic, checked against the truth table itself rather
// than one engine against the other: false decides an AND and true decides
// an OR even against NULL, every other mix with NULL is NULL, and NOT
// passes NULL through. In WHERE, only TRUE qualifies.
TEST_F(VectorizedExecTest, ThreeValuedLogicTruthTable) {
  (void)Run("CREATE TABLE tv (a INT, b INT)", 1, false);
  const std::vector<std::string> kTruth = {"1", "0", "NULL"};
  for (const std::string& a : kTruth) {
    for (const std::string& b : kTruth) {
      (void)Run("INSERT INTO tv VALUES (" + a + ", " + b + ")", 1, false);
    }
  }
  // One line per (a, b) row in insertion order: a AND b, a OR b, NOT a,
  // NOT (a OR b).
  const std::vector<std::vector<std::string>> kWant = {
      {"1", "1", "0", "0"},          {"0", "1", "0", "0"},
      {"NULL", "1", "0", "0"},       {"0", "1", "1", "0"},
      {"0", "0", "1", "1"},          {"0", "NULL", "1", "NULL"},
      {"NULL", "1", "NULL", "0"},    {"0", "NULL", "NULL", "NULL"},
      {"NULL", "NULL", "NULL", "NULL"},
  };
  const std::string sql =
      "SELECT a AND b, a OR b, NOT a, NOT (a OR b) FROM tv";
  obs::Counter* fallbacks =
      obs::MetricsRegistry::Global().counter("exec.vectorized.fallbacks");
  for (bool vectorize : {false, true}) {
    const int64_t f0 = fallbacks->Value();
    ResultSet r = Run(sql, 1, vectorize);
    if (vectorize) {
      EXPECT_EQ(fallbacks->Value(), f0);  // the kernels ran
    }
    ASSERT_EQ(r.rows.size(), kWant.size());
    for (size_t i = 0; i < kWant.size(); ++i) {
      for (size_t c = 0; c < kWant[i].size(); ++c) {
        const Value& v = r.rows[i][c];
        EXPECT_EQ(v.is_null() ? "NULL" : v.ToText(), kWant[i][c])
            << "vectorize=" << vectorize << " row " << i << " column " << c;
      }
    }
    EXPECT_EQ(Run("SELECT a, b FROM tv WHERE NOT (a OR b)", 1, vectorize)
                  .rows.size(),
              1u);  // only (0, 0)
    EXPECT_EQ(Run("SELECT a FROM tv WHERE (a AND b) IS NULL", 1, vectorize)
                  .rows.size(),
              3u);
    EXPECT_EQ(Run("SELECT a FROM tv WHERE NOT (a AND b)", 1, vectorize)
                  .rows.size(),
              5u);
  }
}

TEST_F(VectorizedExecTest, JoinKernel) {
  FillItems(2 * kMorselRows + 91, /*seed=*/303);
  FillGroups();
  ExpectEnginesIdentical(
      "SELECT items.id, grps.name FROM items, grps WHERE items.grp = grps.gid");
  // Cross-type key (INT = DOUBLE): numeric coercion must match rows exactly.
  ExpectEnginesIdentical(
      "SELECT items.id FROM items, grps WHERE items.grp = grps.weight");
  // Multi-key join.
  ExpectEnginesIdentical(
      "SELECT a.id, b.id FROM items a, items b "
      "WHERE a.grp = b.grp AND a.tag = b.tag AND a.id < 200 AND b.id < 200");
  // LEFT JOIN and residual predicates take the row fallback; results must
  // still agree.
  ExpectEnginesIdentical(
      "SELECT items.id, grps.name FROM items LEFT JOIN grps "
      "ON items.grp = grps.gid AND grps.gid < 10 WHERE items.id < 300");
}

TEST_F(VectorizedExecTest, AggregateKernel) {
  FillItems(3 * kMorselRows + 33, /*seed=*/404);
  ExpectEnginesIdentical("SELECT count(*) FROM items");
  ExpectEnginesIdentical(
      "SELECT grp, count(*), count(val), sum(val), avg(val), min(val), "
      "max(val) FROM items GROUP BY grp");
  ExpectEnginesIdentical(
      "SELECT tag, min(tag), max(tag) FROM items GROUP BY tag");
  ExpectEnginesIdentical(
      "SELECT grp, sum(id) FROM items GROUP BY grp HAVING sum(id) > 100000");
  ExpectEnginesIdentical("SELECT sum(val) FROM items WHERE grp > 100");
  ExpectEnginesIdentical(
      "SELECT grp % 5, sum(val + 1) FROM items GROUP BY grp % 5");
}

TEST_F(VectorizedExecTest, DistinctKernel) {
  FillItems(2 * kMorselRows + 7, /*seed=*/505);
  ExpectEnginesIdentical("SELECT DISTINCT grp FROM items");
  ExpectEnginesIdentical("SELECT DISTINCT grp, tag FROM items");
  ExpectEnginesIdentical("SELECT DISTINCT val FROM items WHERE grp = 3");
}

TEST_F(VectorizedExecTest, OrderByRunsOverVectorizedChildren) {
  FillItems(2 * kMorselRows + 111, /*seed=*/606);
  ExpectEnginesIdentical("SELECT id, grp FROM items ORDER BY grp, id DESC");
  ExpectEnginesIdentical(
      "SELECT id, val FROM items WHERE grp < 12 ORDER BY val LIMIT 57");
  ExpectEnginesIdentical("SELECT grp, count(*) FROM items GROUP BY grp "
                         "ORDER BY 2 DESC, 1 LIMIT 5");
}

TEST_F(VectorizedExecTest, LimitStopsAtMorselBoundary) {
  FillItems(4 * kMorselRows, /*seed=*/707);
  // LIMIT without ORDER BY pushes a stop hint into the scan; both engines
  // must emit the same whole-morsel-prefix truncation.
  ExpectEnginesIdentical("SELECT id FROM items LIMIT 5");
  ExpectEnginesIdentical("SELECT id, tag FROM items WHERE grp = 9 LIMIT 10");
  ExpectEnginesIdentical("SELECT id FROM items LIMIT 0");
  // A limit larger than the table.
  ExpectEnginesIdentical("SELECT id FROM items LIMIT 999999");
  // Lineage-tracked scans must ignore the hint (they stamp every row they
  // read): provenance output must equal the row engine's.
  ExpectEnginesIdentical("PROVENANCE SELECT id FROM items LIMIT 5");
}

TEST_F(VectorizedExecTest, LineageAndProvenance) {
  FillItems(2 * kMorselRows + 201, /*seed=*/808);
  FillGroups();
  ExpectEnginesIdentical("PROVENANCE SELECT id FROM items WHERE grp = 5");
  ExpectEnginesIdentical(
      "PROVENANCE SELECT grp, sum(val) FROM items WHERE val > 0 GROUP BY grp");
  ExpectEnginesIdentical("PROVENANCE SELECT DISTINCT tag FROM items");
  ExpectEnginesIdentical(
      "PROVENANCE SELECT items.id, grps.name FROM items, grps "
      "WHERE items.grp = grps.gid AND items.id < 500");
}

TEST_F(VectorizedExecTest, IndexProbeFallsBackToRowPath) {
  FillItems(2 * kMorselRows, /*seed=*/909);
  (void)Run("CREATE INDEX idx_items_grp ON items (grp)", 1, false);
  ExpectEnginesIdentical("SELECT id, val FROM items WHERE grp = 17");
  ExpectEnginesIdentical("PROVENANCE SELECT id FROM items WHERE grp = 17");
}

TEST_F(VectorizedExecTest, RandomizedDifferentialFuzz) {
  FillItems(3 * kMorselRows + 977, /*seed=*/42);
  FillGroups();
  const std::vector<std::string> filters = {
      "",
      " WHERE grp < 20",
      " WHERE val > 0 AND grp % 3 = 1",
      " WHERE tag LIKE 't%' OR val IS NULL",
      " WHERE val BETWEEN -50 AND 300 AND id % 7 != 2",
      " WHERE grp IN (2, 3, 5, 7, 11, 13) AND NOT (val < 0)",
  };
  Rng rng(1234);
  for (int round = 0; round < 24; ++round) {
    const std::string& filter = filters[rng.Uniform(0, filters.size() - 1)];
    switch (rng.Uniform(0, 4)) {
      case 0:
        ExpectEnginesIdentical("SELECT id, val, grp * 2 FROM items" + filter);
        break;
      case 1:
        ExpectEnginesIdentical("SELECT grp, count(*), sum(val), min(tag) "
                               "FROM items" +
                               filter + " GROUP BY grp");
        break;
      case 2:
        ExpectEnginesIdentical("SELECT DISTINCT grp, tag FROM items" + filter);
        break;
      case 3:
        ExpectEnginesIdentical(
            "SELECT items.id, grps.name FROM items, grps "
            "WHERE items.grp = grps.gid" +
            (filter.empty() ? "" : " AND" + filter.substr(6)));
        break;
      case 4:
        ExpectEnginesIdentical("PROVENANCE SELECT id, tag FROM items" +
                               filter);
        break;
    }
  }
}

TEST_F(VectorizedExecTest, ExplainAnalyzeShowsBatchesAndRate) {
  FillItems(2 * kMorselRows, /*seed=*/111);
  ResultSet vec = Run("EXPLAIN ANALYZE SELECT id FROM items WHERE grp < 9", 1,
                      /*vectorize=*/true);
  std::string vec_text;
  for (const auto& row : vec.rows) vec_text += row[0].AsString() + "\n";
  EXPECT_NE(vec_text.find("[vectorized]"), std::string::npos) << vec_text;
  EXPECT_NE(vec_text.find("batches="), std::string::npos) << vec_text;
  EXPECT_NE(vec_text.find("rate="), std::string::npos) << vec_text;

  // ORDER BY has no columnar sort kernel: the SortLimit node reports itself
  // as a row fallback while the scan below it stays vectorized.
  ResultSet sorted = Run(
      "EXPLAIN ANALYZE SELECT id, val FROM items ORDER BY val LIMIT 3", 1, true);
  std::string sorted_text;
  for (const auto& row : sorted.rows) sorted_text += row[0].AsString() + "\n";
  EXPECT_NE(sorted_text.find("[row-fallback]"), std::string::npos)
      << sorted_text;
  EXPECT_NE(sorted_text.find("[vectorized]"), std::string::npos) << sorted_text;

  // The row engine reports neither marker.
  ResultSet row = Run("EXPLAIN ANALYZE SELECT id FROM items WHERE grp < 9", 1,
                      /*vectorize=*/false);
  std::string row_text;
  for (const auto& r : row.rows) row_text += r[0].AsString() + "\n";
  EXPECT_EQ(row_text.find("[vectorized]"), std::string::npos) << row_text;
  EXPECT_EQ(row_text.find("batches="), std::string::npos) << row_text;
}

TEST_F(VectorizedExecTest, MetricsCountQueriesBatchesAndFallbacks) {
  FillItems(2 * kMorselRows, /*seed=*/222);
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* queries = registry.counter("exec.vectorized.queries");
  obs::Counter* batches = registry.counter("exec.vectorized.batches");
  obs::Counter* fallbacks = registry.counter("exec.vectorized.fallbacks");

  const int64_t q0 = queries->Value();
  const int64_t b0 = batches->Value();
  (void)Run("SELECT id FROM items WHERE grp < 9", 1, true);
  EXPECT_EQ(queries->Value(), q0 + 1);
  EXPECT_GT(batches->Value(), b0);

  const int64_t f0 = fallbacks->Value();
  (void)Run("SELECT id, val FROM items ORDER BY val LIMIT 3", 1, true);
  EXPECT_GT(fallbacks->Value(), f0);  // the SortLimit node

  // The row engine never touches the vectorized counters.
  const int64_t q1 = queries->Value();
  (void)Run("SELECT id FROM items WHERE grp < 9", 1, false);
  EXPECT_EQ(queries->Value(), q1);
}

}  // namespace
}  // namespace ldv::exec

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "storage/database.h"
#include "storage/persistence.h"
#include "util/fsutil.h"
#include "util/rng.h"

namespace ldv::storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Value::Int(2).AsDouble(), 2.0);  // widening
  EXPECT_EQ(Value::Str("x").AsString(), "x");
  EXPECT_TRUE(Value::Int(1).IsTruthy());
  EXPECT_FALSE(Value::Int(0).IsTruthy());
  EXPECT_FALSE(Value::Null().IsTruthy());
}

TEST(ValueTest, CompareWithCoercion) {
  EXPECT_EQ(*Value::Int(1).Compare(Value::Int(2)), -1);
  EXPECT_EQ(*Value::Int(2).Compare(Value::Real(2.0)), 0);
  EXPECT_EQ(*Value::Real(3.5).Compare(Value::Int(3)), 1);
  EXPECT_EQ(*Value::Str("abc").Compare(Value::Str("abd")), -1);
  EXPECT_FALSE(Value::Str("1").Compare(Value::Int(1)).ok());
  EXPECT_EQ(*Value::Null().Compare(Value::Int(0)), -1);  // NULLs sort first
}

TEST(ValueTest, TextRoundTrip) {
  EXPECT_EQ(Value::Int(42).ToText(), "42");
  EXPECT_EQ(Value::Str("1996-01-02").ToText(), "1996-01-02");
  auto v = Value::FromText(ValueType::kInt64, "42");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsInt(), 42);
  auto d = Value::FromText(ValueType::kDouble, "2.25");
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d->AsDouble(), 2.25);
  // Empty numeric text parses to NULL (CSV convention).
  EXPECT_TRUE(Value::FromText(ValueType::kInt64, "")->is_null());
  EXPECT_EQ(Value::FromText(ValueType::kString, "")->AsString(), "");
  EXPECT_FALSE(Value::FromText(ValueType::kInt64, "zz").ok());
}

TEST(ValueTest, SerializeRoundTrip) {
  BufferWriter w;
  Value::Null().Serialize(&w);
  Value::Int(-9).Serialize(&w);
  Value::Real(1.5).Serialize(&w);
  Value::Str("hello").Serialize(&w);
  BufferReader r(w.data());
  EXPECT_TRUE(Value::Deserialize(&r)->is_null());
  EXPECT_EQ(Value::Deserialize(&r)->AsInt(), -9);
  EXPECT_DOUBLE_EQ(Value::Deserialize(&r)->AsDouble(), 1.5);
  EXPECT_EQ(Value::Deserialize(&r)->AsString(), "hello");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::Str("a").Hash(), Value::Str("a").Hash());
  EXPECT_NE(Value::Int(7), Value::Real(7.0));  // structural equality
}

TEST(SchemaTest, LookupAndAddColumn) {
  Schema s({{"id", ValueType::kInt64}, {"name", ValueType::kString}});
  EXPECT_EQ(s.num_columns(), 2);
  EXPECT_EQ(s.IndexOf("NAME"), 1);  // case-insensitive
  EXPECT_EQ(s.IndexOf("missing"), -1);
  EXPECT_TRUE(s.AddColumn({"price", ValueType::kDouble}).ok());
  EXPECT_FALSE(s.AddColumn({"ID", ValueType::kInt64}).ok());
  EXPECT_EQ(s.ToString(), "id INT, name TEXT, price DOUBLE");
}

TEST(SchemaTest, ProvPseudoColumns) {
  EXPECT_TRUE(IsProvPseudoColumn("prov_rowid"));
  EXPECT_TRUE(IsProvPseudoColumn("PROV_V"));
  EXPECT_TRUE(IsProvPseudoColumn("prov_usedby"));
  EXPECT_TRUE(IsProvPseudoColumn("prov_p"));
  EXPECT_FALSE(IsProvPseudoColumn("rowid"));
}

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : table_(1, "t", Schema({{"id", ValueType::kInt64},
                               {"name", ValueType::kString}})) {}
  Table table_;
};

TEST_F(TableTest, InsertFindDelete) {
  auto r1 = table_.Insert({Value::Int(1), Value::Str("a")}, 10);
  ASSERT_TRUE(r1.ok());
  auto r2 = table_.Insert({Value::Int(2), Value::Str("b")}, 10);
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(*r1, *r2);
  EXPECT_EQ(table_.live_row_count(), 2);

  const RowVersion* row = table_.Find(*r1);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->values[1].AsString(), "a");
  EXPECT_EQ(row->version, 10);

  ASSERT_TRUE(table_.Delete(*r1, 11).ok());
  EXPECT_EQ(table_.Find(*r1), nullptr);
  EXPECT_EQ(table_.live_row_count(), 1);
  EXPECT_FALSE(table_.Delete(*r1, 12).ok());  // already gone
}

TEST_F(TableTest, InsertArityChecked) {
  EXPECT_FALSE(table_.Insert({Value::Int(1)}, 1).ok());
}

TEST_F(TableTest, UpdateArchivesOldVersionWhenTracking) {
  table_.set_provenance_tracking(true);
  auto rid = table_.Insert({Value::Int(1), Value::Str("old")}, 5);
  ASSERT_TRUE(rid.ok());
  ASSERT_TRUE(table_.Update(*rid, {Value::Int(1), Value::Str("new")}, 6).ok());
  const RowVersion* live = table_.Find(*rid);
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->values[1].AsString(), "new");
  EXPECT_EQ(live->version, 6);
  ASSERT_EQ(table_.archive().size(), 1u);
  EXPECT_EQ(table_.archive()[0].values[1].AsString(), "old");

  // FindVersion resolves both the live and the archived version.
  EXPECT_NE(table_.FindVersion(*rid, 6), nullptr);
  const RowVersion* old_version = table_.FindVersion(*rid, 5);
  ASSERT_NE(old_version, nullptr);
  EXPECT_EQ(old_version->values[1].AsString(), "old");
  EXPECT_EQ(table_.FindVersion(*rid, 99), nullptr);
}

// The hash index on a low-cardinality column (21 values, 100 rows each)
// stays exact while every row is updated to another value and then
// deleted: lookups return exactly the live matching rowids, ascending.
TEST(TableIndexTest, LowCardinalityIndexExactUnderUpdateAndDelete) {
  Table table(1, "t", Schema({{"id", ValueType::kInt64},
                              {"k", ValueType::kInt64}}));
  constexpr int kValues = 21;
  constexpr int kRows = kValues * 100;
  std::map<RowId, int64_t> model;  // live rowid -> k
  for (int i = 0; i < kRows; ++i) {
    auto rid = table.Insert({Value::Int(i), Value::Int(i % kValues)}, 1);
    ASSERT_TRUE(rid.ok());
    model[*rid] = i % kValues;
  }
  ASSERT_TRUE(table.CreateIndex(1).ok());
  auto expect_exact = [&](const std::string& when) {
    for (int64_t v = 0; v < kValues; ++v) {
      std::vector<RowId> want;
      for (const auto& [rid, k] : model) {
        if (k == v) want.push_back(rid);
      }
      EXPECT_EQ(table.IndexLookup(1, Value::Int(v)), want)
          << "k = " << v << " " << when;
    }
  };
  expect_exact("after build");

  std::vector<RowId> rowids;
  for (const auto& [rid, k] : model) rowids.push_back(rid);
  Rng rng(21);
  for (size_t i = rowids.size(); i > 1; --i) {
    const int64_t j = rng.Uniform(0, static_cast<int64_t>(i) - 1);
    std::swap(rowids[i - 1], rowids[static_cast<size_t>(j)]);
  }
  // Every row moves to another value, then back to its first one: a
  // removal that missed its entry would now surface the rowid twice.
  const std::map<RowId, int64_t> first = model;
  int64_t seq = 2;
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < rowids.size(); ++i) {
      const RowId rid = rowids[i];
      const int64_t k =
          pass == 0 ? (first.at(rid) + 1 + static_cast<int64_t>(i % 5)) %
                          kValues
                    : first.at(rid);
      ASSERT_TRUE(
          table.Update(rid, {Value::Int(rid), Value::Int(k)}, seq++).ok());
      model[rid] = k;
      if (i % 300 == 0) {
        expect_exact("after update " + std::to_string(i) + " of pass " +
                     std::to_string(pass));
      }
    }
  }
  expect_exact("after updating every row");
  for (size_t i = 0; i < rowids.size(); ++i) {
    ASSERT_TRUE(table.Delete(rowids[i], seq++).ok());
    model.erase(rowids[i]);
    if (i % 300 == 0) expect_exact("after delete " + std::to_string(i));
  }
  expect_exact("after deleting every row");
}

TEST_F(TableTest, NoArchiveWithoutTracking) {
  auto rid = table_.Insert({Value::Int(1), Value::Str("old")}, 5);
  ASSERT_TRUE(table_.Update(*rid, {Value::Int(1), Value::Str("new")}, 6).ok());
  EXPECT_TRUE(table_.archive().empty());
}

TEST_F(TableTest, AddColumnBackfills) {
  auto rid = table_.Insert({Value::Int(1), Value::Str("a")}, 1);
  ASSERT_TRUE(
      table_.AddColumn({"extra", ValueType::kDouble}, Value::Null()).ok());
  const RowVersion* row = table_.Find(*rid);
  ASSERT_EQ(row->values.size(), 3u);
  EXPECT_TRUE(row->values[2].is_null());
}

TEST_F(TableTest, RestoreRowKeepsIdentity) {
  RowVersion row;
  row.rowid = 42;
  row.version = 7;
  row.values = {Value::Int(1), Value::Str("x")};
  ASSERT_TRUE(table_.RestoreRow(row).ok());
  EXPECT_FALSE(table_.RestoreRow(row).ok());  // duplicate rowid
  const RowVersion* found = table_.Find(42);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->version, 7);
  // Next insert gets a fresh rowid above the restored one.
  auto rid = table_.Insert({Value::Int(2), Value::Str("y")}, 8);
  EXPECT_GT(*rid, 42);
}

TEST(DatabaseTest, CatalogOperations) {
  Database db;
  auto t1 = db.CreateTable("orders", Schema({{"id", ValueType::kInt64}}));
  ASSERT_TRUE(t1.ok());
  EXPECT_FALSE(db.CreateTable("ORDERS", Schema{}).ok());
  EXPECT_TRUE(db.CreateTable("orders", Schema{}, true).ok());
  EXPECT_EQ(db.FindTable("Orders"), *t1);
  EXPECT_EQ(db.FindTableById((*t1)->id()), *t1);
  EXPECT_EQ(db.FindTable("none"), nullptr);
  EXPECT_EQ(db.TableNames(), std::vector<std::string>{"orders"});
  EXPECT_TRUE(db.DropTable("orders").ok());
  EXPECT_FALSE(db.DropTable("orders").ok());
}

TEST(DatabaseTest, StatementSeqMonotone) {
  Database db;
  EXPECT_EQ(db.NextStatementSeq(), 1);
  EXPECT_EQ(db.NextStatementSeq(), 2);
  EXPECT_EQ(db.current_statement_seq(), 2);
}

TEST(PersistenceTest, SaveLoadRoundTrip) {
  Database db;
  auto table = db.CreateTable(
      "t", Schema({{"id", ValueType::kInt64},
                   {"price", ValueType::kDouble},
                   {"name", ValueType::kString}}));
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*table)
                    ->Insert({Value::Int(i), Value::Real(i * 0.5),
                              Value::Str("row" + std::to_string(i))},
                             db.NextStatementSeq())
                    .ok());
  }
  ASSERT_TRUE((*table)->Delete(5, db.NextStatementSeq()).ok());

  auto dir = MakeTempDir("ldv_persist_");
  ASSERT_TRUE(dir.ok());
  ASSERT_TRUE(SaveDatabase(db, *dir).ok());

  Database restored;
  ASSERT_TRUE(LoadDatabase(&restored, *dir).ok());
  Table* rt = restored.FindTable("t");
  ASSERT_NE(rt, nullptr);
  EXPECT_EQ(rt->live_row_count(), 99);
  EXPECT_EQ(rt->schema().ToString(), (*table)->schema().ToString());
  const RowVersion* row = rt->Find(10);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->values[2].AsString(), "row9");  // rowids start at 1
  EXPECT_EQ(restored.current_statement_seq(), db.current_statement_seq());
  ASSERT_TRUE(RemoveAll(*dir).ok());
}

}  // namespace
}  // namespace ldv::storage

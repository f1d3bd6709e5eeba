#include <gtest/gtest.h>

#include <functional>
#include <tuple>

#include "common/clock.h"
#include "exec/executor.h"
#include "exec/reenactment.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "util/fsutil.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ldv::exec {
namespace {

using storage::Database;
using storage::RowVersion;
using storage::Table;
using storage::Tuple;
using storage::TupleVid;
using storage::Value;
using storage::ValueType;

class ExecDmlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    exec_ = std::make_unique<Executor>(&db_);
    Run("CREATE TABLE t (id INT, qty INT, note TEXT)");
    Run("INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c')");
    db_.FindTable("t")->set_provenance_tracking(true);
  }

  ResultSet Run(const std::string& sql, bool provenance = false) {
    std::string full = provenance ? "PROVENANCE " + sql : sql;
    auto result = exec_->Execute(full, {});
    EXPECT_TRUE(result.ok()) << full << " -> " << result.status().ToString();
    return result.ok() ? std::move(result).value() : ResultSet{};
  }

  Database db_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExecDmlTest, InsertReportsCreatedVersions) {
  ResultSet r = Run("INSERT INTO t VALUES (4, 40, 'd'), (5, 50, 'e')");
  EXPECT_EQ(r.affected, 2);
  ASSERT_EQ(r.dml.size(), 2u);
  EXPECT_EQ(r.dml[0].kind, DmlRecord::Kind::kInserted);
  EXPECT_EQ(r.dml[0].table, "t");
  EXPECT_FALSE(r.dml[0].has_prior);
  // Both rows carry the same statement sequence (version stamp).
  EXPECT_EQ(r.dml[0].vid.version, r.dml[1].vid.version);
  EXPECT_NE(r.dml[0].vid.rowid, r.dml[1].vid.rowid);
}

TEST_F(ExecDmlTest, InsertWithColumnListAndDefaults) {
  ResultSet r = Run("INSERT INTO t (id, note) VALUES (9, 'z')");
  EXPECT_EQ(r.affected, 1);
  ResultSet check = Run("SELECT qty FROM t WHERE id = 9");
  EXPECT_TRUE(check.rows[0][0].is_null());
}

TEST_F(ExecDmlTest, InsertCoercesIntToDouble) {
  Run("CREATE TABLE d (x DOUBLE)");
  Run("INSERT INTO d VALUES (3)");
  ResultSet r = Run("SELECT x FROM d");
  EXPECT_DOUBLE_EQ(r.rows[0][0].AsDouble(), 3.0);
}

TEST_F(ExecDmlTest, InsertSelectCopiesRows) {
  Run("CREATE TABLE t2 (id INT, qty INT, note TEXT)");
  ResultSet r = Run("INSERT INTO t2 SELECT id, qty, note FROM t WHERE qty > 15");
  EXPECT_EQ(r.affected, 2);
  EXPECT_EQ(Run("SELECT * FROM t2").rows.size(), 2u);
}

TEST_F(ExecDmlTest, UpdateCreatesNewVersionAndArchivesOld) {
  ResultSet r = Run("UPDATE t SET qty = qty + 5 WHERE id = 2", true);
  EXPECT_EQ(r.affected, 1);
  ASSERT_EQ(r.dml.size(), 1u);
  EXPECT_EQ(r.dml[0].kind, DmlRecord::Kind::kUpdated);
  ASSERT_TRUE(r.dml[0].has_prior);
  EXPECT_EQ(r.dml[0].vid.rowid, r.dml[0].prior.rowid);
  EXPECT_GT(r.dml[0].vid.version, r.dml[0].prior.version);

  // Reenactment: the prior version's values are returned as provenance.
  ASSERT_EQ(r.prov_tuples.size(), 1u);
  EXPECT_EQ(r.prov_tuples[0].values[1].AsInt(), 20);
  EXPECT_EQ(r.prov_tuples[0].vid, r.dml[0].prior);

  EXPECT_EQ(Run("SELECT qty FROM t WHERE id = 2").rows[0][0].AsInt(), 25);
  Table* table = db_.FindTable("t");
  ASSERT_EQ(table->archive().size(), 1u);
  EXPECT_EQ(table->archive()[0].values[1].AsInt(), 20);
}

TEST_F(ExecDmlTest, UpdateWithoutWhereTouchesAllRows) {
  ResultSet r = Run("UPDATE t SET note = 'all'");
  EXPECT_EQ(r.affected, 3);
  EXPECT_EQ(Run("SELECT count(*) FROM t WHERE note = 'all'").rows[0][0].AsInt(),
            3);
}

TEST_F(ExecDmlTest, UpdateSetFromOldValuesAcrossColumns) {
  Run("UPDATE t SET qty = id * 100, note = note || '!' WHERE id = 3");
  ResultSet r = Run("SELECT qty, note FROM t WHERE id = 3");
  EXPECT_EQ(r.rows[0][0].AsInt(), 300);
  EXPECT_EQ(r.rows[0][1].AsString(), "c!");
}

TEST_F(ExecDmlTest, DeleteReportsRemovedVersions) {
  ResultSet r = Run("DELETE FROM t WHERE qty >= 20", true);
  EXPECT_EQ(r.affected, 2);
  ASSERT_EQ(r.dml.size(), 2u);
  EXPECT_EQ(r.dml[0].kind, DmlRecord::Kind::kDeleted);
  EXPECT_EQ(r.prov_tuples.size(), 2u);
  EXPECT_EQ(Run("SELECT count(*) FROM t").rows[0][0].AsInt(), 1);
  EXPECT_EQ(db_.FindTable("t")->archive().size(), 2u);
}

TEST_F(ExecDmlTest, UpdatedTupleGetsFreshVersionVisibleInProvColumns) {
  ResultSet before = Run("SELECT prov_v FROM t WHERE id = 1");
  Run("UPDATE t SET qty = 11 WHERE id = 1");
  ResultSet after = Run("SELECT prov_v FROM t WHERE id = 1");
  EXPECT_GT(after.rows[0][0].AsInt(), before.rows[0][0].AsInt());
}

TEST_F(ExecDmlTest, AlterTableAddColumn) {
  Run("ALTER TABLE t ADD COLUMN extra DOUBLE");
  ResultSet r = Run("SELECT extra FROM t WHERE id = 1");
  EXPECT_TRUE(r.rows[0][0].is_null());
  Run("UPDATE t SET extra = 1.5 WHERE id = 1");
  EXPECT_DOUBLE_EQ(
      Run("SELECT extra FROM t WHERE id = 1").rows[0][0].AsDouble(), 1.5);
}

TEST_F(ExecDmlTest, CopyFromAndToCsv) {
  auto dir = MakeTempDir("ldv_copy_");
  ASSERT_TRUE(dir.ok());
  std::string out_path = JoinPath(*dir, "dump.csv");
  ResultSet dumped = Run("COPY t TO '" + out_path + "'");
  EXPECT_EQ(dumped.affected, 3);

  Run("CREATE TABLE t_copy (id INT, qty INT, note TEXT)");
  ResultSet loaded = Run("COPY t_copy FROM '" + out_path + "'");
  EXPECT_EQ(loaded.affected, 3);
  EXPECT_EQ(Run("SELECT count(*) FROM t_copy").rows[0][0].AsInt(), 3);
  EXPECT_EQ(Run("SELECT note FROM t_copy WHERE id = 2").rows[0][0].AsString(),
            "b");
  ASSERT_TRUE(RemoveAll(*dir).ok());
}

TEST_F(ExecDmlTest, TransactionsAreAcceptedNoOps) {
  Run("BEGIN");
  Run("INSERT INTO t VALUES (7, 70, 'g')");
  Run("COMMIT");
  EXPECT_EQ(Run("SELECT count(*) FROM t").rows[0][0].AsInt(), 4);
}

TEST_F(ExecDmlTest, DmlErrors) {
  EXPECT_FALSE(exec_->Execute("INSERT INTO nope VALUES (1)", {}).ok());
  EXPECT_FALSE(exec_->Execute("INSERT INTO t VALUES (1)", {}).ok());
  EXPECT_FALSE(exec_->Execute("UPDATE t SET missing = 1", {}).ok());
  EXPECT_FALSE(exec_->Execute("DELETE FROM nope", {}).ok());
  EXPECT_FALSE(
      exec_->Execute("INSERT INTO t (id, nope) VALUES (1, 2)", {}).ok());
  EXPECT_FALSE(exec_->Execute("COPY t FROM '/does/not/exist.csv'", {}).ok());
}

TEST_F(ExecDmlTest, CreateTableIfNotExists) {
  Run("CREATE TABLE IF NOT EXISTS t (id INT)");  // exists, no error
  EXPECT_FALSE(exec_->Execute("CREATE TABLE t (id INT)", {}).ok());
  Run("DROP TABLE IF EXISTS never_there");
  EXPECT_FALSE(exec_->Execute("DROP TABLE never_there", {}).ok());
}

// ---------------------------------------------------------------------------
// Randomized UPDATE/DELETE against an independent oracle. The test keeps its
// own model of the table, evaluates each predicate it generates over that
// model in plain C++ (no engine code), and checks the
// affected count, the DML records, the provenance tuples and their order,
// the version archive and the table's rows after every statement.
// ---------------------------------------------------------------------------

enum class Truth { kFalse, kTrue, kNull };

Truth FromBool(bool b) { return b ? Truth::kTrue : Truth::kFalse; }

// SQL's three-valued connectives: NOT passes NULL through; false decides an
// AND and true decides an OR even against NULL; any other mix with NULL is
// NULL.
Truth Not(Truth t) {
  if (t == Truth::kNull) return t;
  return t == Truth::kTrue ? Truth::kFalse : Truth::kTrue;
}

Truth And(Truth a, Truth b) {
  if (a == Truth::kFalse || b == Truth::kFalse) return Truth::kFalse;
  if (a == Truth::kNull || b == Truth::kNull) return Truth::kNull;
  return Truth::kTrue;
}

Truth Or(Truth a, Truth b) {
  if (a == Truth::kTrue || b == Truth::kTrue) return Truth::kTrue;
  if (a == Truth::kNull || b == Truth::kNull) return Truth::kNull;
  return Truth::kFalse;
}

/// The test's copy of one row slot of `r (id INT, k INT, x DOUBLE, note
/// TEXT)`.
struct ModelRow {
  int64_t rowid = 0;
  int64_t version = 0;
  Tuple values;
  bool deleted = false;
};

/// A generated predicate: its SQL text and its truth on a model row.
struct Pred {
  std::string sql;
  std::function<Truth(const ModelRow&)> eval;
};

constexpr int kColId = 0;
constexpr int kColK = 1;
constexpr int kColX = 2;
constexpr int kColNote = 3;

double Numeric(const Value& v) {
  return v.type() == ValueType::kInt64 ? static_cast<double>(v.AsInt())
                                       : v.AsDouble();
}

bool ApplyOp(const std::string& op, double a, double b) {
  if (op == "=") return a == b;
  if (op == "<>") return a != b;
  if (op == "<") return a < b;
  if (op == "<=") return a <= b;
  if (op == ">") return a > b;
  return a >= b;
}

/// `column op literal` over a numeric cell (NULL cell: NULL).
Truth CompareCell(const Value& cell, const std::string& op, double literal) {
  if (cell.is_null()) return Truth::kNull;
  return FromBool(ApplyOp(op, Numeric(cell), literal));
}

class PredicateGen {
 public:
  PredicateGen(Rng* rng, std::string qualifier, int64_t max_id,
               int64_t max_version)
      : rng_(rng),
        q_(std::move(qualifier)),
        max_id_(max_id),
        max_version_(max_version) {}

  Pred Any(int depth) {
    if (depth <= 0 || rng_->Bernoulli(0.4)) return Atom();
    switch (rng_->Uniform(0, 2)) {
      case 0: {
        Pred a = Any(depth - 1);
        Pred b = Any(depth - 1);
        return {"(" + a.sql + " AND " + b.sql + ")",
                [a, b](const ModelRow& r) {
                  return And(a.eval(r), b.eval(r));
                }};
      }
      case 1: {
        Pred a = Any(depth - 1);
        Pred b = Any(depth - 1);
        return {"(" + a.sql + " OR " + b.sql + ")",
                [a, b](const ModelRow& r) {
                  return Or(a.eval(r), b.eval(r));
                }};
      }
      default: {
        Pred a = Any(depth - 1);
        return {"NOT (" + a.sql + ")",
                [a](const ModelRow& r) { return Not(a.eval(r)); }};
      }
    }
  }

  /// An equality on the indexed id column (literal on either side), the
  /// conjunct the planner turns into an index probe.
  Pred IdEquals() {
    const int64_t id = rng_->Uniform(1, max_id_);
    std::string col = q_ + "id";
    return {rng_->Bernoulli(0.5) ? StrFormat("%s = %lld", col.c_str(),
                                             static_cast<long long>(id))
                                 : StrFormat("%lld = %s",
                                             static_cast<long long>(id),
                                             col.c_str()),
            [id](const ModelRow& r) {
              return CompareCell(r.values[kColId], "=",
                                 static_cast<double>(id));
            }};
  }

  /// A narrow id range, so DELETEs thin the table out slowly.
  Pred IdRange() {
    const int64_t lo = rng_->Uniform(1, max_id_);
    const int64_t hi = lo + rng_->Uniform(0, 60);
    return {StrFormat("%sid BETWEEN %lld AND %lld", q_.c_str(),
                      static_cast<long long>(lo), static_cast<long long>(hi)),
            [lo, hi](const ModelRow& r) {
              return And(CompareCell(r.values[kColId], ">=",
                                     static_cast<double>(lo)),
                         CompareCell(r.values[kColId], "<=",
                                     static_cast<double>(hi)));
            }};
  }

 private:
  std::string Op() {
    static const char* const kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    return kOps[rng_->Uniform(0, 5)];
  }

  Pred Atom() {
    switch (rng_->Uniform(0, 8)) {
      case 0: {  // INT column vs literal
        const std::string op = Op();
        const int64_t c = rng_->Uniform(-1, 21);
        return {StrFormat("%sk %s %lld", q_.c_str(), op.c_str(),
                          static_cast<long long>(c)),
                [op, c](const ModelRow& r) {
                  return CompareCell(r.values[kColK], op,
                                     static_cast<double>(c));
                }};
      }
      case 1: {  // DOUBLE column vs literal
        const std::string op = Op();
        const double c = static_cast<double>(rng_->Uniform(0, 60)) + 0.5;
        return {StrFormat("%sx %s %.1f", q_.c_str(), op.c_str(), c),
                [op, c](const ModelRow& r) {
                  return CompareCell(r.values[kColX], op, c);
                }};
      }
      case 2: {  // TEXT equality
        const std::string note = "n" + std::to_string(rng_->Uniform(0, 5));
        return {q_ + "note = '" + note + "'", [note](const ModelRow& r) {
                  const Value& v = r.values[kColNote];
                  if (v.is_null()) return Truth::kNull;
                  return FromBool(v.AsString() == note);
                }};
      }
      case 3: {  // IS [NOT] NULL
        const int col = static_cast<int>(rng_->Uniform(1, 3));
        static const char* const kNames[] = {"id", "k", "x", "note"};
        const bool negated = rng_->Bernoulli(0.5);
        return {q_ + kNames[col] + (negated ? " IS NOT NULL" : " IS NULL"),
                [col, negated](const ModelRow& r) {
                  return FromBool(
                      r.values[static_cast<size_t>(col)].is_null() !=
                      negated);
                }};
      }
      case 4: {  // prov_rowid
        const int64_t m = rng_->Uniform(0, 6);
        return {StrFormat("%sprov_rowid %% 7 = %lld", q_.c_str(),
                          static_cast<long long>(m)),
                [m](const ModelRow& r) { return FromBool(r.rowid % 7 == m); }};
      }
      case 5: {  // prov_v
        const std::string op = Op();
        const int64_t v = rng_->Uniform(1, max_version_);
        return {StrFormat("%sprov_v %s %lld", q_.c_str(), op.c_str(),
                          static_cast<long long>(v)),
                [op, v](const ModelRow& r) {
                  return FromBool(ApplyOp(op, static_cast<double>(r.version),
                                          static_cast<double>(v)));
                }};
      }
      case 6: {  // string concatenation: no columnar kernel
        const std::string note = "n" + std::to_string(rng_->Uniform(0, 5));
        return {q_ + "note || '!' = '" + note + "!'",
                [note](const ModelRow& r) {
                  const Value& v = r.values[kColNote];
                  if (v.is_null()) return Truth::kNull;
                  return FromBool(v.AsString() == note);
                }};
      }
      case 7: {  // IN list over the INT column
        const int64_t a = rng_->Uniform(0, 20);
        const int64_t b = rng_->Uniform(0, 20);
        return {StrFormat("%sk IN (%lld, %lld)", q_.c_str(),
                          static_cast<long long>(a),
                          static_cast<long long>(b)),
                [a, b](const ModelRow& r) {
                  const Value& v = r.values[kColK];
                  if (v.is_null()) return Truth::kNull;
                  const double n = Numeric(v);
                  return FromBool(n == static_cast<double>(a) ||
                                  n == static_cast<double>(b));
                }};
      }
      default:
        return IdEquals();
    }
  }

  Rng* rng_;
  std::string q_;
  int64_t max_id_;
  int64_t max_version_;
};

/// (CREATE INDEX on id and k, degree of parallelism).
class ExecDmlOracleTest
    : public ::testing::TestWithParam<std::tuple<bool, int>> {
 protected:
  static constexpr int64_t kRows = 5000;  // three scan morsels

  void SetUp() override {
    exec_ = std::make_unique<Executor>(&db_);
    ASSERT_TRUE(
        exec_->Execute("CREATE TABLE r (id INT, k INT, x DOUBLE, note TEXT)",
                       {})
            .ok());
    table_ = db_.FindTable("r");
    table_->set_provenance_tracking(true);
    Rng rng(0xD31E7E);
    const int64_t seq = db_.NextStatementSeq();
    for (int64_t id = 1; id <= kRows; ++id) {
      Tuple values = {
          Value::Int(id),
          rng.Bernoulli(0.1) ? Value::Null() : Value::Int(rng.Uniform(0, 20)),
          rng.Bernoulli(0.1)
              ? Value::Null()
              : Value::Real(static_cast<double>(rng.Uniform(0, 240)) / 4),
          rng.Bernoulli(0.1) ? Value::Null()
                             : Value::Str("n" +
                                          std::to_string(rng.Uniform(0, 5)))};
      ASSERT_TRUE(table_->Insert(values, seq).ok());
    }
    if (std::get<0>(GetParam())) {
      ASSERT_TRUE(exec_->Execute("CREATE INDEX r_id ON r (id)", {}).ok());
      ASSERT_TRUE(exec_->Execute("CREATE INDEX r_k ON r (k)", {}).ok());
    }
    for (const RowVersion& row : table_->rows()) {
      model_.push_back({row.rowid, row.version, row.values, row.deleted});
    }
  }

  /// Cells that deviate from the schema type (a non-integral DOUBLE in the
  /// INT column, an INT in the DOUBLE column), inserted below the SQL
  /// layer, which coerces. Scans over them take the row path.
  void AddLaxRows(Rng* rng) {
    const int64_t seq = db_.NextStatementSeq();
    for (int i = 0; i < 20; ++i) {
      const int64_t id = kRows + 1 + i;
      Tuple values = {
          Value::Int(id),
          Value::Real(static_cast<double>(rng->Uniform(0, 19)) + 0.5),
          Value::Int(rng->Uniform(0, 60)),
          Value::Str("n" + std::to_string(rng->Uniform(0, 5)))};
      auto rowid = table_->Insert(values, seq);
      ASSERT_TRUE(rowid.ok());
      model_.push_back({*rowid, seq, values, false});
    }
  }

  /// Runs one generated UPDATE or DELETE and checks it against the model.
  void RunAndCheck(Rng* rng, int step) {
    const bool is_update = rng->Bernoulli(0.7);
    const bool provenance = rng->Bernoulli(0.7);
    // Qualify columns through an alias, through the table name, or not at
    // all.
    const int64_t qualify = rng->Uniform(0, 2);
    const std::string alias = qualify == 1 ? " a" : "";
    const std::string q = qualify == 1 ? "a." : qualify == 2 ? "r." : "";
    PredicateGen gen(rng, q, kRows + 20, db_.current_statement_seq());
    Pred where = gen.Any(2);
    if (!is_update || rng->Bernoulli(0.2)) {
      Pred narrow = rng->Bernoulli(0.5) ? gen.IdEquals() : gen.IdRange();
      where = {narrow.sql + " AND " + where.sql,
               [narrow, where](const ModelRow& r) {
                 return And(narrow.eval(r), where.eval(r));
               }};
    }

    // SET clauses and their effect on the model. They read old values,
    // including the prov columns of the matched version.
    std::vector<std::pair<std::string,
                          std::function<void(const ModelRow&, Tuple*)>>>
        sets;
    const std::string new_note = "n" + std::to_string(rng->Uniform(0, 5));
    sets.push_back({"note = '" + new_note + "'",
                    [new_note](const ModelRow&, Tuple* out) {
                      (*out)[kColNote] = Value::Str(new_note);
                    }});
    if (rng->Bernoulli(0.5)) {
      sets.push_back({"x = " + q + "x + 1", [](const ModelRow& r, Tuple* out) {
                        const Value& x = r.values[kColX];
                        (*out)[kColX] =
                            x.is_null() ? Value::Null()
                                        : Value::Real(Numeric(x) + 1);
                      }});
    }
    if (rng->Bernoulli(0.5)) {
      const bool by_version = rng->Bernoulli(0.5);
      sets.push_back(
          {"k = " + q + (by_version ? "prov_v" : "prov_rowid") + " % 20",
           [by_version](const ModelRow& r, Tuple* out) {
             (*out)[kColK] =
                 Value::Int((by_version ? r.version : r.rowid) % 20);
           }});
    }

    std::string sql = provenance ? "PROVENANCE " : "";
    if (is_update) {
      sql += "UPDATE r" + alias + " SET ";
      for (size_t i = 0; i < sets.size(); ++i) {
        sql += (i > 0 ? ", " : "") + sets[i].first;
      }
    } else {
      sql += "DELETE FROM r" + alias;
    }
    sql += " WHERE " + where.sql;
    SCOPED_TRACE(StrFormat("step %d: %s", step, sql.c_str()));

    // The oracle: matched slots in physical (= rowid) order.
    std::vector<size_t> matched;
    for (size_t i = 0; i < model_.size(); ++i) {
      if (!model_[i].deleted && where.eval(model_[i]) == Truth::kTrue) {
        matched.push_back(i);
      }
    }
    const size_t archive_before = table_->archive().size();
    const int64_t stmt_seq = db_.current_statement_seq() + 1;

    ExecOptions options;
    options.threads = std::get<1>(GetParam());
    auto result = exec_->Execute(sql, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->affected, static_cast<int64_t>(matched.size()));
    ASSERT_EQ(result->dml.size(), matched.size());
    ASSERT_EQ(result->prov_tuples.size(), provenance ? matched.size() : 0u);
    ASSERT_EQ(table_->archive().size(), archive_before + matched.size());
    for (size_t m = 0; m < matched.size(); ++m) {
      ModelRow& row = model_[matched[m]];
      const TupleVid prior{table_->id(), row.rowid, row.version};
      const DmlRecord& rec = result->dml[m];
      EXPECT_EQ(rec.kind, is_update ? DmlRecord::Kind::kUpdated
                                    : DmlRecord::Kind::kDeleted);
      EXPECT_EQ(rec.table, "r");
      EXPECT_TRUE(rec.has_prior);
      EXPECT_EQ(rec.prior, prior);
      const TupleVid created{table_->id(), row.rowid, stmt_seq};
      EXPECT_EQ(rec.vid, is_update ? created : prior);
      if (provenance) {
        EXPECT_EQ(result->prov_tuples[m].vid, prior);
        EXPECT_EQ(result->prov_tuples[m].table, "r");
        EXPECT_EQ(result->prov_tuples[m].values, row.values);
      }
      const RowVersion& archived = table_->archive()[archive_before + m];
      EXPECT_EQ(archived.rowid, row.rowid);
      EXPECT_EQ(archived.version, row.version);
      EXPECT_EQ(archived.superseded, stmt_seq);
      EXPECT_EQ(archived.values, row.values);

      if (is_update) {
        Tuple next = row.values;
        for (const auto& set : sets) set.second(row, &next);
        row.values = std::move(next);
      } else {
        row.deleted = true;
      }
      row.version = stmt_seq;
    }
    EXPECT_EQ(db_.current_statement_seq(), stmt_seq);

    // The table's slots now equal the model's.
    const std::vector<RowVersion>& rows = table_->rows();
    ASSERT_EQ(rows.size(), model_.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(rows[i].rowid, model_[i].rowid);
      ASSERT_EQ(rows[i].deleted, model_[i].deleted) << "rowid " << rows[i].rowid;
      ASSERT_EQ(rows[i].version, model_[i].version)
          << "rowid " << rows[i].rowid;
      ASSERT_EQ(rows[i].values, model_[i].values) << "rowid " << rows[i].rowid;
    }
  }

  Database db_;
  std::unique_ptr<Executor> exec_;
  Table* table_ = nullptr;
  std::vector<ModelRow> model_;
};

TEST_P(ExecDmlOracleTest, MatchesIndependentOracle) {
  Rng rng(0x0AC1E + static_cast<uint64_t>(std::get<1>(GetParam())));
  for (int step = 0; step < 60; ++step) {
    RunAndCheck(&rng, step);
    if (HasFatalFailure()) return;
  }
  AddLaxRows(&rng);
  for (int step = 60; step < 100; ++step) {
    RunAndCheck(&rng, step);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    IndexAndDop, ExecDmlOracleTest,
    ::testing::Combine(::testing::Bool(), ::testing::Values(1, 8)),
    [](const ::testing::TestParamInfo<std::tuple<bool, int>>& info) {
      return std::string(std::get<0>(info.param) ? "Indexed" : "Unindexed") +
             "Dop" + std::to_string(std::get<1>(info.param));
    });

// A statement deadline that expires while UPDATE/DELETE is still matching
// its pre-state stops the statement before it mutates anything.
TEST(ExecDmlGovernanceTest, DeadlineInPreStateScanLeavesTableUnchanged) {
  for (int dop : {1, 8}) {
    Database db;
    auto created = db.CreateTable(
        "big", storage::Schema({{"id", ValueType::kInt64},
                                {"v", ValueType::kInt64}}));
    ASSERT_TRUE(created.ok());
    Table* table = *created;
    table->set_provenance_tracking(true);
    const int64_t seq = db.NextStatementSeq();
    for (int64_t i = 0; i < 20 * static_cast<int64_t>(kMorselRows); ++i) {
      ASSERT_TRUE(table->Insert({Value::Int(i), Value::Int(i % 97)}, seq).ok());
    }
    const std::vector<RowVersion> before = table->rows();

    for (const char* sql : {"UPDATE big SET v = v + 1 WHERE v >= 0",
                            "DELETE FROM big WHERE v >= 0"}) {
      SCOPED_TRACE(StrFormat("dop %d: %s", dop, sql));
      auto stmt = sql::Parse(sql);
      ASSERT_TRUE(stmt.ok());
      // Already expired: the executor's entry check is bypassed by calling
      // the DML entry points directly, so the verdict lands at the pre-state
      // scan's first morsel boundary.
      QueryGovernor governor;
      governor.set_deadline_nanos(NowNanos() - 1);
      ExecOptions options;
      options.threads = dop;
      options.governor = &governor;
      Result<ResultSet> result =
          stmt->kind == sql::StatementKind::kUpdate
              ? ExecUpdate(&db, *stmt->update, stmt->update->where.get(),
                           /*provenance=*/true, options)
              : ExecDelete(&db, *stmt->del, stmt->del->where.get(),
                           /*provenance=*/true, options);
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
      EXPECT_EQ(db.current_statement_seq(), seq);
      EXPECT_TRUE(table->archive().empty());
      ASSERT_EQ(table->rows().size(), before.size());
      for (size_t i = 0; i < before.size(); ++i) {
        ASSERT_EQ(table->rows()[i].values, before[i].values);
        ASSERT_EQ(table->rows()[i].version, before[i].version);
        ASSERT_FALSE(table->rows()[i].deleted);
      }
    }
  }
}

}  // namespace
}  // namespace ldv::exec

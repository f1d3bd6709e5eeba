#include "exec/reenactment.h"

#include "exec/expression.h"
#include "exec/planner.h"

namespace ldv::exec {

using storage::Table;
using storage::Tuple;
using storage::TupleVid;
using storage::Value;

namespace {

/// The pre-state scan of `table`: the planner's table scan with the prov
/// columns exposed and the whole WHERE (may be null: every row) as its
/// filter. Its scope also binds the SET expressions.
Result<std::unique_ptr<ScanNode>> PlanPreStateScan(Table* table,
                                                   const std::string& alias,
                                                   const sql::Expr* where) {
  std::vector<const sql::Expr*> conjuncts;
  SplitConjuncts(where, &conjuncts);
  return PlanTableScan(table, alias, /*expose_prov_columns=*/true,
                       [&](const Scope&) { return conjuncts; });
}

/// Charges the reenactment pre-state snapshot (the version-archive capture
/// of every matched row) against the statement's memory budget.
Status ChargePreState(const ExecOptions& options,
                      const std::vector<Tuple>& matched) {
  if (options.governor == nullptr) return Status::Ok();
  size_t bytes = 0;
  for (const Tuple& row : matched) {
    bytes += sizeof(storage::RowVersion) + ApproxTupleBytes(row);
  }
  return options.governor->ChargeMemory(bytes);
}

/// Phase 1 of reenactment: runs the pre-state scan — fused filter, index
/// probe and morsel fan-out, exactly as for a SELECT — and returns one row
/// per matched version in scan order: the table's columns, then prov_rowid,
/// prov_v, prov_usedby, prov_p. The rows own their values, so the caller
/// may mutate the table afterwards.
Result<std::vector<Tuple>> ReadPreState(storage::Database* db, ScanNode* scan,
                                        const ExecOptions& options) {
  ExecContext ctx = MakeExecContext(db, options);
  ctx.snapshot_epoch = 0;  // DML matches the live state it is about to change
  LDV_ASSIGN_OR_RETURN(Batch matched, RunPlan(scan, &ctx, options));
  LDV_RETURN_IF_ERROR(ChargePreState(options, matched.rows));
  return std::move(matched.rows);
}

/// The matched version's identity, read from its prov_rowid / prov_v cells.
TupleVid PriorVid(const Table& table, const Tuple& row) {
  const size_t base = static_cast<size_t>(table.schema().num_columns());
  return TupleVid{table.id(), row[base].AsInt(), row[base + 1].AsInt()};
}

/// The matched version's values without its prov columns.
Tuple BaseValues(const Table& table, const Tuple& row) {
  return Tuple(row.begin(), row.begin() + table.schema().num_columns());
}

/// True when the client already holds the values of `vid` (DESIGN.md §17).
bool AlreadyShipped(const ExecOptions& options, const TupleVid& vid) {
  return options.shipped_vids != nullptr && options.shipped_vids->contains(vid);
}

}  // namespace

Result<ResultSet> ExecUpdate(storage::Database* db,
                             const sql::UpdateStmt& update,
                             const sql::Expr* where, bool provenance,
                             const ExecOptions& options) {
  Table* table = db->FindTable(update.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + update.table);
  }
  const std::string& alias =
      update.alias.empty() ? update.table : update.alias;

  LDV_ASSIGN_OR_RETURN(std::unique_ptr<ScanNode> scan,
                       PlanPreStateScan(table, alias, where));
  // Bind SET expressions (they may reference old column values).
  std::vector<std::pair<int, std::unique_ptr<BoundExpr>>> sets;
  for (const auto& [col_name, expr] : update.assignments) {
    int idx = table->schema().IndexOf(col_name);
    if (idx < 0) {
      return Status::NotFound(update.table + ": no column " + col_name);
    }
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                         BindExpr(*expr, scan->scope()));
    sets.emplace_back(idx, std::move(bound));
  }

  // Reenactment: retrieve the statement's provenance (the matched pre-state
  // versions) BEFORE mutating, per §VII-B.
  LDV_ASSIGN_OR_RETURN(std::vector<Tuple> matched,
                       ReadPreState(db, scan.get(), options));

  ResultSet result;
  const int64_t stmt_seq = db->NextStatementSeq();
  for (const Tuple& old_row : matched) {
    const TupleVid prior = PriorVid(*table, old_row);
    Tuple new_values = BaseValues(*table, old_row);
    for (const auto& [idx, expr] : sets) {
      LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, old_row));
      LDV_ASSIGN_OR_RETURN(
          new_values[static_cast<size_t>(idx)],
          CoerceValue(std::move(v),
                      table->schema().column(idx).type));
    }
    LDV_RETURN_IF_ERROR(
        table->Update(prior.rowid, std::move(new_values), stmt_seq));
    DmlRecord rec;
    rec.kind = DmlRecord::Kind::kUpdated;
    rec.table = table->name();
    rec.vid = TupleVid{table->id(), prior.rowid, stmt_seq};
    rec.prior = prior;
    rec.has_prior = true;
    result.dml.push_back(rec);
    if (provenance) {
      ProvTupleRecord prov;
      prov.vid = prior;
      prov.table = table->name();
      if (!AlreadyShipped(options, prior)) {
        prov.values = BaseValues(*table, old_row);
      }
      result.prov_tuples.push_back(std::move(prov));
    }
  }
  result.affected = static_cast<int64_t>(matched.size());
  result.has_provenance = provenance;
  return result;
}

Result<ResultSet> ExecDelete(storage::Database* db, const sql::DeleteStmt& del,
                             const sql::Expr* where, bool provenance,
                             const ExecOptions& options) {
  Table* table = db->FindTable(del.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + del.table);
  }
  const std::string& alias = del.alias.empty() ? del.table : del.alias;
  LDV_ASSIGN_OR_RETURN(std::unique_ptr<ScanNode> scan,
                       PlanPreStateScan(table, alias, where));
  LDV_ASSIGN_OR_RETURN(std::vector<Tuple> matched,
                       ReadPreState(db, scan.get(), options));

  ResultSet result;
  const int64_t stmt_seq = db->NextStatementSeq();
  for (const Tuple& old_row : matched) {
    const TupleVid prior = PriorVid(*table, old_row);
    LDV_RETURN_IF_ERROR(table->Delete(prior.rowid, stmt_seq));
    DmlRecord rec;
    rec.kind = DmlRecord::Kind::kDeleted;
    rec.table = table->name();
    rec.vid = prior;
    rec.prior = prior;
    rec.has_prior = true;
    result.dml.push_back(rec);
    if (provenance) {
      ProvTupleRecord prov;
      prov.vid = prior;
      prov.table = table->name();
      if (!AlreadyShipped(options, prior)) {
        prov.values = BaseValues(*table, old_row);
      }
      result.prov_tuples.push_back(std::move(prov));
    }
  }
  result.affected = static_cast<int64_t>(matched.size());
  result.has_provenance = provenance;
  return result;
}

}  // namespace ldv::exec

#ifndef LDV_EXEC_PLANNER_H_
#define LDV_EXEC_PLANNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/operators.h"
#include "sql/ast.h"
#include "storage/database.h"
#include "storage/schema.h"

namespace ldv::exec {

/// A complete SELECT plan: the operator tree plus the result schema (with
/// user-facing column names, i.e., aliases applied).
struct SelectPlan {
  std::unique_ptr<PlanNode> root;
  storage::Schema output_schema;
};

/// Appends the top-level AND conjuncts of `expr` to `out` (none for null).
void SplitConjuncts(const sql::Expr* expr, std::vector<const sql::Expr*>* out);

/// Builds the scan of one table — the access path SELECT uses for every FROM
/// entry and UPDATE/DELETE use to match their pre-state. `pick_pushdown`
/// receives the scan's scope and returns the conjuncts to push into it:
/// their conjunction, bound against that scope, becomes the scan's fused
/// filter, and the first equality between an indexed column and a literal
/// among them becomes its index probe.
Result<std::unique_ptr<ScanNode>> PlanTableScan(
    storage::Table* table, const std::string& alias, bool expose_prov_columns,
    const std::function<std::vector<const sql::Expr*>(const Scope&)>&
        pick_pushdown);

/// Builds an executable plan for a SELECT statement:
///   - per-table predicate pushdown into scans,
///   - left-deep joins in FROM order, hash joins on extracted equi-join
///     conjuncts, nested loop + residual otherwise,
///   - hash aggregation with HAVING, DISTINCT, ORDER BY, LIMIT,
///   - prov_* pseudo-columns exposed on scans whose table is referenced by
///     one of them.
Result<SelectPlan> PlanSelect(storage::Database* db,
                              const sql::SelectStmt& select);

}  // namespace ldv::exec

#endif  // LDV_EXEC_PLANNER_H_

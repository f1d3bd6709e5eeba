#ifndef LDV_EXEC_REENACTMENT_H_
#define LDV_EXEC_REENACTMENT_H_

#include "common/result.h"
#include "exec/executor.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace ldv::exec {

/// Executes UPDATE/DELETE with reenactment-style provenance (paper §VII-B,
/// following GProM): the set of affected tuple versions — the statement's
/// provenance — is computed against the *pre-state* of the table, before the
/// mutation is applied, because afterwards the prior versions would only be
/// available from the archive. The pre-state match is an ordinary query: the
/// planner's table scan (PlanTableScan) with the prov_* columns exposed and
/// `where` as its filter, run like a SELECT's scan — vectorized, index
/// probed, morsel-parallel and cancellable. The mutations then apply
/// serially in scan order.
///
/// With `provenance`:
///   - each affected row contributes a DmlRecord linking the created version
///     to the prior version (updates) or recording the removed version
///     (deletes), and
///   - the prior versions' values are returned in `prov_tuples` so they can
///     be persisted into a package (without values for the versions in
///     ExecOptions::shipped_vids).
/// `where` is the statement's (possibly subquery-flattened) predicate; null
/// matches every row.
Result<ResultSet> ExecUpdate(storage::Database* db,
                             const sql::UpdateStmt& update,
                             const sql::Expr* where, bool provenance,
                             const ExecOptions& options);

Result<ResultSet> ExecDelete(storage::Database* db, const sql::DeleteStmt& del,
                             const sql::Expr* where, bool provenance,
                             const ExecOptions& options);

}  // namespace ldv::exec

#endif  // LDV_EXEC_REENACTMENT_H_

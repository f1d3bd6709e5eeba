#ifndef LDV_LDV_AUDITING_DB_CLIENT_H_
#define LDV_LDV_AUDITING_DB_CLIENT_H_

#include <string>

#include "ldv/app.h"
#include "net/db_client.h"

namespace ldv {

class Auditor;

/// The instrumented DB client library (the prototype's patched libpq,
/// §VII-C): tags every statement with the owning process id and a fresh
/// query id, rewrites statements to carry the Perm PROVENANCE keyword when
/// the package is server-included, reports each execution to the Auditor,
/// and hands the application a provenance-free result — applications cannot
/// observe that they are being audited.
///
/// Each application statement is one request. An UPDATE or DELETE gets the
/// PROVENANCE prefix like a query: the engine reenacts it over the pre-state
/// before mutating (§VII-B) and returns the matched versions, plus the
/// tuples of any WHERE subquery, as its provenance. Server-included audit
/// refuses, with NotSupported, the statements whose provenance it cannot
/// capture: PREPARE/EXECUTE/DEALLOCATE (SQL or protocol verb) and
/// COPY ... TO. It also sets DbRequest::elide_shipped_values, so the server
/// sends each tuple version's values once per connection (DESIGN.md §17).
class AuditingDbClient final : public net::DbClient {
 public:
  AuditingDbClient(net::DbClient* backend, Auditor* auditor,
                   int64_t process_id)
      : backend_(backend), auditor_(auditor), process_id_(process_id) {}

  Result<exec::ResultSet> Execute(const net::DbRequest& request) override;

 private:
  net::DbClient* backend_;
  Auditor* auditor_;
  int64_t process_id_;
};

/// Referenced table names of a parsed statement, those read by its
/// subqueries included (used for first-touch registration). Exposed for
/// tests.
std::vector<std::string> ReferencedTables(const sql::Statement& stmt);

}  // namespace ldv

#endif  // LDV_LDV_AUDITING_DB_CLIENT_H_

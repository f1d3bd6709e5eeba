#include "ldv/auditing_db_client.h"

#include "ldv/auditor.h"
#include "net/protocol.h"
#include "obs/span.h"
#include "sql/parser.h"
#include "util/strings.h"

namespace ldv {

namespace {

void AddSelectTables(const sql::SelectStmt* select,
                     std::vector<std::string>* tables);

/// Tables read by the subqueries nested anywhere in `expr` (may be null).
void AddSubqueryTables(const sql::Expr* expr,
                       std::vector<std::string>* tables) {
  if (expr == nullptr) return;
  AddSelectTables(expr->subquery.get(), tables);
  for (const auto& child : expr->children) {
    AddSubqueryTables(child.get(), tables);
  }
}

/// The tables `select` (may be null) reads, its subqueries' included.
void AddSelectTables(const sql::SelectStmt* select,
                     std::vector<std::string>* tables) {
  if (select == nullptr) return;
  for (const sql::TableRef& ref : select->from) {
    tables->push_back(ref.table);
    AddSubqueryTables(ref.join_condition.get(), tables);
  }
  for (const sql::SelectItem& item : select->items) {
    AddSubqueryTables(item.expr.get(), tables);
  }
  AddSubqueryTables(select->where.get(), tables);
  for (const auto& expr : select->group_by) {
    AddSubqueryTables(expr.get(), tables);
  }
  AddSubqueryTables(select->having.get(), tables);
  for (const sql::OrderItem& item : select->order_by) {
    AddSubqueryTables(item.expr.get(), tables);
  }
}

/// Statements a server-included package cannot reproduce, because their
/// provenance never reaches the client: a prepared statement runs a body the
/// server registered earlier, beyond the reach of the PROVENANCE rewrite, and
/// COPY ... TO reads every row of its table while only the provenance subset
/// is packaged. Both would audit fine and replay to different answers.
Status RefuseUncapturable(const char* statement) {
  return Status::NotSupported(
      StrFormat("server-included audit cannot capture the provenance of %s; "
                "its replay would read data the package does not hold",
                statement));
}

}  // namespace

std::vector<std::string> ReferencedTables(const sql::Statement& stmt) {
  std::vector<std::string> tables;
  switch (stmt.kind) {
    case sql::StatementKind::kSelect:
      AddSelectTables(stmt.select.get(), &tables);
      break;
    case sql::StatementKind::kInsert:
      tables.push_back(stmt.insert->table);
      for (const auto& row : stmt.insert->rows) {
        for (const auto& expr : row) AddSubqueryTables(expr.get(), &tables);
      }
      AddSelectTables(stmt.insert->select.get(), &tables);
      break;
    case sql::StatementKind::kUpdate:
      tables.push_back(stmt.update->table);
      for (const auto& [column, expr] : stmt.update->assignments) {
        AddSubqueryTables(expr.get(), &tables);
      }
      AddSubqueryTables(stmt.update->where.get(), &tables);
      break;
    case sql::StatementKind::kDelete:
      tables.push_back(stmt.del->table);
      AddSubqueryTables(stmt.del->where.get(), &tables);
      break;
    case sql::StatementKind::kCopy:
      tables.push_back(stmt.copy->table);
      break;
    default:
      break;
  }
  return tables;
}

Result<exec::ResultSet> AuditingDbClient::Execute(
    const net::DbRequest& request) {
  const PackageMode mode = auditor_->options().mode;
  const bool server_included = mode == PackageMode::kServerIncluded;
  if (server_included) {
    switch (request.kind) {
      case net::RequestKind::kPrepare:
        return RefuseUncapturable("PREPARE");
      case net::RequestKind::kExecute:
        return RefuseUncapturable("EXECUTE");
      case net::RequestKind::kDeallocate:
        return RefuseUncapturable("DEALLOCATE");
      default:
        break;
    }
  }

  // Prepared-statement protocol verbs carry a handle rather than a
  // statement (an EXECUTE has no text at all): classify them by kind. They
  // are refused above under server-included audit, so nothing below needs
  // their parse.
  sql::Statement parsed;
  switch (request.kind) {
    case net::RequestKind::kPrepare:
      parsed.kind = sql::StatementKind::kPrepare;
      break;
    case net::RequestKind::kExecute:
      parsed.kind = sql::StatementKind::kExecute;
      break;
    case net::RequestKind::kDeallocate:
      parsed.kind = sql::StatementKind::kDeallocate;
      break;
    default:
      // Parse once to classify the statement and find the touched tables.
      LDV_ASSIGN_OR_RETURN(parsed, sql::Parse(request.sql));
      break;
  }

  bool provenance_capture = false;
  if (server_included) {
    switch (parsed.kind) {
      case sql::StatementKind::kSelect:
      case sql::StatementKind::kInsert:
      case sql::StatementKind::kUpdate:
      case sql::StatementKind::kDelete:
        provenance_capture = true;
        break;
      case sql::StatementKind::kPrepare:
        return RefuseUncapturable("PREPARE");
      case sql::StatementKind::kExecute:
        return RefuseUncapturable("EXECUTE");
      case sql::StatementKind::kDeallocate:
        return RefuseUncapturable("DEALLOCATE");
      case sql::StatementKind::kCopy:
        if (!parsed.copy->from) return RefuseUncapturable("COPY ... TO");
        break;
      default:
        break;
    }
    // First-touch registration: version tracking + schema capture (§VII-B).
    for (const std::string& table : ReferencedTables(parsed)) {
      LDV_RETURN_IF_ERROR(auditor_->EnsureTableRegistered(table));
    }
  }

  Auditor::DbStatementRecord record;
  record.process_id = process_id_;
  record.query_id = auditor_->NextQueryId();
  record.sql = request.sql;
  record.kind = parsed.kind;

  // One span per audited statement, covering its round trip and the
  // trace/package bookkeeping.
  obs::Span span("audit.statement", "audit");
  if (span.recording()) {
    span.AddArg("qid", std::to_string(record.query_id));
    span.AddArg("sql", request.sql.size() <= 120
                           ? request.sql
                           : request.sql.substr(0, 117) + "...");
  }

  // The PROVENANCE rewrite the prototype performs inside libpq. UPDATE and
  // DELETE carry it too: the engine reenacts them over the pre-state before
  // mutating (§VII-B), so the response itself names the matched versions and
  // any WHERE-subquery tuples as the statement's provenance.
  net::DbRequest tagged = request;
  if (provenance_capture && !parsed.provenance) {
    tagged.sql = "PROVENANCE " + request.sql;
  }
  tagged.process_id = process_id_;
  tagged.query_id = record.query_id;
  // The auditor keeps the first values it receives of every tuple version,
  // so the server may send each one once per connection (DESIGN.md §17).
  tagged.elide_shipped_values = server_included;

  record.t.begin = auditor_->clock_.Tick();
  LDV_ASSIGN_OR_RETURN(exec::ResultSet result, backend_->Execute(tagged));
  record.t.end = auditor_->clock_.Tick();

  record.result = &result;
  if (mode == PackageMode::kServerExcluded) {
    // Spool the exact request/response pair for replay (§VII-D). Outside
    // server-included mode `tagged` is the application's request plus its
    // ids, and the response is what the application saw.
    record.encoded_request = net::EncodeRequest(tagged);
    record.encoded_response = net::EncodeResponse(Status::Ok(), result);
  }
  LDV_RETURN_IF_ERROR(auditor_->OnDbStatement(record));

  // Strip audit artifacts before handing results to the application.
  result.lineage.clear();
  result.prov_tuples.clear();
  result.has_provenance = false;
  return result;
}

}  // namespace ldv

#include "exec/planner.h"

#include <algorithm>
#include <unordered_set>

#include "util/strings.h"

namespace ldv::exec {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;
using storage::ValueType;

namespace {

/// Produces exactly one empty row — the input of a FROM-less SELECT.
class SingleRowNode final : public PlanNode {
 public:
  SingleRowNode() = default;
  std::string label() const override { return "SingleRow"; }

 protected:
  Result<Batch> ExecuteImpl(ExecContext* ctx) override {
    Batch out;
    out.rows.emplace_back();
    if (ctx->track_lineage) out.lineage.emplace_back();
    return out;
  }
};

/// True if every column reference in `expr` resolves in `scope`.
bool FullyResolvable(const Expr& expr, const Scope& scope) {
  std::vector<std::pair<std::string, std::string>> refs;
  CollectColumnRefs(expr, &refs);
  for (const auto& [qualifier, name] : refs) {
    if (!scope.CanResolve(qualifier, name)) return false;
  }
  return true;
}

/// Binds the conjunction of `conjuncts` against `scope` (nullptr if empty).
Result<std::unique_ptr<BoundExpr>> BindConjunction(
    const std::vector<const Expr*>& conjuncts, const Scope& scope) {
  std::unique_ptr<BoundExpr> combined;
  for (const Expr* c : conjuncts) {
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                         BindExpr(*c, scope));
    if (combined == nullptr) {
      combined = std::move(bound);
    } else {
      auto and_node = std::make_unique<BoundExpr>();
      and_node->kind = ExprKind::kBinary;
      and_node->binary_op = BinaryOp::kAnd;
      and_node->result_type = ValueType::kInt64;
      and_node->children.push_back(std::move(combined));
      and_node->children.push_back(std::move(bound));
      combined = std::move(and_node);
    }
  }
  return combined;
}

std::string NormalizedExprKey(const Expr& expr) {
  return ToLower(expr.ToString());
}

/// Recursively replaces aggregate calls and group-by expressions inside a
/// cloned tree with references to the synthetic post-aggregation columns.
struct AggRewriter {
  const std::vector<std::string>* group_keys;  // normalized ToString
  std::vector<const Expr*>* agg_calls;         // dedup'd aggregate calls
  std::vector<std::string>* agg_keys;          // normalized ToString

  std::unique_ptr<Expr> Rewrite(const Expr& expr) {
    std::string key = NormalizedExprKey(expr);
    for (size_t i = 0; i < group_keys->size(); ++i) {
      if ((*group_keys)[i] == key) {
        return sql::MakeColumnRef("", "#grp" + std::to_string(i));
      }
    }
    if (expr.kind == ExprKind::kFuncCall &&
        sql::IsAggregateFunction(expr.name)) {
      for (size_t i = 0; i < agg_keys->size(); ++i) {
        if ((*agg_keys)[i] == key) {
          return sql::MakeColumnRef("", "#agg" + std::to_string(i));
        }
      }
      agg_calls->push_back(&expr);
      agg_keys->push_back(key);
      return sql::MakeColumnRef("",
                                "#agg" + std::to_string(agg_keys->size() - 1));
    }
    std::unique_ptr<Expr> clone = expr.Clone();
    clone->children.clear();
    for (const auto& child : expr.children) {
      clone->children.push_back(Rewrite(*child));
    }
    return clone;
  }
};

Result<AggregateSpec::Fn> AggFnFromName(const std::string& name,
                                        bool star_arg) {
  if (EqualsIgnoreCase(name, "count")) {
    return star_arg ? AggregateSpec::Fn::kCountStar : AggregateSpec::Fn::kCount;
  }
  if (star_arg) {
    return Status::InvalidArgument(name + "(*) is not valid");
  }
  if (EqualsIgnoreCase(name, "sum")) return AggregateSpec::Fn::kSum;
  if (EqualsIgnoreCase(name, "avg")) return AggregateSpec::Fn::kAvg;
  if (EqualsIgnoreCase(name, "min")) return AggregateSpec::Fn::kMin;
  if (EqualsIgnoreCase(name, "max")) return AggregateSpec::Fn::kMax;
  return Status::NotSupported("unknown aggregate: " + name);
}

std::string OutputName(const sql::SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
  return item.expr->ToString();
}

}  // namespace

void SplitConjuncts(const Expr* expr, std::vector<const Expr*>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kBinary && expr->binary_op == BinaryOp::kAnd) {
    SplitConjuncts(expr->children[0].get(), out);
    SplitConjuncts(expr->children[1].get(), out);
    return;
  }
  out->push_back(expr);
}

Result<std::unique_ptr<ScanNode>> PlanTableScan(
    storage::Table* table, const std::string& alias, bool expose_prov_columns,
    const std::function<std::vector<const Expr*>(const Scope&)>&
        pick_pushdown) {
  auto scan = std::make_unique<ScanNode>(table, alias, expose_prov_columns);
  const std::vector<const Expr*> pushdown = pick_pushdown(scan->scope());
  if (pushdown.empty()) return scan;
  LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> filter,
                       BindConjunction(pushdown, scan->scope()));
  scan->set_filter(std::move(filter));
  // Enables the hash-index access path when a pushed-down conjunct is an
  // equality between an indexed column and a literal.
  for (const Expr* e : pushdown) {
    if (e->kind != ExprKind::kBinary || e->binary_op != BinaryOp::kEq) {
      continue;
    }
    for (int side = 0; side < 2; ++side) {
      const Expr* col = e->children[static_cast<size_t>(side)].get();
      const Expr* lit = e->children[static_cast<size_t>(1 - side)].get();
      if (col->kind != ExprKind::kColumnRef ||
          lit->kind != ExprKind::kLiteral) {
        continue;
      }
      int idx = table->schema().IndexOf(col->column);
      if (idx < 0 || !table->HasIndexOn(idx)) continue;
      Result<storage::Value> coerced =
          CoerceValue(lit->literal, table->schema().column(idx).type);
      if (!coerced.ok()) continue;
      scan->set_index_probe(idx, std::move(coerced).value());
      return scan;
    }
  }
  return scan;
}

Result<SelectPlan> PlanSelect(storage::Database* db,
                              const SelectStmt& select) {
  // ---- Gather all column references (prov pseudo-column detection). ----
  std::vector<std::pair<std::string, std::string>> all_refs;
  for (const auto& item : select.items) CollectColumnRefs(*item.expr, &all_refs);
  if (select.where != nullptr) CollectColumnRefs(*select.where, &all_refs);
  for (const auto& g : select.group_by) CollectColumnRefs(*g, &all_refs);
  if (select.having != nullptr) CollectColumnRefs(*select.having, &all_refs);
  for (const auto& o : select.order_by) CollectColumnRefs(*o.expr, &all_refs);

  auto wants_prov_columns = [&](const std::string& alias) {
    for (const auto& [qualifier, name] : all_refs) {
      if (!storage::IsProvPseudoColumn(name)) continue;
      if (qualifier.empty() || EqualsIgnoreCase(qualifier, alias)) return true;
    }
    return false;
  };

  // ---- WHERE conjuncts. ----
  std::vector<const Expr*> conjuncts;
  SplitConjuncts(select.where.get(), &conjuncts);
  std::vector<bool> used(conjuncts.size(), false);

  // Extracts equi-join key pairs between `current` and `scan` from a
  // conjunct list, marking consumed entries.
  auto extract_keys = [](const Scope& left_scope, const Scope& right_scope,
                         const std::vector<const Expr*>& pool,
                         std::vector<bool>* pool_used) {
    std::vector<std::pair<int, int>> key_pairs;
    for (size_t c = 0; c < pool.size(); ++c) {
      if ((*pool_used)[c]) continue;
      const Expr* e = pool[c];
      if (e->kind != ExprKind::kBinary || e->binary_op != BinaryOp::kEq) {
        continue;
      }
      const Expr* lhs = e->children[0].get();
      const Expr* rhs = e->children[1].get();
      if (lhs->kind != ExprKind::kColumnRef ||
          rhs->kind != ExprKind::kColumnRef) {
        continue;
      }
      Result<int> ll = left_scope.Resolve(lhs->table, lhs->column);
      Result<int> rr = right_scope.Resolve(rhs->table, rhs->column);
      if (ll.ok() && rr.ok()) {
        key_pairs.emplace_back(*ll, *rr);
        (*pool_used)[c] = true;
        continue;
      }
      Result<int> rl = left_scope.Resolve(rhs->table, rhs->column);
      Result<int> lr = right_scope.Resolve(lhs->table, lhs->column);
      if (rl.ok() && lr.ok()) {
        key_pairs.emplace_back(*rl, *lr);
        (*pool_used)[c] = true;
      }
    }
    return key_pairs;
  };

  // ---- Scans with predicate pushdown, then left-deep joins. ----
  std::unique_ptr<PlanNode> current;
  // Non-null while the plan is a single scan whose output rows map 1:1 to
  // the query's result rows (possibly projected); a LIMIT without ORDER BY
  // can then stop the scan early (ScanNode::set_limit_hint). Any operator
  // that drops, merges, or reorders rows above the scan invalidates it.
  ScanNode* sole_scan = nullptr;
  if (select.from.empty()) {
    current = std::make_unique<SingleRowNode>();
  }
  for (size_t t = 0; t < select.from.size(); ++t) {
    const sql::TableRef& ref = select.from[t];
    storage::Table* table = db->FindTable(ref.table);
    if (table == nullptr) {
      return Status::NotFound("no such table: " + ref.table);
    }
    const std::string& alias = ref.EffectiveName();
    const bool is_left_join = ref.join_type == sql::JoinType::kLeft;

    // The ref's own ON condition (explicit JOIN syntax).
    std::vector<const Expr*> on_conjuncts;
    SplitConjuncts(ref.join_condition.get(), &on_conjuncts);
    std::vector<bool> on_used(on_conjuncts.size(), false);

    // Push down single-table conjuncts. WHERE conjuncts must not be pushed
    // below a LEFT JOIN's right side (they apply after null-padding); the
    // join's own ON conjuncts may.
    auto pick_pushdown = [&](const Scope& scope) {
      std::vector<const Expr*> pushdown;
      for (size_t c = 0; c < on_conjuncts.size(); ++c) {
        if (!on_used[c] && FullyResolvable(*on_conjuncts[c], scope)) {
          pushdown.push_back(on_conjuncts[c]);
          on_used[c] = true;
        }
      }
      if (!is_left_join) {
        for (size_t c = 0; c < conjuncts.size(); ++c) {
          if (!used[c] && FullyResolvable(*conjuncts[c], scope)) {
            pushdown.push_back(conjuncts[c]);
            used[c] = true;
          }
        }
      }
      return pushdown;
    };
    LDV_ASSIGN_OR_RETURN(
        std::unique_ptr<ScanNode> scan,
        PlanTableScan(table, alias, wants_prov_columns(alias), pick_pushdown));
    if (current == nullptr) {
      if (ref.join_condition != nullptr) {
        return Status::InvalidArgument(
            "the first FROM entry cannot carry an ON condition");
      }
      sole_scan = scan.get();
      current = std::move(scan);
      continue;
    }
    sole_scan = nullptr;  // a join multiplies/drops rows

    // Equi-join keys: from the ON condition, plus (inner joins only) from
    // WHERE conjuncts.
    std::vector<std::pair<int, int>> key_pairs =
        extract_keys(current->scope(), scan->scope(), on_conjuncts, &on_used);
    if (!is_left_join) {
      std::vector<std::pair<int, int>> where_keys =
          extract_keys(current->scope(), scan->scope(), conjuncts, &used);
      key_pairs.insert(key_pairs.end(), where_keys.begin(), where_keys.end());
    }
    auto join = std::make_unique<JoinNode>(std::move(current), std::move(scan),
                                           std::move(key_pairs), is_left_join);

    // Residuals: remaining ON conjuncts always belong to the join (they
    // decide matching, hence null-padding); WHERE conjuncts may be attached
    // here only for inner joins.
    std::vector<const Expr*> residual;
    for (size_t c = 0; c < on_conjuncts.size(); ++c) {
      if (on_used[c]) continue;
      if (!FullyResolvable(*on_conjuncts[c], join->scope())) {
        return Status::InvalidArgument("ON condition references columns "
                                       "outside the joined tables: " +
                                       on_conjuncts[c]->ToString());
      }
      residual.push_back(on_conjuncts[c]);
      on_used[c] = true;
    }
    if (!is_left_join) {
      for (size_t c = 0; c < conjuncts.size(); ++c) {
        if (!used[c] && FullyResolvable(*conjuncts[c], join->scope())) {
          residual.push_back(conjuncts[c]);
          used[c] = true;
        }
      }
    }
    if (!residual.empty()) {
      LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                           BindConjunction(residual, join->scope()));
      join->set_residual(std::move(bound));
    }
    current = std::move(join);
  }

  // Leftover WHERE conjuncts (including everything held back by outer
  // joins) apply against the full join output.
  {
    std::vector<const Expr*> leftover;
    for (size_t c = 0; c < conjuncts.size(); ++c) {
      if (!used[c]) leftover.push_back(conjuncts[c]);
    }
    if (!leftover.empty()) {
      LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                           BindConjunction(leftover, current->scope()));
      current = std::make_unique<FilterNode>(std::move(current),
                                             std::move(bound));
      sole_scan = nullptr;  // rows dropped above the scan
    }
  }

  // ---- Expand '*' select items. ----
  std::vector<const Expr*> item_exprs;            // original or expanded
  std::vector<std::string> item_names;
  std::vector<std::unique_ptr<Expr>> owned_exprs;  // keeps expansions alive
  for (const auto& item : select.items) {
    if (item.expr->kind == ExprKind::kStar) {
      const std::string& qualifier = item.expr->table;
      bool any = false;
      for (const ScopeColumn& c : current->scope().columns()) {
        if (c.hidden) continue;
        if (!qualifier.empty() && !EqualsIgnoreCase(c.qualifier, qualifier)) {
          continue;
        }
        owned_exprs.push_back(sql::MakeColumnRef(c.qualifier, c.name));
        item_exprs.push_back(owned_exprs.back().get());
        item_names.push_back(c.name);
        any = true;
      }
      if (!any) {
        return Status::InvalidArgument("'*' expanded to zero columns");
      }
      continue;
    }
    item_exprs.push_back(item.expr.get());
    item_names.push_back(OutputName(item));
  }

  // ---- Aggregation. ----
  bool has_aggregate = !select.group_by.empty();
  for (const Expr* e : item_exprs) {
    has_aggregate = has_aggregate || sql::ContainsAggregate(*e);
  }
  if (select.having != nullptr &&
      sql::ContainsAggregate(*select.having)) {
    has_aggregate = true;
  }

  std::vector<std::unique_ptr<Expr>> rewritten_items;
  std::unique_ptr<Expr> rewritten_having;

  if (has_aggregate) {
    std::vector<std::string> group_keys;
    std::vector<std::unique_ptr<BoundExpr>> group_bound;
    for (const auto& g : select.group_by) {
      group_keys.push_back(NormalizedExprKey(*g));
      LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                           BindExpr(*g, current->scope()));
      group_bound.push_back(std::move(bound));
    }
    std::vector<const Expr*> agg_calls;
    std::vector<std::string> agg_keys;
    AggRewriter rewriter{&group_keys, &agg_calls, &agg_keys};
    for (const Expr* e : item_exprs) {
      rewritten_items.push_back(rewriter.Rewrite(*e));
    }
    if (select.having != nullptr) {
      rewritten_having = rewriter.Rewrite(*select.having);
    }
    std::vector<AggregateSpec> specs;
    for (size_t i = 0; i < agg_calls.size(); ++i) {
      const Expr* call = agg_calls[i];
      AggregateSpec spec;
      bool star_arg =
          call->children.empty() ||
          (call->children.size() == 1 &&
           call->children[0]->kind == ExprKind::kStar);
      LDV_ASSIGN_OR_RETURN(spec.fn, AggFnFromName(call->name, star_arg));
      if (!star_arg) {
        if (call->children.size() != 1) {
          return Status::InvalidArgument(call->name +
                                         " takes exactly one argument");
        }
        LDV_ASSIGN_OR_RETURN(spec.arg,
                             BindExpr(*call->children[0], current->scope()));
      }
      spec.output_name = "#agg" + std::to_string(i);
      switch (spec.fn) {
        case AggregateSpec::Fn::kCountStar:
        case AggregateSpec::Fn::kCount:
          spec.output_type = ValueType::kInt64;
          break;
        case AggregateSpec::Fn::kAvg:
          spec.output_type = ValueType::kDouble;
          break;
        default:
          spec.output_type = spec.arg->result_type;
      }
      specs.push_back(std::move(spec));
    }
    current = std::make_unique<AggregateNode>(
        std::move(current), std::move(group_bound), std::move(specs));
    sole_scan = nullptr;  // aggregation merges rows
    if (rewritten_having != nullptr) {
      LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                           BindExpr(*rewritten_having, current->scope()));
      current = std::make_unique<FilterNode>(std::move(current),
                                             std::move(bound));
    }
  } else if (select.having != nullptr) {
    return Status::InvalidArgument("HAVING without aggregation");
  }

  // ---- Projection. ----
  {
    std::vector<std::unique_ptr<BoundExpr>> bound_items;
    for (size_t i = 0; i < item_exprs.size(); ++i) {
      const Expr& e = has_aggregate ? *rewritten_items[i] : *item_exprs[i];
      Result<std::unique_ptr<BoundExpr>> bound = BindExpr(e, current->scope());
      if (!bound.ok()) {
        if (has_aggregate && bound.status().code() == StatusCode::kNotFound) {
          return Status::InvalidArgument(
              item_exprs[i]->ToString() +
              " must appear in GROUP BY or be used in an aggregate");
        }
        return bound.status();
      }
      bound_items.push_back(std::move(bound).value());
    }
    current = std::make_unique<ProjectNode>(
        std::move(current), std::move(bound_items), item_names);
  }

  if (select.distinct) {
    current = std::make_unique<DistinctNode>(std::move(current));
    sole_scan = nullptr;  // dedup merges rows
  }

  // ---- ORDER BY / LIMIT over the projected output. ----
  if (!select.order_by.empty() || select.limit.has_value()) {
    std::vector<SortLimitNode::SortKey> keys;
    for (const auto& o : select.order_by) {
      SortLimitNode::SortKey key;
      key.ascending = o.ascending;
      if (o.expr->kind == ExprKind::kLiteral &&
          o.expr->literal.type() == ValueType::kInt64) {
        // ORDER BY <ordinal>.
        int64_t ordinal = o.expr->literal.AsInt();
        if (ordinal < 1 || ordinal > current->scope().num_columns()) {
          return Status::InvalidArgument("ORDER BY ordinal out of range");
        }
        auto colref = std::make_unique<BoundExpr>();
        colref->kind = ExprKind::kColumnRef;
        colref->column_index = static_cast<int>(ordinal - 1);
        colref->result_type =
            current->scope().column(static_cast<int>(ordinal - 1)).type;
        key.expr = std::move(colref);
      } else {
        Result<std::unique_ptr<BoundExpr>> bound =
            BindExpr(*o.expr, current->scope());
        if (!bound.ok() && o.expr->kind == ExprKind::kColumnRef &&
            !o.expr->table.empty()) {
          // Projection output drops table qualifiers; ORDER BY t.col falls
          // back to matching the bare column name.
          std::unique_ptr<Expr> unqualified =
              sql::MakeColumnRef("", o.expr->column);
          bound = BindExpr(*unqualified, current->scope());
        }
        if (!bound.ok()) return bound.status();
        key.expr = std::move(bound).value();
      }
      keys.push_back(std::move(key));
    }
    // LIMIT pushdown: with no ORDER BY the SortLimit is a pure truncation
    // of rows the sole scan produced 1:1, so the scan may stop early at a
    // morsel boundary instead of materializing the whole table.
    if (keys.empty() && sole_scan != nullptr && select.limit.has_value() &&
        *select.limit >= 0) {
      sole_scan->set_limit_hint(*select.limit);
    }
    current = std::make_unique<SortLimitNode>(std::move(current),
                                              std::move(keys), select.limit);
  }

  SelectPlan plan;
  // Result columns may repeat names (e.g. SELECT x, x); Schema::AddColumn
  // rejects duplicates, so build the column list directly.
  std::vector<storage::Column> out_columns;
  for (const ScopeColumn& c : current->scope().columns()) {
    out_columns.push_back({c.name, c.type});
  }
  plan.output_schema = storage::Schema(std::move(out_columns));
  plan.root = std::move(current);
  return plan;
}

}  // namespace ldv::exec

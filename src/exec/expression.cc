#include "exec/expression.h"

#include <algorithm>
#include <cmath>

#include "util/strings.h"

namespace ldv::exec {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::UnaryOp;
using storage::Value;
using storage::ValueType;

Scope Scope::Concat(const Scope& left, const Scope& right) {
  Scope out = left;
  for (const ScopeColumn& c : right.columns()) out.Add(c);
  return out;
}

Result<int> Scope::Resolve(const std::string& qualifier,
                           const std::string& name) const {
  int found = -1;
  for (size_t i = 0; i < columns_.size(); ++i) {
    const ScopeColumn& c = columns_[i];
    if (!EqualsIgnoreCase(c.name, name)) continue;
    if (!qualifier.empty() && !EqualsIgnoreCase(c.qualifier, qualifier)) {
      continue;
    }
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column: " + qualifier +
                                     (qualifier.empty() ? "" : ".") + name);
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    return Status::NotFound("unknown column: " +
                            (qualifier.empty() ? name : qualifier + "." + name));
  }
  return found;
}

bool Scope::CanResolve(const std::string& qualifier,
                       const std::string& name) const {
  return Resolve(qualifier, name).ok();
}

namespace {

ValueType ArithmeticResultType(BinaryOp op, ValueType a, ValueType b) {
  if (op == BinaryOp::kDiv) return ValueType::kDouble;
  if (a == ValueType::kInt64 && b == ValueType::kInt64) {
    return ValueType::kInt64;
  }
  return ValueType::kDouble;
}

Result<ValueType> InferFuncType(const std::string& name,
                                const std::vector<std::unique_ptr<BoundExpr>>&
                                    args) {
  if (name == "COUNT") return ValueType::kInt64;
  if (name == "AVG") return ValueType::kDouble;
  if (name == "SUM" || name == "MIN" || name == "MAX" || name == "ABS" ||
      name == "COALESCE") {
    if (args.empty()) {
      return Status::InvalidArgument(name + " needs an argument");
    }
    return args[0]->result_type;
  }
  if (name == "UPPER" || name == "LOWER" || name == "SUBSTR") {
    return ValueType::kString;
  }
  if (name == "LENGTH") return ValueType::kInt64;
  return Status::NotSupported("unknown function: " + name);
}

}  // namespace

Result<std::unique_ptr<BoundExpr>> BindExpr(const Expr& expr,
                                            const Scope& scope) {
  auto out = std::make_unique<BoundExpr>();
  out->kind = expr.kind;
  out->binary_op = expr.binary_op;
  out->unary_op = expr.unary_op;
  out->negated = expr.negated;
  for (const auto& child : expr.children) {
    LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                         BindExpr(*child, scope));
    out->children.push_back(std::move(bound));
  }
  switch (expr.kind) {
    case ExprKind::kLiteral:
      out->literal = expr.literal;
      out->result_type = expr.literal.type();
      break;
    case ExprKind::kColumnRef: {
      LDV_ASSIGN_OR_RETURN(out->column_index,
                           scope.Resolve(expr.table, expr.column));
      out->result_type = scope.column(out->column_index).type;
      break;
    }
    case ExprKind::kStar:
      return Status::InvalidArgument(
          "'*' is only valid in a select list or COUNT(*)");
    case ExprKind::kUnary:
      out->result_type = (expr.unary_op == UnaryOp::kNeg)
                             ? out->children[0]->result_type
                             : ValueType::kInt64;
      break;
    case ExprKind::kBinary:
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          out->result_type =
              ArithmeticResultType(expr.binary_op,
                                   out->children[0]->result_type,
                                   out->children[1]->result_type);
          break;
        case BinaryOp::kConcat:
          out->result_type = ValueType::kString;
          break;
        default:
          out->result_type = ValueType::kInt64;  // boolean as int
      }
      break;
    case ExprKind::kBetween:
    case ExprKind::kInList:
      out->result_type = ValueType::kInt64;
      break;
    case ExprKind::kFuncCall: {
      out->func_name = expr.name;
      if (sql::IsAggregateFunction(expr.name)) {
        return Status::InvalidArgument(
            "aggregate " + expr.name +
            " is not allowed in this context (planner must rewrite it)");
      }
      LDV_ASSIGN_OR_RETURN(out->result_type,
                           InferFuncType(expr.name, out->children));
      break;
    }
    case ExprKind::kSubquery:
    case ExprKind::kExists:
      // Subqueries are evaluated (flattened to literals) by the executor
      // before binding; correlated subqueries are not supported.
      return Status::NotSupported(
          "subquery was not flattened — correlated subqueries or subqueries "
          "in this position are not supported: " + expr.ToString());
    case ExprKind::kParameter:
      if (expr.param_index < 0) {
        return Status::InvalidArgument("unnumbered parameter placeholder");
      }
      // The plan cache stamps param_type per execution's parameter-type
      // signature, so the inferred result type matches the same statement
      // with the literal inlined (NULL params bind as kNull, exactly like a
      // NULL literal).
      out->column_index = expr.param_index;
      out->result_type = expr.param_type;
      break;
  }
  return out;
}

namespace {

Result<Value> EvalBinary(const BoundExpr& expr, const storage::Tuple& row,
                         const storage::Tuple* params) {
  const BinaryOp op = expr.binary_op;
  // Short-circuit logic first, in SQL's three-valued logic: the operand
  // that decides (false for AND, true for OR) wins over NULL, and any other
  // mix involving NULL is NULL.
  if (op == BinaryOp::kAnd || op == BinaryOp::kOr) {
    const bool decider = op == BinaryOp::kOr;
    LDV_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.children[0], row, params));
    if (!lhs.is_null() && lhs.IsTruthy() == decider) {
      return Value::Int(decider);
    }
    LDV_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.children[1], row, params));
    if (!rhs.is_null() && rhs.IsTruthy() == decider) {
      return Value::Int(decider);
    }
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    return Value::Int(!decider);
  }
  LDV_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.children[0], row, params));
  LDV_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.children[1], row, params));
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe: {
      // SQL three-valued logic collapses to NULL, which WHERE treats as
      // not-qualifying.
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      LDV_ASSIGN_OR_RETURN(int cmp, lhs.Compare(rhs));
      bool v = false;
      switch (op) {
        case BinaryOp::kEq:
          v = cmp == 0;
          break;
        case BinaryOp::kNe:
          v = cmp != 0;
          break;
        case BinaryOp::kLt:
          v = cmp < 0;
          break;
        case BinaryOp::kLe:
          v = cmp <= 0;
          break;
        case BinaryOp::kGt:
          v = cmp > 0;
          break;
        case BinaryOp::kGe:
          v = cmp >= 0;
          break;
        default:
          break;
      }
      return Value::Int(v ? 1 : 0);
    }
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul:
    case BinaryOp::kDiv:
    case BinaryOp::kMod: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      if (lhs.type() == ValueType::kString || rhs.type() == ValueType::kString) {
        return Status::InvalidArgument("arithmetic on a string value");
      }
      if (op == BinaryOp::kDiv) {
        double denominator = rhs.AsDouble();
        if (denominator == 0) return Value::Null();  // SQL: error; we yield NULL
        return Value::Real(lhs.AsDouble() / denominator);
      }
      if (op == BinaryOp::kMod) {
        if (lhs.type() != ValueType::kInt64 || rhs.type() != ValueType::kInt64) {
          return Status::InvalidArgument("%% requires integers");
        }
        if (rhs.AsInt() == 0) return Value::Null();
        return Value::Int(lhs.AsInt() % rhs.AsInt());
      }
      if (lhs.type() == ValueType::kInt64 && rhs.type() == ValueType::kInt64) {
        int64_t a = lhs.AsInt();
        int64_t b = rhs.AsInt();
        switch (op) {
          case BinaryOp::kAdd:
            return Value::Int(a + b);
          case BinaryOp::kSub:
            return Value::Int(a - b);
          case BinaryOp::kMul:
            return Value::Int(a * b);
          default:
            break;
        }
      }
      double a = lhs.AsDouble();
      double b = rhs.AsDouble();
      switch (op) {
        case BinaryOp::kAdd:
          return Value::Real(a + b);
        case BinaryOp::kSub:
          return Value::Real(a - b);
        case BinaryOp::kMul:
          return Value::Real(a * b);
        default:
          break;
      }
      return Status::Internal("unreachable arithmetic");
    }
    case BinaryOp::kLike:
    case BinaryOp::kNotLike: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      if (lhs.type() != ValueType::kString ||
          rhs.type() != ValueType::kString) {
        return Status::InvalidArgument("LIKE requires strings");
      }
      bool m = SqlLikeMatch(lhs.AsString(), rhs.AsString());
      if (op == BinaryOp::kNotLike) m = !m;
      return Value::Int(m ? 1 : 0);
    }
    case BinaryOp::kConcat: {
      if (lhs.is_null() || rhs.is_null()) return Value::Null();
      return Value::Str(lhs.ToText() + rhs.ToText());
    }
    default:
      return Status::Internal("unreachable binary op");
  }
}

Result<Value> EvalFunc(const BoundExpr& expr, const storage::Tuple& row,
                       const storage::Tuple* params) {
  const std::string& name = expr.func_name;
  if (name == "COALESCE") {
    for (const auto& arg : expr.children) {
      LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*arg, row, params));
      if (!v.is_null()) return v;
    }
    return Value::Null();
  }
  if (expr.children.size() != 1 && name != "SUBSTR") {
    return Status::InvalidArgument(name + " takes one argument");
  }
  LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], row, params));
  if (v.is_null()) return Value::Null();
  if (name == "UPPER") return Value::Str(ToUpper(v.AsString()));
  if (name == "LOWER") return Value::Str(ToLower(v.AsString()));
  if (name == "LENGTH") {
    return Value::Int(static_cast<int64_t>(v.AsString().size()));
  }
  if (name == "ABS") {
    if (v.type() == ValueType::kInt64) {
      return Value::Int(v.AsInt() < 0 ? -v.AsInt() : v.AsInt());
    }
    return Value::Real(std::fabs(v.AsDouble()));
  }
  if (name == "SUBSTR") {
    if (expr.children.size() < 2 || expr.children.size() > 3) {
      return Status::InvalidArgument("SUBSTR(text, start[, len])");
    }
    LDV_ASSIGN_OR_RETURN(Value start_v, EvalExpr(*expr.children[1], row, params));
    int64_t start = start_v.AsInt();  // 1-based
    const std::string& s = v.AsString();
    if (start < 1) start = 1;
    size_t begin = static_cast<size_t>(start - 1);
    if (begin >= s.size()) return Value::Str("");
    size_t len = s.size() - begin;
    if (expr.children.size() == 3) {
      LDV_ASSIGN_OR_RETURN(Value len_v, EvalExpr(*expr.children[2], row, params));
      if (len_v.AsInt() < 0) return Value::Str("");
      len = std::min<size_t>(len, static_cast<size_t>(len_v.AsInt()));
    }
    return Value::Str(s.substr(begin, len));
  }
  return Status::NotSupported("unknown function: " + name);
}

}  // namespace

Result<Value> EvalExpr(const BoundExpr& expr, const storage::Tuple& row,
                       const storage::Tuple* params) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kParameter: {
      if (params == nullptr || expr.column_index < 0 ||
          static_cast<size_t>(expr.column_index) >= params->size()) {
        return Status::InvalidArgument(
            "parameter $" + std::to_string(expr.column_index + 1) +
            " has no bound value");
      }
      return (*params)[static_cast<size_t>(expr.column_index)];
    }
    case ExprKind::kColumnRef: {
      size_t i = static_cast<size_t>(expr.column_index);
      if (i >= row.size()) {
        return Status::Internal("column index out of range");
      }
      return row[i];
    }
    case ExprKind::kStar:
      return Status::Internal("cannot evaluate '*'");
    case ExprKind::kUnary: {
      LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], row, params));
      switch (expr.unary_op) {
        case UnaryOp::kNot:
          if (v.is_null()) return Value::Null();
          return Value::Int(v.IsTruthy() ? 0 : 1);
        case UnaryOp::kNeg:
          if (v.is_null()) return Value::Null();
          if (v.type() == ValueType::kInt64) return Value::Int(-v.AsInt());
          if (v.type() == ValueType::kDouble) return Value::Real(-v.AsDouble());
          return Status::InvalidArgument("cannot negate a string");
        case UnaryOp::kIsNull:
          return Value::Int(v.is_null() ? 1 : 0);
        case UnaryOp::kIsNotNull:
          return Value::Int(v.is_null() ? 0 : 1);
      }
      return Status::Internal("unreachable unary op");
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, row, params);
    case ExprKind::kBetween: {
      LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], row, params));
      LDV_ASSIGN_OR_RETURN(Value lo, EvalExpr(*expr.children[1], row, params));
      LDV_ASSIGN_OR_RETURN(Value hi, EvalExpr(*expr.children[2], row, params));
      if (v.is_null() || lo.is_null() || hi.is_null()) return Value::Null();
      LDV_ASSIGN_OR_RETURN(int cmp_lo, v.Compare(lo));
      LDV_ASSIGN_OR_RETURN(int cmp_hi, v.Compare(hi));
      bool in_range = cmp_lo >= 0 && cmp_hi <= 0;
      if (expr.negated) in_range = !in_range;
      return Value::Int(in_range ? 1 : 0);
    }
    case ExprKind::kInList: {
      LDV_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.children[0], row, params));
      if (v.is_null()) return Value::Null();
      for (size_t i = 1; i < expr.children.size(); ++i) {
        LDV_ASSIGN_OR_RETURN(Value item, EvalExpr(*expr.children[i], row, params));
        if (item.is_null()) continue;
        LDV_ASSIGN_OR_RETURN(int cmp, v.Compare(item));
        if (cmp == 0) return Value::Int(expr.negated ? 0 : 1);
      }
      return Value::Int(expr.negated ? 1 : 0);
    }
    case ExprKind::kFuncCall:
      return EvalFunc(expr, row, params);
    case ExprKind::kSubquery:
    case ExprKind::kExists:
      return Status::Internal("subquery reached evaluation unbound");
  }
  return Status::Internal("unreachable expression kind");
}

Result<Value> EvalConstExpr(const Expr& expr) {
  Scope empty;
  LDV_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound,
                       BindExpr(expr, empty));
  storage::Tuple no_row;
  return EvalExpr(*bound, no_row);
}

void CollectColumnRefs(const Expr& expr,
                       std::vector<std::pair<std::string, std::string>>* out) {
  if (expr.kind == ExprKind::kColumnRef) {
    out->emplace_back(expr.table, expr.column);
  }
  for (const auto& child : expr.children) CollectColumnRefs(*child, out);
}

Result<Value> CoerceValue(Value v, ValueType type) {
  if (v.is_null()) return v;
  if (v.type() == type) return v;
  if (type == ValueType::kDouble && v.type() == ValueType::kInt64) {
    return Value::Real(static_cast<double>(v.AsInt()));
  }
  if (type == ValueType::kInt64 && v.type() == ValueType::kDouble) {
    double d = v.AsDouble();
    if (d == static_cast<double>(static_cast<int64_t>(d))) {
      return Value::Int(static_cast<int64_t>(d));
    }
    return Status::InvalidArgument("cannot store non-integral " + v.ToText() +
                                   " in an INT column");
  }
  return Status::InvalidArgument(
      "cannot coerce " + std::string(ValueTypeName(v.type())) + " to " +
      std::string(ValueTypeName(type)));
}

}  // namespace ldv::exec

#include "exec/vector_expr.h"

#include <utility>

#include "common/logging.h"
#include "util/strings.h"

namespace ldv::exec {
namespace {

using sql::BinaryOp;
using sql::ExprKind;
using sql::UnaryOp;
using storage::Value;
using storage::ValueType;

/// Statically comparable: Value::Compare can never error. A kNull operand is
/// fine (every cell is NULL, so Compare's error path is unreachable).
bool Comparable(ValueType a, ValueType b) {
  if (a == ValueType::kNull || b == ValueType::kNull) return true;
  return (a == ValueType::kString) == (b == ValueType::kString);
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

void Reset(ColumnVector* out, ValueType t) {
  out->type = t;
  out->length = 0;
  out->nulls.clear();
  out->i64.clear();
  out->f64.clear();
  out->str.clear();
}

/// All-NULL result of `n` rows (a statically-NULL operand poisons the whole
/// vector, exactly as EvalExpr returns Value::Null() row by row).
void FillAllNull(size_t n, ColumnVector* out) {
  Reset(out, ValueType::kNull);
  out->length = n;
}

void Broadcast(const Value& v, size_t n, ColumnVector* out) {
  if (v.is_null()) {
    FillAllNull(n, out);
    return;
  }
  Reset(out, v.type());
  switch (v.type()) {
    case ValueType::kInt64:
      out->i64.assign(n, v.AsInt());
      break;
    case ValueType::kDouble:
      out->f64.assign(n, v.AsDouble());
      break;
    case ValueType::kString:
      // Views into the plan literal / caller's bound parameter, both of
      // which outlive the statement.
      out->str.assign(n, std::string_view(v.AsString()));
      break;
    case ValueType::kNull:
      break;
  }
  out->length = n;
}

void SliceColumn(const ColumnVector& src, size_t begin, size_t end,
                 ColumnVector* out) {
  const size_t n = end - begin;
  Reset(out, src.type);
  out->length = n;
  if (!src.nulls.empty()) {
    out->nulls.assign(src.nulls.begin() + static_cast<ptrdiff_t>(begin),
                      src.nulls.begin() + static_cast<ptrdiff_t>(end));
  }
  switch (src.type) {
    case ValueType::kInt64:
      out->i64.assign(src.i64.begin() + static_cast<ptrdiff_t>(begin),
                      src.i64.begin() + static_cast<ptrdiff_t>(end));
      break;
    case ValueType::kDouble:
      out->f64.assign(src.f64.begin() + static_cast<ptrdiff_t>(begin),
                      src.f64.begin() + static_cast<ptrdiff_t>(end));
      break;
    case ValueType::kString:
      out->str.assign(src.str.begin() + static_cast<ptrdiff_t>(begin),
                      src.str.begin() + static_cast<ptrdiff_t>(end));
      break;
    case ValueType::kNull:
      break;
  }
}

int64_t ApplyCmp(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    case BinaryOp::kGe:
      return cmp >= 0;
    default:
      return 0;
  }
}

/// Comparison kernel: NULL in -> NULL out, else Int(0/1) from the same
/// three-way comparison Value::Compare performs (int-int exact, numeric via
/// double coercion — NaN three-ways to 0, i.e. "equal", preserving the row
/// engine's quirk — and string bytewise).
void CompareKernel(BinaryOp op, const ColumnVector& l, const ColumnVector& r,
                   ColumnVector* out) {
  const size_t n = l.length;
  if (l.type == ValueType::kNull || r.type == ValueType::kNull) {
    FillAllNull(n, out);
    return;
  }
  Reset(out, ValueType::kInt64);
  out->i64.assign(n, 0);
  out->length = n;
  const bool has_null = !l.nulls.empty() || !r.nulls.empty();
  if (has_null) out->nulls.assign(n, 0);
  auto loop = [&](auto cmp3) {
    if (has_null) {
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          out->nulls[i] = 1;
        } else {
          out->i64[i] = ApplyCmp(op, cmp3(i));
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) out->i64[i] = ApplyCmp(op, cmp3(i));
    }
  };
  if (l.type == ValueType::kString) {
    loop([&](size_t i) {
      const int c = l.str[i].compare(r.str[i]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    });
  } else if (l.type == ValueType::kInt64 && r.type == ValueType::kInt64) {
    loop([&](size_t i) {
      return l.i64[i] < r.i64[i] ? -1 : (l.i64[i] > r.i64[i] ? 1 : 0);
    });
  } else {
    loop([&](size_t i) {
      const double a = l.AsF64(i);
      const double b = r.AsF64(i);
      return a < b ? -1 : (a > b ? 1 : 0);
    });
  }
}

void ArithmeticKernel(BinaryOp op, const ColumnVector& l,
                      const ColumnVector& r, ColumnVector* out) {
  const size_t n = l.length;
  if (l.type == ValueType::kNull || r.type == ValueType::kNull) {
    FillAllNull(n, out);
    return;
  }
  const bool has_null = !l.nulls.empty() || !r.nulls.empty();

  if (op == BinaryOp::kMod) {
    // Both sides statically kInt64; x % 0 is NULL (checked before dividing,
    // so there is no UB path).
    Reset(out, ValueType::kInt64);
    out->i64.assign(n, 0);
    out->length = n;
    out->nulls.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if ((has_null && (l.IsNull(i) || r.IsNull(i))) || r.i64[i] == 0) {
        out->nulls[i] = 1;
      } else {
        out->i64[i] = l.i64[i] % r.i64[i];
      }
    }
    return;
  }
  if (op == BinaryOp::kDiv) {
    // Division always yields a double; x / 0 is NULL.
    Reset(out, ValueType::kDouble);
    out->f64.assign(n, 0);
    out->length = n;
    out->nulls.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (has_null && (l.IsNull(i) || r.IsNull(i))) {
        out->nulls[i] = 1;
        continue;
      }
      const double d = r.AsF64(i);
      if (d == 0) {
        out->nulls[i] = 1;
      } else {
        out->f64[i] = l.AsF64(i) / d;
      }
    }
    return;
  }

  if (l.type == ValueType::kInt64 && r.type == ValueType::kInt64) {
    Reset(out, ValueType::kInt64);
    out->i64.assign(n, 0);
    out->length = n;
    if (has_null) out->nulls.assign(n, 0);
    auto loop = [&](auto fn) {
      if (has_null) {
        for (size_t i = 0; i < n; ++i) {
          if (l.IsNull(i) || r.IsNull(i)) {
            out->nulls[i] = 1;
          } else {
            out->i64[i] = fn(l.i64[i], r.i64[i]);
          }
        }
      } else {
        for (size_t i = 0; i < n; ++i) out->i64[i] = fn(l.i64[i], r.i64[i]);
      }
    };
    switch (op) {
      case BinaryOp::kAdd:
        loop([](int64_t a, int64_t b) { return a + b; });
        break;
      case BinaryOp::kSub:
        loop([](int64_t a, int64_t b) { return a - b; });
        break;
      default:
        loop([](int64_t a, int64_t b) { return a * b; });
        break;
    }
    return;
  }

  Reset(out, ValueType::kDouble);
  out->f64.assign(n, 0);
  out->length = n;
  if (has_null) out->nulls.assign(n, 0);
  auto loop = [&](auto fn) {
    if (has_null) {
      for (size_t i = 0; i < n; ++i) {
        if (l.IsNull(i) || r.IsNull(i)) {
          out->nulls[i] = 1;
        } else {
          out->f64[i] = fn(l.AsF64(i), r.AsF64(i));
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) out->f64[i] = fn(l.AsF64(i), r.AsF64(i));
    }
  };
  switch (op) {
    case BinaryOp::kAdd:
      loop([](double a, double b) { return a + b; });
      break;
    case BinaryOp::kSub:
      loop([](double a, double b) { return a - b; });
      break;
    default:
      loop([](double a, double b) { return a * b; });
      break;
  }
}

void LikeKernel(bool negated, const ColumnVector& l, const ColumnVector& r,
                ColumnVector* out) {
  const size_t n = l.length;
  if (l.type == ValueType::kNull || r.type == ValueType::kNull) {
    FillAllNull(n, out);
    return;
  }
  Reset(out, ValueType::kInt64);
  out->i64.assign(n, 0);
  out->length = n;
  const bool has_null = !l.nulls.empty() || !r.nulls.empty();
  if (has_null) out->nulls.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (has_null && (l.IsNull(i) || r.IsNull(i))) {
      out->nulls[i] = 1;
      continue;
    }
    const bool m = SqlLikeMatch(l.str[i], r.str[i]);
    out->i64[i] = negated ? !m : m;
  }
}

/// AND/OR in SQL's three-valued logic, row for row as EvalBinary: the
/// operand that decides (false for AND, true for OR) wins over NULL, and any
/// other mix involving NULL is NULL.
void LogicalKernel(BinaryOp op, const ColumnVector& l, const ColumnVector& r,
                   ColumnVector* out) {
  const size_t n = l.length;
  const uint8_t decider = op == BinaryOp::kOr;
  std::vector<uint8_t> lt, rt;
  VectorTruthy(l, &lt);
  VectorTruthy(r, &rt);
  Reset(out, ValueType::kInt64);
  out->i64.assign(n, !decider);
  out->length = n;
  const bool has_null = l.type == ValueType::kNull ||
                        r.type == ValueType::kNull || !l.nulls.empty() ||
                        !r.nulls.empty();
  if (has_null) out->nulls.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const bool l_null = has_null && l.IsNull(i);
    const bool r_null = has_null && r.IsNull(i);
    if ((!l_null && lt[i] == decider) || (!r_null && rt[i] == decider)) {
      out->i64[i] = decider;
    } else if (l_null || r_null) {
      out->nulls[i] = 1;
    }
  }
}

void UnaryKernel(const BoundExpr& e, const ColumnVector& c,
                 ColumnVector* out) {
  const size_t n = c.length;
  switch (e.unary_op) {
    case UnaryOp::kIsNull:
    case UnaryOp::kIsNotNull: {
      const bool want_null = e.unary_op == UnaryOp::kIsNull;
      Reset(out, ValueType::kInt64);
      out->i64.assign(n, 0);
      out->length = n;
      for (size_t i = 0; i < n; ++i) {
        out->i64[i] = c.IsNull(i) == want_null;
      }
      return;
    }
    case UnaryOp::kNot: {
      if (c.type == ValueType::kNull) {
        FillAllNull(n, out);
        return;
      }
      std::vector<uint8_t> t;
      VectorTruthy(c, &t);
      Reset(out, ValueType::kInt64);
      out->i64.assign(n, 0);
      out->length = n;
      if (!c.nulls.empty()) out->nulls = c.nulls;  // NULL passes through
      for (size_t i = 0; i < n; ++i) out->i64[i] = !t[i];
      return;
    }
    case UnaryOp::kNeg: {
      if (c.type == ValueType::kNull) {
        FillAllNull(n, out);
        return;
      }
      Reset(out, c.type);
      out->length = n;
      out->nulls = c.nulls;
      if (c.type == ValueType::kInt64) {
        out->i64.assign(n, 0);
        for (size_t i = 0; i < n; ++i) out->i64[i] = -c.i64[i];
      } else {
        out->f64.assign(n, 0);
        for (size_t i = 0; i < n; ++i) out->f64[i] = -c.f64[i];
      }
      return;
    }
  }
}

void BetweenKernel(const BoundExpr& e, const ColumnVector& v,
                   const ColumnVector& lo, const ColumnVector& hi,
                   ColumnVector* out) {
  const size_t n = v.length;
  Reset(out, ValueType::kInt64);
  out->i64.assign(n, 0);
  out->length = n;
  const bool has_null = v.type == ValueType::kNull ||
                        lo.type == ValueType::kNull ||
                        hi.type == ValueType::kNull || !v.nulls.empty() ||
                        !lo.nulls.empty() || !hi.nulls.empty();
  if (has_null) out->nulls.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (has_null && (v.IsNull(i) || lo.IsNull(i) || hi.IsNull(i))) {
      out->nulls[i] = 1;
      continue;
    }
    const bool in = CompareCells(v, i, lo, i) >= 0 &&
                    CompareCells(v, i, hi, i) <= 0;
    out->i64[i] = e.negated ? !in : in;
  }
}

}  // namespace

bool CanVectorizeExpr(const BoundExpr& expr, const storage::Tuple* params) {
  for (const auto& child : expr.children) {
    if (!CanVectorizeExpr(*child, params)) return false;
  }
  switch (expr.kind) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return true;
    case ExprKind::kParameter:
      // The kernel broadcasts the bound value; if its runtime type diverged
      // from the plan-stamped type the static checks below would be judging
      // the wrong type, so fall back to the row engine in that case.
      return params != nullptr && expr.column_index >= 0 &&
             static_cast<size_t>(expr.column_index) < params->size() &&
             (*params)[static_cast<size_t>(expr.column_index)].type() ==
                 expr.result_type;
    case ExprKind::kUnary:
      if (expr.unary_op == UnaryOp::kNeg) {
        return expr.children[0]->result_type != ValueType::kString;
      }
      return true;
    case ExprKind::kBinary: {
      const ValueType a = expr.children[0]->result_type;
      const ValueType b = expr.children[1]->result_type;
      switch (expr.binary_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          return true;
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return Comparable(a, b);
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          return a != ValueType::kString && b != ValueType::kString;
        case BinaryOp::kMod:
          return (a == ValueType::kInt64 || a == ValueType::kNull) &&
                 (b == ValueType::kInt64 || b == ValueType::kNull);
        case BinaryOp::kLike:
        case BinaryOp::kNotLike:
          return (a == ValueType::kString || a == ValueType::kNull) &&
                 (b == ValueType::kString || b == ValueType::kNull);
        case BinaryOp::kConcat:
          return false;  // would materialize strings; row engine handles it
      }
      return false;
    }
    case ExprKind::kBetween: {
      const ValueType v = expr.children[0]->result_type;
      return Comparable(v, expr.children[1]->result_type) &&
             Comparable(v, expr.children[2]->result_type);
    }
    case ExprKind::kInList: {
      const ValueType probe = expr.children[0]->result_type;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        if (!Comparable(probe, expr.children[i]->result_type)) return false;
      }
      return true;
    }
    case ExprKind::kStar:
    case ExprKind::kFuncCall:
    case ExprKind::kSubquery:
    case ExprKind::kExists:
      return false;
  }
  return false;
}

void EvalVector(const BoundExpr& expr, const ColumnBatch& batch, size_t begin,
                size_t end, const storage::Tuple* params, ColumnVector* out) {
  const size_t n = end - begin;
  switch (expr.kind) {
    case ExprKind::kLiteral:
      Broadcast(expr.literal, n, out);
      return;
    case ExprKind::kParameter:
      Broadcast((*params)[static_cast<size_t>(expr.column_index)], n, out);
      return;
    case ExprKind::kColumnRef:
      SliceColumn(batch.cols[static_cast<size_t>(expr.column_index)], begin,
                  end, out);
      return;
    case ExprKind::kUnary: {
      ColumnVector c;
      EvalVector(*expr.children[0], batch, begin, end, params, &c);
      UnaryKernel(expr, c, out);
      return;
    }
    case ExprKind::kBinary: {
      ColumnVector l, r;
      EvalVector(*expr.children[0], batch, begin, end, params, &l);
      EvalVector(*expr.children[1], batch, begin, end, params, &r);
      if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
        LogicalKernel(expr.binary_op, l, r, out);
      } else if (IsComparison(expr.binary_op)) {
        CompareKernel(expr.binary_op, l, r, out);
      } else if (expr.binary_op == BinaryOp::kLike ||
                 expr.binary_op == BinaryOp::kNotLike) {
        LikeKernel(expr.binary_op == BinaryOp::kNotLike, l, r, out);
      } else {
        ArithmeticKernel(expr.binary_op, l, r, out);
      }
      return;
    }
    case ExprKind::kBetween: {
      ColumnVector v, lo, hi;
      EvalVector(*expr.children[0], batch, begin, end, params, &v);
      EvalVector(*expr.children[1], batch, begin, end, params, &lo);
      EvalVector(*expr.children[2], batch, begin, end, params, &hi);
      BetweenKernel(expr, v, lo, hi, out);
      return;
    }
    case ExprKind::kInList: {
      std::vector<ColumnVector> vals(expr.children.size());
      for (size_t c = 0; c < expr.children.size(); ++c) {
        EvalVector(*expr.children[c], batch, begin, end, params, &vals[c]);
      }
      const ColumnVector& probe = vals[0];
      Reset(out, ValueType::kInt64);
      out->i64.assign(n, 0);
      out->length = n;
      const bool probe_nullable =
          probe.type == ValueType::kNull || !probe.nulls.empty();
      if (probe_nullable) out->nulls.assign(n, 0);
      for (size_t i = 0; i < n; ++i) {
        if (probe_nullable && probe.IsNull(i)) {
          out->nulls[i] = 1;
          continue;
        }
        bool matched = false;
        for (size_t c = 1; c < vals.size(); ++c) {
          if (vals[c].IsNull(i)) continue;  // NULL list items are skipped
          if (CompareCells(probe, i, vals[c], i) == 0) {
            matched = true;
            break;
          }
        }
        out->i64[i] = matched ? !expr.negated : expr.negated;
      }
      return;
    }
    case ExprKind::kStar:
    case ExprKind::kFuncCall:
    case ExprKind::kSubquery:
    case ExprKind::kExists:
      break;
  }
  LDV_CHECK(false);  // CanVectorizeExpr must have rejected this tree
}

void VectorTruthy(const ColumnVector& v, std::vector<uint8_t>* out) {
  out->assign(v.length, 0);
  switch (v.type) {
    case ValueType::kNull:
      return;
    case ValueType::kInt64:
      for (size_t i = 0; i < v.length; ++i) {
        (*out)[i] = !v.IsNull(i) && v.i64[i] != 0;
      }
      return;
    case ValueType::kDouble:
      for (size_t i = 0; i < v.length; ++i) {
        (*out)[i] = !v.IsNull(i) && v.f64[i] != 0;
      }
      return;
    case ValueType::kString:
      for (size_t i = 0; i < v.length; ++i) {
        (*out)[i] = !v.IsNull(i) && !v.str[i].empty();
      }
      return;
  }
}

}  // namespace ldv::exec

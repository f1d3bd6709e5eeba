#ifndef LDV_STORAGE_VALUE_H_
#define LDV_STORAGE_VALUE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "util/serde.h"

namespace ldv::storage {

/// Column/value types supported by the engine. Dates are stored as ISO-8601
/// strings (lexicographic order equals chronological order), which is all
/// the TPC-H workload needs.
enum class ValueType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

std::string_view ValueTypeName(ValueType type);

/// Parses a SQL type name (INT, BIGINT, DOUBLE, DECIMAL, VARCHAR, TEXT,
/// DATE, ...) into a ValueType.
Result<ValueType> ValueTypeFromSqlName(std::string_view name);

/// A single SQL value: NULL, 64-bit integer, double, or string.
class Value {
 public:
  /// NULL by default.
  Value() : type_(ValueType::kNull) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v);
  static Value Real(double v);
  static Value Str(std::string v);
  static Value Bool(bool b) { return Int(b ? 1 : 0); }

  ValueType type() const { return type_; }
  bool is_null() const { return type_ == ValueType::kNull; }

  /// Typed accessors; type must match.
  int64_t AsInt() const;
  double AsDouble() const;  // accepts kInt64 too (widening)
  const std::string& AsString() const;

  /// Truthiness for WHERE clauses: non-zero numeric; NULL is false.
  bool IsTruthy() const;

  /// Three-way comparison with numeric coercion between int and double.
  /// NULLs sort first. Comparing a string with a number is an error.
  Result<int> Compare(const Value& other) const;

  /// Structural equality (same type and payload; int 1 != double 1.0).
  bool operator==(const Value& other) const;

  /// Display / CSV form. NULL renders as empty string; see FromText.
  std::string ToText() const;

  /// Parses a CSV/text field into a value of `type`. Empty string parses to
  /// NULL for numeric types and to the empty string for kString.
  static Result<Value> FromText(ValueType type, std::string_view text);

  void Serialize(BufferWriter* w) const;
  static Result<Value> Deserialize(BufferReader* r);

  /// Hash compatible with operator==.
  uint64_t Hash() const;

 private:
  ValueType type_;
  int64_t int_ = 0;
  double double_ = 0;
  std::string string_;
};

/// A row of values.
using Tuple = std::vector<Value>;

/// Per-type hash primitives. `Value::Hash()` and the vectorized kernels are
/// both built on these so a columnar cell hashes to exactly the same bits as
/// the equivalent `Value` — hash-join/aggregate/distinct tables built from
/// either representation agree. Kept `inline` so the hot kernels pay no call.
inline constexpr uint64_t kNullValueHash = 0x9E3779B97F4A7C15ULL;
inline constexpr uint64_t kTupleHashSeed = 14695981039346656037ULL;

uint64_t HashInt64Value(int64_t v);
uint64_t HashDoubleValue(double v);
uint64_t HashStringValue(std::string_view v);

/// Folds one value hash into a running tuple hash (order-sensitive); start
/// from kTupleHashSeed. Matches HashTuple exactly.
inline uint64_t CombineValueHash(uint64_t h, uint64_t value_hash) {
  return h ^ (value_hash + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

/// Hash of a whole tuple (order-sensitive).
uint64_t HashTuple(const Tuple& t);

/// Renders "(v1, v2, ...)".
std::string TupleToText(const Tuple& t);

/// Shortest decimal rendering of `v` that parses back to exactly `v`
/// (0.1 + 0.2 renders as "0.30000000000000004", 0.25 as "0.25"). Integral
/// values carry no fraction ("5"). Value::ToText and SQL literal rendering
/// both use it, so packaged and logged doubles round-trip bit-exactly.
std::string RenderDouble(double v);

}  // namespace ldv::storage

#endif  // LDV_STORAGE_VALUE_H_

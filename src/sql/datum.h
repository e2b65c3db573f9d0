// Datum: a single SQL value (possibly NULL) with runtime type tag.
#ifndef CITUSX_SQL_DATUM_H_
#define CITUSX_SQL_DATUM_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "sql/json.h"
#include "sql/types.h"

namespace citusx::sql {

/// `d` truncated toward zero and clamped to the int64 range; NaN gives 0.
/// (Casting an out-of-range double to int64 is undefined behaviour.)
inline int64_t SaturatingInt64(double d) {
  if (std::isnan(d)) return 0;
  if (d >= 0x1p63) return std::numeric_limits<int64_t>::max();
  if (d < -0x1p63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(d);
}

/// A runtime SQL value. 32 bytes: a type tag, one 8-byte slot holding the
/// int64 or the double, and a reference-counted immutable payload (the
/// std::string of a text value, the Json of a jsonb value). Copying never
/// allocates; copies of a text/jsonb value share its payload.
class Datum {
 public:
  /// SQL NULL (type kNull).
  Datum() = default;

  static Datum Null() { return Datum(); }
  static Datum Bool(bool b) {
    Datum d;
    d.type_ = TypeId::kBool;
    d.i_ = b ? 1 : 0;
    return d;
  }
  static Datum Int4(int32_t v) {
    Datum d;
    d.type_ = TypeId::kInt4;
    d.i_ = v;
    return d;
  }
  static Datum Int8(int64_t v) {
    Datum d;
    d.type_ = TypeId::kInt8;
    d.i_ = v;
    return d;
  }
  static Datum Float8(double v) {
    Datum d;
    d.type_ = TypeId::kFloat8;
    d.d_ = v;
    return d;
  }
  static Datum Text(std::string s) {
    Datum d;
    d.type_ = TypeId::kText;
    // The empty string needs no payload (text_value() reads it as "").
    if (!s.empty()) {
      d.payload_ = std::make_shared<const std::string>(std::move(s));
    }
    return d;
  }
  /// Days since 2000-01-01.
  static Datum Date(int64_t days) {
    Datum d;
    d.type_ = TypeId::kDate;
    d.i_ = days;
    return d;
  }
  /// Microseconds since 2000-01-01.
  static Datum Timestamp(int64_t micros) {
    Datum d;
    d.type_ = TypeId::kTimestamp;
    d.i_ = micros;
    return d;
  }
  static Datum Jsonb(JsonPtr j) {
    Datum d;
    d.type_ = TypeId::kJsonb;
    d.payload_ = std::move(j);
    return d;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  // Accessors of another type's payload read as 0 / false / "" / null.
  bool bool_value() const { return int_value() != 0; }
  /// Raw int64 payload (int4/int8/bool/date/timestamp).
  int64_t int_value() const { return type_ == TypeId::kFloat8 ? 0 : i_; }
  double float_value() const { return type_ == TypeId::kFloat8 ? d_ : 0; }
  const std::string& text_value() const {
    return type_ == TypeId::kText && payload_ != nullptr
               ? *static_cast<const std::string*>(payload_.get())
               : kEmptyText;
  }
  JsonPtr json_value() const {
    return type_ == TypeId::kJsonb
               ? std::static_pointer_cast<const Json>(payload_)
               : nullptr;
  }

  /// Numeric value as double (int types widen); 0 for non-numerics.
  double AsDouble() const {
    return type_ == TypeId::kFloat8 ? d_ : static_cast<double>(i_);
  }
  /// Numeric value as int64 (float truncates, see SaturatingInt64).
  int64_t AsInt64() const {
    return type_ == TypeId::kFloat8 ? SaturatingInt64(d_) : i_;
  }

  /// Three-way comparison with numeric cross-type coercion. NULLs sort last.
  /// Values of incomparable types order by type id (stable, for sorting).
  static int Compare(const Datum& a, const Datum& b);

  /// SQL equality (used by joins, group by). NULL != NULL here.
  static bool Equal(const Datum& a, const Datum& b) {
    if (a.is_null() || b.is_null()) return false;
    return Compare(a, b) == 0;
  }

  /// Hash for hash-partitioning / hash joins. NULL hashes to 0.
  int32_t PartitionHash() const;

  /// Key for hash tables (group by / hash join): type-stable string encoding.
  std::string GroupKey() const;

  /// Cast-to-text semantics (PostgreSQL ::text).
  std::string ToText() const;

  /// A SQL literal that re-parses to this value (used when deparsing
  /// queries sent to worker nodes).
  std::string ToSqlLiteral() const;

  /// Parse a text representation into a value of `type` (COPY / casts).
  static Result<Datum> FromText(TypeId type, const std::string& text);

  /// Cast this value to `target`. Implements the ::type operator.
  Result<Datum> CastTo(TypeId target) const;

  /// Approximate in-memory/on-disk size for block accounting.
  int64_t PhysicalSize() const;

 private:
  static const std::string kEmptyText;

  /// The Json of a kJsonb value (null for a null JsonPtr).
  const Json* json() const { return static_cast<const Json*>(payload_.get()); }
  /// A kJsonb value's serialization ("null" for a null JsonPtr).
  std::string JsonText() const { return json() ? json()->ToString() : "null"; }

  TypeId type_ = TypeId::kNull;
  // Non-float types keep i_ (0 unless set); kFloat8 keeps d_.
  union {
    int64_t i_ = 0;
    double d_;
  };
  std::shared_ptr<const void> payload_;
};

/// One tuple.
using Row = std::vector<Datum>;

// ---- date/time helpers (epoch = 2000-01-01, like PostgreSQL) ----

/// Convert y/m/d to days since 2000-01-01.
int64_t CivilToDays(int year, int month, int day);
/// Convert days since 2000-01-01 to y/m/d.
void DaysToCivil(int64_t days, int* year, int* month, int* day);
/// "YYYY-MM-DD".
std::string FormatDate(int64_t days);
/// "YYYY-MM-DD HH:MM:SS[.ffffff]".
std::string FormatTimestamp(int64_t micros);
/// Parse "YYYY-MM-DD" (extra characters after the date are ignored).
Result<int64_t> ParseDate(const std::string& s);
/// Parse "YYYY-MM-DD[ T]HH:MM:SS[.ffffff][Z]"; time part optional.
Result<int64_t> ParseTimestamp(const std::string& s);

}  // namespace citusx::sql

#endif  // CITUSX_SQL_DATUM_H_

// Unit tests for sql::Datum's representation: the value is small and a copy
// shares its text/jsonb payload, while every observable output (accessors,
// comparison, hashing, group keys, literals, sizes, casts) is pinned to a
// fixed table so a change of layout cannot change what callers see.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "sql/datum.h"
#include "sql/json.h"

namespace citusx::sql {
namespace {

JsonPtr SampleJson() {
  return Json::Parse("{\"a\":[1,2.5],\"b\":\"x\"}").value();
}

struct NamedDatum {
  const char* name;
  Datum value;
};

// The values every table below is indexed by, in this order.
std::vector<NamedDatum> Values() {
  return {
      {"null", Datum::Null()},
      {"bool_false", Datum::Bool(false)},
      {"bool_true", Datum::Bool(true)},
      {"int4_neg", Datum::Int4(-7)},
      {"int8", Datum::Int8(42)},
      {"float_negzero", Datum::Float8(-0.0)},
      {"float_zero", Datum::Float8(0.0)},
      {"float_nan", Datum::Float8(std::numeric_limits<double>::quiet_NaN())},
      {"float_frac", Datum::Float8(2.5)},
      {"float_big", Datum::Float8(1e20)},
      {"text_empty", Datum::Text("")},
      {"text_short", Datum::Text("it's")},
      {"text_long", Datum::Text("a text value longer than 15 bytes")},
      {"jsonb", Datum::Jsonb(SampleJson())},
      {"jsonb_nullptr", Datum::Jsonb(nullptr)},
      {"date", Datum::Date(CivilToDays(1998, 12, 1))},
      {"timestamp",
       Datum::Timestamp(ParseTimestamp("1998-12-01 12:34:56.5").value())},
  };
}

TEST(DatumLayout, IsAtMost32Bytes) { EXPECT_LE(sizeof(Datum), 32u); }

TEST(DatumLayout, CopySharesTextPayload) {
  Datum original = Datum::Text("a text value longer than 15 bytes");
  Datum copy = original;
  EXPECT_EQ(copy.text_value().data(), original.text_value().data());
  Datum assigned;
  assigned = original;
  EXPECT_EQ(assigned.text_value().data(), original.text_value().data());
  std::vector<Datum> row(3, original);
  for (const Datum& d : row) {
    EXPECT_EQ(d.text_value().data(), original.text_value().data());
  }
}

TEST(DatumLayout, CopySharesJsonbPayload) {
  JsonPtr j = SampleJson();
  Datum original = Datum::Jsonb(j);
  Datum copy = original;
  EXPECT_EQ(original.json_value().get(), j.get());
  EXPECT_EQ(copy.json_value().get(), j.get());
}

TEST(DatumLayout, PayloadOutlivesItsFirstOwner) {
  Datum copy;
  {
    Datum original = Datum::Text("a text value longer than 15 bytes");
    copy = original;
  }
  EXPECT_EQ(copy.text_value(), "a text value longer than 15 bytes");
  Datum moved = std::move(copy);
  EXPECT_EQ(moved.text_value(), "a text value longer than 15 bytes");
}

TEST(DatumAccessors, WrongTypeAccessorsReadZeroOrEmpty) {
  // Accessors of another type's payload read as zero / false / empty.
  Datum f = Datum::Float8(2.5);
  EXPECT_EQ(f.int_value(), 0);
  EXPECT_FALSE(f.bool_value());
  EXPECT_EQ(f.text_value(), "");
  EXPECT_EQ(f.json_value(), nullptr);
  EXPECT_EQ(f.AsDouble(), 2.5);
  EXPECT_EQ(f.AsInt64(), 2);

  Datum i = Datum::Int8(42);
  EXPECT_EQ(i.float_value(), 0.0);
  EXPECT_EQ(i.text_value(), "");
  EXPECT_TRUE(i.bool_value());
  EXPECT_EQ(i.AsDouble(), 42.0);

  Datum t = Datum::Text("a text value longer than 15 bytes");
  EXPECT_EQ(t.int_value(), 0);
  EXPECT_FALSE(t.bool_value());
  EXPECT_EQ(t.float_value(), 0.0);
  EXPECT_EQ(t.AsDouble(), 0.0);
  EXPECT_EQ(t.AsInt64(), 0);
  EXPECT_EQ(t.json_value(), nullptr);

  Datum j = Datum::Jsonb(SampleJson());
  EXPECT_EQ(j.int_value(), 0);
  EXPECT_FALSE(j.bool_value());
  EXPECT_EQ(j.float_value(), 0.0);
  EXPECT_EQ(j.text_value(), "");

  Datum n = Datum::Null();
  EXPECT_EQ(n.int_value(), 0);
  EXPECT_FALSE(n.bool_value());
  EXPECT_EQ(n.float_value(), 0.0);
  EXPECT_EQ(n.text_value(), "");
  EXPECT_EQ(n.json_value(), nullptr);
  EXPECT_EQ(Datum::Jsonb(nullptr).json_value(), nullptr);

  Datum d = Datum::Date(-396);
  EXPECT_EQ(d.int_value(), -396);
  EXPECT_EQ(d.float_value(), 0.0);
  EXPECT_TRUE(d.bool_value());
  EXPECT_FALSE(Datum::Bool(false).bool_value());
  EXPECT_EQ(Datum::Bool(true).int_value(), 1);
}

struct Expected {
  const char* name;
  std::string group_key;
  int32_t partition_hash;
  std::string sql_literal;
  std::string text;
  int64_t physical_size;
};

TEST(DatumOutputs, PinnedTable) {
  // The hash of a float hashes d * 1e6 as a saturated int64: NaN hashes
  // like 0, and 1e20 like INT64_MAX.
  const std::vector<Expected> expected = {
      {"null", "", 0, "NULL", "", 1},
      {"bool_false", "I0", 2065550767, "FALSE", "false", 1},
      {"bool_true", "I1", -1996333887, "TRUE", "true", 1},
      {"int4_neg", "I-7", 1132603760, "-7", "-7", 4},
      {"int8", "I42", 803958421, "42", "42", 8},
      {"float_negzero", "F-0", 2065550767, "-0", "0", 8},
      {"float_zero", "F0", 2065550767, "0", "0", 8},
      {"float_nan", "Fnan", 2065550767, "nan", "nan", 8},
      {"float_frac", "F2.5", -47027319, "2.5", "2.5", 8},
      {"float_big", "F1e+20", 771989159, "1e+20", "1e+20", 8},
      {"text_empty", "T", -211297685, "''", "", 4},
      {"text_short", "Tit's", 1135363781, "'it''s'", "it's", 8},
      {"text_long", "Ta text value longer than 15 bytes", -1497269227,
       "'a text value longer than 15 bytes'",
       "a text value longer than 15 bytes", 37},
      {"jsonb", "J{\"a\":[1,2.5],\"b\":\"x\"}", -849325990,
       "'{\"a\":[1,2.5],\"b\":\"x\"}'::jsonb", "{\"a\":[1,2.5],\"b\":\"x\"}",
       35},
      {"jsonb_nullptr", "Jnull", 1467122111, "'null'::jsonb", "null", 4},
      {"date", "I-396", 32844752, "'1998-12-01'::date", "1998-12-01", 8},
      {"timestamp", "I-34169103500000", -859871118,
       "'1998-12-01 12:34:56.500000'::timestamp",
       "1998-12-01 12:34:56.500000", 8},
  };
  std::vector<NamedDatum> values = Values();
  ASSERT_EQ(values.size(), expected.size());
  for (size_t i = 0; i < values.size(); i++) {
    const Datum& d = values[i].value;
    const Expected& e = expected[i];
    ASSERT_STREQ(values[i].name, e.name);
    EXPECT_EQ(d.GroupKey(), e.group_key) << e.name;
    EXPECT_EQ(d.PartitionHash(), e.partition_hash) << e.name;
    EXPECT_EQ(d.ToSqlLiteral(), e.sql_literal) << e.name;
    EXPECT_EQ(d.ToText(), e.text) << e.name;
    EXPECT_EQ(d.PhysicalSize(), e.physical_size) << e.name;
    // A copy answers identically.
    Datum copy = d;
    EXPECT_EQ(copy.GroupKey(), e.group_key) << e.name;
    EXPECT_EQ(copy.PhysicalSize(), e.physical_size) << e.name;
    EXPECT_EQ(Datum::Compare(copy, d), 0) << e.name;
  }
}

TEST(DatumOutputs, OutOfRangeFloatsSaturate) {
  // Floats whose int64 conversion is out of range (NaN, the infinities,
  // |d * 1e6| >= 2^63) hash and convert to defined values; in-range values
  // keep plain truncation.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  EXPECT_EQ(Datum::Float8(nan).PartitionHash(), 2065550767);
  EXPECT_EQ(Datum::Float8(inf).PartitionHash(), 771989159);
  EXPECT_EQ(Datum::Float8(1e20).PartitionHash(), 771989159);
  EXPECT_EQ(Datum::Float8(-inf).PartitionHash(), 313127899);
  EXPECT_EQ(Datum::Float8(-1e20).PartitionHash(), 313127899);
  EXPECT_EQ(Datum::Float8(nan).AsInt64(), 0);
  EXPECT_EQ(Datum::Float8(inf).AsInt64(), max);
  EXPECT_EQ(Datum::Float8(-inf).AsInt64(), min);
  EXPECT_EQ(Datum::Float8(1e20).AsInt64(), max);
  EXPECT_EQ(Datum::Float8(-0x1p63).AsInt64(), min);
  EXPECT_EQ(Datum::Float8(-2.9).AsInt64(), -2);
  EXPECT_EQ(Datum::Float8(9.2e12).PartitionHash(),
            Datum::Int8(9200000000000000000).PartitionHash());
}

TEST(DatumOutputs, PinnedCompareMatrix) {
  // Row i, column j is the sign of Compare(values[i], values[j]).
  const std::vector<std::string> expected = {
      "=>>>>>>>>>>>>>>>>",  // null
      "<=<<<<<<<<<<<<<<<",  // bool_false
      "<>=<<<<<<<<<<<<<<",  // bool_true
      "<>>=<<<=<<<<<<<<<",  // int4_neg
      "<>>>=>>=><<<<<<<<",  // int8
      "<>>><===<<<<<<<<<",  // float_negzero
      "<>>><===<<<<<<<<<",  // float_zero
      "<>>=======<<<<<<<",  // float_nan
      "<>>><>>==<<<<<<<<",  // float_frac
      "<>>>>>>=>=<<<<<<<",  // float_big
      "<>>>>>>>>>=<<<<<<",  // text_empty
      "<>>>>>>>>>>=><<<<",  // text_short
      "<>>>>>>>>>><=<<<<",  // text_long
      "<>>>>>>>>>>>>=>>>",  // jsonb
      "<>>>>>>>>>>>><=>>",  // jsonb_nullptr
      "<>>>>>>>>>>>><<=<",  // date
      "<>>>>>>>>>>>><<>=",  // timestamp
  };
  std::vector<NamedDatum> values = Values();
  ASSERT_EQ(values.size(), expected.size());
  for (size_t i = 0; i < values.size(); i++) {
    std::string row;
    for (size_t j = 0; j < values.size(); j++) {
      int c = Datum::Compare(values[i].value, values[j].value);
      row += c < 0 ? '<' : (c > 0 ? '>' : '=');
    }
    EXPECT_EQ(row, expected[i]) << values[i].name;
  }
}

TEST(DatumOutputs, PinnedCasts) {
  auto cast = [](const Datum& d, TypeId t) {
    Result<Datum> r = d.CastTo(t);
    return r.ok() ? r->ToSqlLiteral() : "error";
  };
  EXPECT_EQ(cast(Datum::Float8(-0.0), TypeId::kText), "'0'");
  EXPECT_EQ(cast(Datum::Float8(2.5), TypeId::kInt8), "2");
  EXPECT_EQ(cast(Datum::Float8(2.5), TypeId::kInt4), "2");
  EXPECT_EQ(cast(Datum::Int4(-7), TypeId::kFloat8), "-7");
  EXPECT_EQ(cast(Datum::Int8(42), TypeId::kBool), "TRUE");
  EXPECT_EQ(cast(Datum::Bool(true), TypeId::kInt4), "1");
  EXPECT_EQ(cast(Datum::Text("17"), TypeId::kInt8), "17");
  EXPECT_EQ(cast(Datum::Text("1.5"), TypeId::kFloat8), "1.5");
  EXPECT_EQ(cast(Datum::Text("yes"), TypeId::kBool), "TRUE");
  EXPECT_EQ(cast(Datum::Text("1998-12-01"), TypeId::kDate),
            "'1998-12-01'::date");
  EXPECT_EQ(cast(Datum::Text("[1, 2]"), TypeId::kJsonb), "'[1,2]'::jsonb");
  EXPECT_EQ(cast(Datum::Text("a text value longer than 15 bytes"),
                 TypeId::kText),
            "'a text value longer than 15 bytes'");
  EXPECT_EQ(cast(Datum::Jsonb(SampleJson()), TypeId::kText),
            "'{\"a\":[1,2.5],\"b\":\"x\"}'");
  EXPECT_EQ(cast(Datum::Jsonb(SampleJson()), TypeId::kInt8), "error");
  EXPECT_EQ(cast(Datum::Date(-396), TypeId::kTimestamp),
            "'1998-12-01 00:00:00'::timestamp");
  EXPECT_EQ(cast(Datum::Timestamp(-1), TypeId::kDate), "'1999-12-31'::date");
  EXPECT_EQ(cast(Datum::Null(), TypeId::kInt8), "NULL");
  EXPECT_EQ(cast(Datum::Text("x"), TypeId::kInt8), "error");

  // A same-type cast returns the value itself.
  Datum t = Datum::Text("a text value longer than 15 bytes");
  EXPECT_EQ(t.CastTo(TypeId::kText)->text_value(), t.text_value());
}

}  // namespace
}  // namespace citusx::sql

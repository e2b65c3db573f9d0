// Seeded differential property test: generated filter/aggregate/join
// queries run through both the vectorized executor and the volcano oracle,
// diffing row sets. Covers NULL-heavy data, empty tables, heap and columnar
// storage, morsel-boundary row counts, text and date columns, date literals
// and casts with INTERVAL arithmetic (constant folding), multi-column and
// mixed int4/bigint join keys, float keys with -0.0 and 0.0 (distinct keys
// in both executors), NULL keys, duplicate build keys under a LEFT join with
// a residual, and constant subexpressions that fail (error parity: an error
// on a non-empty input, none on an empty one). Any mismatch prints the seed
// and the offending SQL so failures replay deterministically.
//
// Environment knobs (the nightly CI job sets them; defaults replay locally):
//   CITUSX_PROPERTY_SEED    generator seed     (default 20260809)
//   CITUSX_PROPERTY_ROUNDS  generated queries  (default 40)
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str.h"
#include "engine/node.h"
#include "engine/session.h"
#include "exec/vectorized.h"
#include "sim/simulation.h"

namespace citusx::exec {
namespace {

using engine::QueryResult;
using engine::Session;
using sql::Datum;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::atoll(v);
}

bool DatumClose(const Datum& a, const Datum& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == sql::TypeId::kFloat8 || b.type() == sql::TypeId::kFloat8) {
    double x = a.AsDouble(), y = b.AsDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= 1e-9 * scale;
  }
  return Datum::Compare(a, b) == 0;
}

/// Order-insensitive row-set comparison: both sides sorted by the full row,
/// then compared with float tolerance. Generated queries avoid
/// LIMIT-without-total-order, so multiset equality is the right contract.
bool RowSetsClose(std::vector<sql::Row> a, std::vector<sql::Row> b) {
  if (a.size() != b.size()) return false;
  auto row_less = [](const sql::Row& x, const sql::Row& y) {
    for (size_t i = 0; i < x.size() && i < y.size(); i++) {
      int c = Datum::Compare(x[i], y[i]);
      if (c != 0) return c < 0;
    }
    return x.size() < y.size();
  };
  std::sort(a.begin(), a.end(), row_less);
  std::sort(b.begin(), b.end(), row_less);
  for (size_t i = 0; i < a.size(); i++) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t c = 0; c < a[i].size(); c++) {
      if (!DatumClose(a[i][c], b[i][c])) return false;
    }
  }
  return true;
}

/// Generates random single-table and two-table queries over a fixed schema:
/// tN(a bigint, b bigint, c double precision, g bigint, i int, t text,
/// d date), with NULLs mixed in.
class QueryGen {
 public:
  explicit QueryGen(Rng* rng) : rng_(rng) {}

  std::string Filter(const std::string& tbl) {
    std::string q = tbl.empty() ? "" : tbl + ".";
    auto col = [&] {
      const char* cols[] = {"a", "b", "c", "g", "i"};
      return q + cols[rng_->Uniform(0, 4)];
    };
    auto cmp = [&]() -> std::string {
      const char* ops[] = {"<", "<=", ">", ">=", "=", "<>"};
      const char* op = ops[rng_->Uniform(0, 5)];
      switch (rng_->Uniform(0, 9)) {
        case 0:  // DATE literal
          return StrFormat("%sd %s DATE '%s'", q.c_str(), op, Date().c_str());
        case 1:  // text cast to date, as deparsed for worker nodes
          return StrFormat("%sd %s '%s'::date", q.c_str(), op, Date().c_str());
        case 2:  // date + INTERVAL: folded once per plan
          return StrFormat("%sd %s DATE '%s' + INTERVAL '%lld' %s", q.c_str(),
                           op, Date().c_str(),
                           static_cast<long long>(rng_->Uniform(1, 12)),
                           rng_->Chance(0.5) ? "MONTH" : "DAY");
        case 3:
          return StrFormat("%st %s 's%lld'", q.c_str(), op,
                           static_cast<long long>(rng_->Uniform(0, 7)));
        default:
          return StrFormat("%s %s %lld", col().c_str(), op,
                           static_cast<long long>(rng_->Uniform(-5, 120)));
      }
    };
    std::string f = cmp();
    int extra = static_cast<int>(rng_->Uniform(0, 2));
    for (int i = 0; i < extra; i++) {
      f += rng_->Chance(0.7) ? " AND " : " OR ";
      f += rng_->Chance(0.8) ? cmp()
                             : StrFormat("%s IS NOT NULL", col().c_str());
    }
    return f;
  }

  std::string Agg() {
    switch (rng_->Uniform(0, 7)) {
      case 0: return "count(*)";
      case 1: return "sum(b)";
      case 2: return "avg(c)";
      case 3: return "min(a)";
      case 4: return "max(c)";
      case 5: return "min(t)";
      case 6: return "max(d)";
      default: return "count(DISTINCT g)";
    }
  }

  std::string SingleTable(const std::string& t) {
    switch (rng_->Uniform(0, 5)) {
      case 0:  // projection + filter, fully ordered
        return StrFormat("SELECT a, b, c, g, t, d FROM %s WHERE %s", t.c_str(),
                         Filter("").c_str());
      case 1:  // ungrouped aggregates
        return StrFormat("SELECT %s, %s FROM %s WHERE %s", Agg().c_str(),
                         Agg().c_str(), t.c_str(), Filter("").c_str());
      case 2: {  // grouped aggregates, including float and text groups
        const char* groups[] = {"g", "c", "t", "t, d", "i, g"};
        const char* grp = groups[rng_->Uniform(0, 4)];
        return StrFormat("SELECT %s, %s FROM %s WHERE %s GROUP BY %s", grp,
                         Agg().c_str(), t.c_str(), Filter("").c_str(), grp);
      }
      case 3:  // a constant subexpression that fails: errors on non-empty
               // input only
        return StrFormat("SELECT a FROM %s WHERE a > %lld AND 1/0 = 1",
                         t.c_str(),
                         static_cast<long long>(rng_->Uniform(-5, 50)));
      case 4:  // computed projections with foldable constants
        return StrFormat(
            "SELECT a * (2 + 3), c * (1 - 0.5), t || '-' || 'x', "
            "d + INTERVAL '1' MONTH FROM %s WHERE %s",
            t.c_str(), Filter("").c_str());
      default:  // sort + limit over a total order
        return StrFormat(
            "SELECT a, b FROM %s WHERE %s ORDER BY b, a LIMIT %lld",
            t.c_str(), Filter("").c_str(),
            static_cast<long long>(rng_->Uniform(1, 50)));
    }
  }

  std::string TwoTable(const std::string& t1, const std::string& t2) {
    const char* join = rng_->Chance(0.3) ? "LEFT JOIN" : "JOIN";
    const char* t1c = t1.c_str();
    const char* t2c = t2.c_str();
    std::string on;
    switch (rng_->Uniform(0, 4)) {
      case 0:  // multi-column key
        on = StrFormat("%s.g = %s.g AND %s.t = %s.t", t1c, t2c, t1c, t2c);
        break;
      case 1:  // int4 vs bigint
        on = StrFormat("%s.i = %s.g", t1c, t2c);
        break;
      case 2:  // float keys: -0.0 and 0.0 are distinct, NULLs never join
        on = StrFormat("%s.c = %s.c", t1c, t2c);
        break;
      case 3:  // duplicate build keys plus a residual
        on = StrFormat("%s.g = %s.g AND %s.a < %s.b", t1c, t2c, t1c, t2c);
        break;
      default:
        on = StrFormat("%s.g = %s.g", t1c, t2c);
        break;
    }
    if (rng_->Chance(0.5)) {
      return StrFormat("SELECT %s.a, %s.b, %s.t FROM %s %s %s ON %s WHERE %s",
                       t1c, t2c, t2c, t1c, join, t2c, on.c_str(),
                       Filter(t1).c_str());
    }
    return StrFormat("SELECT %s.g, count(*), sum(%s.b) FROM %s %s %s ON %s "
                     "GROUP BY %s.g",
                     t1c, t2c, t1c, join, t2c, on.c_str(), t1c);
  }

 private:
  std::string Date() {
    return StrFormat("199%lld-%02lld-%02lld",
                     static_cast<long long>(rng_->Uniform(2, 6)),
                     static_cast<long long>(rng_->Uniform(1, 12)),
                     static_cast<long long>(rng_->Uniform(1, 28)));
  }

  Rng* rng_;
};

TEST(ExecDiffTest, GeneratedQueriesMatchVolcano) {
  sim::Simulation sim;
  engine::Node node(&sim, "pg1", sim::DefaultCostModel());
  InstallVectorizedExecutor(&node);
  const uint64_t seed =
      static_cast<uint64_t>(EnvInt("CITUSX_PROPERTY_SEED", 20260809));
  const int rounds = static_cast<int>(EnvInt("CITUSX_PROPERTY_ROUNDS", 40));
  sim.Spawn("test", [&] {
    Rng rng(seed);
    auto s = node.OpenSession();
    auto must = [&](const std::string& sql) {
      auto r = s->Execute(sql);
      ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    };
    // Table sizes hit the edge cases: empty (an empty shard), tiny,
    // one-morsel, and multi-stripe columnar.
    struct Spec { const char* name; int rows; bool columnar; };
    const Spec specs[] = {
        {"t0", 0, true},         // empty columnar
        {"t1", 7, false},        // tiny heap
        {"t2", 2500, true},      // open (unsealed) stripe only
        {"t3", 23000, true},     // sealed stripes + partial open stripe
    };
    for (const Spec& spec : specs) {
      must(StrFormat("CREATE TABLE %s (a bigint, b bigint, c double "
                     "precision, g bigint, i int, t text, d date) USING %s",
                     spec.name, spec.columnar ? "columnar" : "heap"));
      for (int base = 0; base < spec.rows; base += 500) {
        std::string values;
        for (int i = base; i < std::min(spec.rows, base + 500); i++) {
          if (!values.empty()) values += ",";
          // ~15% NULLs per nullable column; values clustered so filters
          // and join keys actually select and match.
          std::string b = rng.Chance(0.15)
                              ? "NULL"
                              : std::to_string(rng.Uniform(0, 100));
          std::string c = rng.Chance(0.15)
                              ? "NULL"
                              : StrFormat("%lld.%lld",
                                          static_cast<long long>(
                                              rng.Uniform(-20, 20)),
                                          static_cast<long long>(
                                              rng.Uniform(0, 9)));
          if (rng.Chance(0.05)) c = rng.Chance(0.5) ? "-0.0" : "0.0";
          std::string g = rng.Chance(0.1)
                              ? "NULL"
                              : std::to_string(rng.Uniform(0, 12));
          std::string i4 = rng.Chance(0.1)
                               ? "NULL"
                               : std::to_string(rng.Uniform(-2, 14));
          std::string t = rng.Chance(0.1)
                              ? "NULL"
                              : StrFormat("'s%lld'", static_cast<long long>(
                                                         rng.Uniform(0, 7)));
          std::string d =
              rng.Chance(0.1)
                  ? "NULL"
                  : StrFormat("'199%lld-%02lld-%02lld'",
                              static_cast<long long>(rng.Uniform(2, 6)),
                              static_cast<long long>(rng.Uniform(1, 12)),
                              static_cast<long long>(rng.Uniform(1, 28)));
          values += StrFormat("(%d, %s, %s, %s, %s, %s, %s)", i, b.c_str(),
                              c.c_str(), g.c_str(), i4.c_str(), t.c_str(),
                              d.c_str());
        }
        must(StrFormat("INSERT INTO %s VALUES %s", spec.name,
                       values.c_str()));
      }
    }

    // Runs `sql` through both executors; returns whether it succeeded.
    auto diff = [&](const std::string& sql, const std::string& where) {
      EXPECT_TRUE(
          s->Execute("SET citus.use_vectorized_executor = 'off'").ok());
      auto oracle = s->Execute(sql);
      EXPECT_TRUE(s->Execute("SET citus.use_vectorized_executor = 'on'").ok());
      auto vec = s->Execute(sql);
      // Both executors must agree on errors too.
      EXPECT_EQ(oracle.ok(), vec.ok()) << where << ": " << sql;
      if (!oracle.ok() || !vec.ok()) return false;
      EXPECT_TRUE(RowSetsClose(oracle->rows, vec->rows))
          << where << ": " << sql
          << "\n  volcano rows: " << oracle->rows.size()
          << "\n  vectorized rows: " << vec->rows.size();
      return true;
    };

    QueryGen gen(&rng);
    int checked = 0;
    for (int round = 0; round < rounds; round++) {
      std::string sql;
      if (rng.Chance(0.3)) {
        const char* t1 = specs[rng.Uniform(0, 3)].name;
        const char* t2 = specs[rng.Uniform(0, 3)].name;
        if (std::string(t1) == t2) t2 = "t1";
        sql = gen.TwoTable(t1, t2);
      } else {
        sql = gen.SingleTable(specs[rng.Uniform(0, 3)].name);
      }
      checked += diff(sql, StrFormat("seed %llu round %d",
                                     static_cast<unsigned long long>(seed),
                                     round));
    }
    // The generator must not degenerate into all-error queries.
    EXPECT_GE(checked, rounds / 2);

    // Fixed cases, whatever the seed draws. A failing constant
    // subexpression is not folded away: it errors on a non-empty input and
    // not at all on an empty one, in both executors.
    EXPECT_TRUE(diff("SELECT a FROM t0 WHERE 1/0 = 1", "fixed"));
    EXPECT_FALSE(diff("SELECT a FROM t3 WHERE 1/0 = 1", "fixed"));
    EXPECT_FALSE(diff("SELECT a, 1/0 FROM t2", "fixed"));
    const char* fixed[] = {
        "SELECT t3.a, t2.b FROM t3 LEFT JOIN t2 ON t3.g = t2.g AND "
        "t3.a < t2.b WHERE t3.a < 300",
        "SELECT t3.a, t2.a FROM t3 JOIN t2 ON t3.g = t2.g AND t3.t = t2.t "
        "WHERE t3.a < 2000",
        "SELECT t3.a, t2.a FROM t3 JOIN t2 ON t3.i = t2.g WHERE t3.a < 2000",
        "SELECT t3.c, count(*) FROM t3 JOIN t2 ON t3.c = t2.c GROUP BY t3.c",
        "SELECT c, count(*), sum(b) FROM t3 GROUP BY c",
        "SELECT t, d, count(*), min(c) FROM t3 WHERE d < DATE '1994-06-01' "
        "+ INTERVAL '3' MONTH GROUP BY t, d",
        "SELECT a, d FROM t2 WHERE d >= '1993-02-01'::date AND d < DATE "
        "'1993-02-01' + INTERVAL '40' DAY",
    };
    for (const char* sql : fixed) EXPECT_TRUE(diff(sql, "fixed"));
  });
  sim.Run();
  sim.Shutdown();
}

}  // namespace
}  // namespace citusx::exec

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/str.h"
#include "workload/tpcc.h"
#include "workload/tpch.h"

namespace perfbench {

namespace {

using citusx::StrFormat;
using citusx::citus::Deployment;
using citusx::citus::DeploymentOptions;
using citusx::engine::QueryResult;

DeploymentOptions FourPlusOne(int64_t buffer_pool_bytes, int max_connections) {
  DeploymentOptions options;
  options.num_workers = 4;
  options.cost.buffer_pool_bytes = buffer_pool_bytes;
  options.cost.max_connections = max_connections;
  return options;
}

// ---------------------------------------------------------------------------
// ycsb_a: YCSB workload A (50% point reads / 50% single-row updates, uniform
// keys), clients load-balanced over the 4 workers acting as MX coordinators.

class YcsbA : public Workload {
 public:
  explicit YcsbA(uint64_t seed) : seed_(seed) {}

  // About 1.1 KB per row: 30k rows are ~2x the workers' combined 16 MB of
  // buffer pool, so half the reads miss to disk.
  static constexpr int64_t kRecords = 30000;
  static constexpr int kFields = 10;

  DeploymentOptions Options() const override {
    // Each client connection fans out into worker connections (§3.2.1).
    return FourPlusOne(4LL << 20, 600);
  }

  LoopShape Shape() const override {
    LoopShape s;
    s.clients = 64;
    // Long enough for the host side to warm too (allocator, first-touch
    // pages): host cost per op falls for about the first host second.
    s.warmup = 300 * sim::kMillisecond;
    s.window = 400 * sim::kMillisecond;
    s.chunk = 25 * sim::kMillisecond;
    return s;
  }

  Status CreateSchema(net::Connection& conn) override {
    std::string ddl = "CREATE TABLE usertable (ycsb_key bigint PRIMARY KEY";
    for (int f = 0; f < kFields; f++) ddl += StrFormat(", field%d text", f);
    ddl += ")";
    CITUSX_RETURN_IF_ERROR(conn.Query(ddl).status());
    return conn
        .Query("SELECT create_distributed_table('usertable', 'ycsb_key')")
        .status();
  }

  Status Ingest(net::Connection& conn) override {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + 1);
    constexpr int64_t kBatch = 2000;
    for (int64_t base = 0; base < kRecords; base += kBatch) {
      std::vector<std::vector<std::string>> rows;
      for (int64_t k = base; k < std::min(base + kBatch, kRecords); k++) {
        std::vector<std::string> row{std::to_string(k)};
        for (int f = 0; f < kFields; f++) row.push_back(Field(rng));
        rows.push_back(std::move(row));
      }
      CITUSX_RETURN_IF_ERROR(
          conn.CopyIn("usertable", {}, std::move(rows)).status());
    }
    return Status::OK();
  }

  std::string Endpoint(Deployment& deploy, int c) override {
    std::vector<citusx::engine::Node*> workers = deploy.workers();
    return workers[static_cast<size_t>(c) % workers.size()]->name();
  }

  Status Op(net::Connection& conn, int c, Rng& rng) override {
    int64_t key = rng.Uniform(0, kRecords - 1);
    if (rng.Chance(0.5)) {
      auto r = conn.Query(StrFormat(
          "SELECT * FROM usertable WHERE ycsb_key = %lld",
          static_cast<long long>(key)));
      if (!r.ok()) return r.status();
      if (r->rows.size() != 1 || r->rows[0][0].AsInt64() != key) wrong_++;
      return Status::OK();
    }
    int field = static_cast<int>(rng.Uniform(0, kFields - 1));
    auto r = conn.Query(
        StrFormat("UPDATE usertable SET field%d = '%s' WHERE ycsb_key = %lld",
                  field, Field(rng).c_str(), static_cast<long long>(key)));
    if (!r.ok()) return r.status();
    if (r->rows_affected != 1) wrong_++;
    return Status::OK();
  }

  Status Check(net::Connection& conn) override {
    if (wrong_ > 0) {
      return Status::Internal(StrFormat(
          "%lld ycsb ops returned the wrong row", (long long)wrong_));
    }
    auto r = conn.Query("SELECT count(*) FROM usertable");
    if (!r.ok()) return r.status();
    if (r->rows.size() != 1 || r->rows[0][0].AsInt64() != kRecords) {
      return Status::Internal("usertable row count differs from the load");
    }
    return Status::OK();
  }

 private:
  // YCSB fieldlengthdistribution=uniform around the default 100 bytes.
  static std::string Field(Rng& rng) { return rng.AlphaString(50, 150); }

  uint64_t seed_;
  int64_t wrong_ = 0;
};

// ---------------------------------------------------------------------------
// tpcc: the HammerDB TPC-C mix through the coordinator, delegated
// procedures, 1 ms keying time, working set inside the 4+1 buffer pools.

class Tpcc : public Workload {
 public:
  explicit Tpcc(uint64_t seed) : seed_(seed) {
    config_.warehouses = 40;
    config_.items = 1000;
    config_.customers_per_district = 60;
    config_.orders_per_district = 60;
  }

  DeploymentOptions Options() const override {
    // Delegated procedures open worker-to-worker connections for the ~7%
    // cross-warehouse transactions; production adds PgBouncer instead.
    return FourPlusOne(16LL << 20, 2000);
  }

  LoopShape Shape() const override {
    LoopShape s;
    s.clients = 32;
    s.think_time = sim::kMillisecond;
    s.warmup = 100 * sim::kMillisecond;
    s.window = 400 * sim::kMillisecond;
    s.chunk = 25 * sim::kMillisecond;
    return s;
  }

  void Attach(Deployment& deploy) override {
    for (size_t i = 0; i < deploy.cluster().num_nodes(); i++) {
      citusx::workload::TpccRegisterProcedures(deploy.cluster().node(i),
                                               config_);
    }
    mix_ = citusx::workload::TpccMix(config_);
  }

  Status CreateSchema(net::Connection& conn) override {
    return citusx::workload::TpccCreateSchema(conn, config_);
  }

  // The generator restarts its own fixed-seed RNG on every call, so the
  // seed draws the warehouse chunks the load is split into (a multi-user
  // build): the rows, and so the ingest cost, depend on the seed.
  Status Ingest(net::Connection& conn) override {
    Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + 2);
    for (int lo = 1; lo <= config_.warehouses;) {
      int hi = std::min(config_.warehouses,
                        lo + static_cast<int>(rng.Uniform(3, 12)));
      CITUSX_RETURN_IF_ERROR(
          citusx::workload::TpccLoad(conn, config_, lo, hi));
      lo = hi + 1;
    }
    return Status::OK();
  }

  Status Prepare(net::Connection& conn) override {
    return citusx::workload::TpccDistributeProcedures(conn);
  }

  std::string Endpoint(Deployment& deploy, int c) override {
    return "coordinator";
  }

  Status Op(net::Connection& conn, int c, Rng& rng) override {
    return mix_(conn, c, rng);
  }

  Status Check(net::Connection& conn) override {
    return citusx::workload::TpccCheckConsistency(conn, config_);
  }

 private:
  uint64_t seed_;
  citusx::workload::TpccConfig config_;
  citusx::workload::ClientTxn mix_;
};

// ---------------------------------------------------------------------------
// tpch: one session cycling the supported TPC-H queries on columnar shards,
// plus the Q3/Q10 join shapes against customer_h, a copy of customer hash-
// distributed by c_custkey (not co-located with orders: a repartition join).

bool SameResult(const QueryResult& a, const QueryResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t i = 0; i < a.rows.size(); i++) {
    if (a.rows[i].size() != b.rows[i].size()) return false;
    for (size_t c = 0; c < a.rows[i].size(); c++) {
      const citusx::sql::Datum& x = a.rows[i][c];
      const citusx::sql::Datum& y = b.rows[i][c];
      if (x.is_null() || y.is_null()) {
        if (x.is_null() != y.is_null()) return false;
        continue;
      }
      // Aggregation order differs between the executors: float8 sums agree
      // to a relative tolerance, everything else exactly.
      if (x.type() == citusx::sql::TypeId::kFloat8 ||
          y.type() == citusx::sql::TypeId::kFloat8) {
        double dx = x.AsDouble(), dy = y.AsDouble();
        double scale = std::max({1.0, std::fabs(dx), std::fabs(dy)});
        if (std::fabs(dx - dy) > 1e-6 * scale) return false;
      } else if (citusx::sql::Datum::Compare(x, y) != 0) {
        return false;
      }
    }
  }
  return true;
}

/// Replace every occurrence of `from`; false if there was none (the query
/// text the substitution expects has changed).
bool Substitute(std::string* s, const std::string& from,
                const std::string& to) {
  size_t pos = s->find(from);
  if (pos == std::string::npos) return false;
  for (; pos != std::string::npos; pos = s->find(from, pos + to.size())) {
    s->replace(pos, from.size(), to);
  }
  return true;
}

/// Substitute several literals at once: a replacement never matches a
/// later pattern.
bool SubstituteAll(std::string* s,
                   const std::vector<std::pair<std::string, std::string>>& subs) {
  bool ok = true;
  for (size_t i = 0; i < subs.size(); i++) {
    ok &= Substitute(s, subs[i].first, std::string("\x02") + char('a' + i));
  }
  for (size_t i = 0; i < subs.size(); i++) {
    ok &= Substitute(s, std::string("\x02") + char('a' + i), subs[i].second);
  }
  return ok;
}

class Tpch : public Workload {
 public:
  // The 9 supported TPC-H queries plus the customer_h Q3 and Q10.
  static constexpr int kQueries = 11;

  explicit Tpch(uint64_t seed) : seed_(seed) {
    config_.scale = 0.3;
    config_.columnar = true;
  }

  DeploymentOptions Options() const override {
    return FourPlusOne(16LL << 20, 300);
  }

  LoopShape Shape() const override {
    LoopShape s;
    // The oracle pass in Prepare is the warm-up; the windows hold whole
    // passes over the query list.
    s.clients = 1;
    s.cycle_ops = kQueries;
    return s;
  }

  Status CreateSchema(net::Connection& conn) override {
    CITUSX_RETURN_IF_ERROR(citusx::workload::TpchCreateSchema(conn, config_));
    CITUSX_RETURN_IF_ERROR(
        conn.Query("CREATE TABLE customer_h (c_custkey bigint PRIMARY KEY, "
                   "c_name text, c_nationkey bigint, "
                   "c_acctbal double precision, c_mktsegment text)")
            .status());
    return conn
        .Query("SELECT create_distributed_table('customer_h', 'c_custkey', "
               "colocate_with := 'none')")
        .status();
  }

  Status Ingest(net::Connection& conn) override {
    CITUSX_RETURN_IF_ERROR(citusx::workload::TpchLoad(conn, config_));
    CITUSX_RETURN_IF_ERROR(RefreshInsert(conn));
    // customer_h holds the same rows as the reference table customer.
    auto customers = conn.Query(
        "SELECT c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment "
        "FROM customer");
    if (!customers.ok()) return customers.status();
    std::vector<std::vector<std::string>> rows;
    for (const auto& row : customers->rows) {
      std::vector<std::string> text;
      for (const auto& d : row) text.push_back(d.ToText());
      rows.push_back(std::move(text));
    }
    return conn.CopyIn("customer_h", {}, std::move(rows)).status();
  }

  Status Prepare(net::Connection& conn) override {
    CITUSX_RETURN_IF_ERROR(MakeQueries());
    // Untimed oracle pass, also the cache warm-up: each query through the
    // volcano executor. Every measured (vectorized) result must equal it.
    CITUSX_RETURN_IF_ERROR(
        conn.Query("SET citus.use_vectorized_executor = 'off'").status());
    for (const auto& [name, sql] : queries_) {
      auto oracle = conn.Query(sql);
      if (!oracle.ok()) return Named(name, oracle.status());
      oracle_.push_back(std::move(*oracle));
    }
    return conn.Query("SET citus.use_vectorized_executor = 'on'").status();
  }

  std::string Endpoint(Deployment& deploy, int c) override {
    return "coordinator";
  }

  Status Op(net::Connection& conn, int c, Rng& rng) override {
    size_t q = next_++ % queries_.size();
    auto r = conn.Query(queries_[q].second);
    if (!r.ok()) return Named(queries_[q].first, r.status());
    results_.emplace_back(q, std::move(*r));
    return Status::OK();
  }

  Status Check(net::Connection& conn) override {
    for (const auto& [q, result] : results_) {
      if (!SameResult(oracle_[q], result)) {
        return Status::Internal(queries_[q].first +
                                ": result differs from the volcano oracle");
      }
    }
    return Status::OK();
  }

 private:
  static Status Named(const std::string& name, const Status& st) {
    return Status(st.code(), name + ": " + st.message());
  }

  // TPC-H refresh function 1 at 0.1% of the orders: seeded new orders with
  // 1-7 lineitems each, appended through COPY.
  Status RefreshInsert(net::Connection& conn) {
    static const char* kFlags[] = {"R", "A", "N"};
    static const char* kModes[] = {"AIR",  "FOB",     "MAIL", "RAIL",
                                   "SHIP", "REG AIR", "TRUCK"};
    Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + 3);
    auto date = [&rng]() {
      return StrFormat("%04d-%02d-%02d", static_cast<int>(rng.Uniform(1992, 1998)),
                       static_cast<int>(rng.Uniform(1, 12)),
                       static_cast<int>(rng.Uniform(1, 28)));
    };
    std::vector<std::vector<std::string>> orders, lines;
    int64_t first = config_.NumOrders() + 1;
    for (int64_t o = first; o < first + config_.NumOrders() / 1000; o++) {
      orders.push_back({std::to_string(o),
                        std::to_string(rng.Uniform(1, config_.NumCustomers())),
                        rng.Chance(0.5) ? "F" : "O",
                        StrFormat("%.2f", rng.NextDouble() * 400000.0), date(),
                        "3-MEDIUM", "0"});
      int nlines = static_cast<int>(rng.Uniform(1, 7));
      for (int l = 1; l <= nlines; l++) {
        double qty = static_cast<double>(rng.Uniform(1, 50));
        lines.push_back(
            {std::to_string(o),
             std::to_string(rng.Uniform(1, config_.NumParts())),
             std::to_string(rng.Uniform(1, config_.NumSuppliers())),
             std::to_string(l), StrFormat("%.0f", qty),
             StrFormat("%.2f", qty * (900.0 + rng.NextDouble() * 200.0)),
             StrFormat("%.2f", rng.NextDouble() * 0.1),
             StrFormat("%.2f", rng.NextDouble() * 0.08),
             kFlags[rng.Uniform(0, 2)], rng.Chance(0.5) ? "O" : "F", date(),
             date(), date(), "NONE", kModes[rng.Uniform(0, 6)]});
      }
    }
    CITUSX_RETURN_IF_ERROR(
        conn.CopyIn("orders", {}, std::move(orders)).status());
    return conn.CopyIn("lineitem", {}, std::move(lines)).status();
  }

  // qgen-style substitution parameters (TPC-H §2.4) drawn from the seed,
  // plus the customer_h variants of Q3 and Q10.
  Status MakeQueries() {
    static const char* kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                      "HOUSEHOLD", "MACHINERY"};
    static const char* kRegions[] = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                     "MIDDLE EAST"};
    static const char* kNations[] = {"FRANCE", "GERMANY", "JAPAN", "CHINA",
                                     "BRAZIL", "CANADA", "INDIA", "PERU"};
    static const char* kModes[] = {"AIR",  "FOB",     "MAIL", "RAIL",
                                   "SHIP", "REG AIR", "TRUCK"};
    Rng rng(seed_ * 0x9E3779B97F4A7C15ULL + 4);
    // A quoted SQL literal drawn from `arr`.
    auto pick = [&rng](auto& arr) {
      return StrFormat("'%s'", arr[rng.Uniform(0, std::size(arr) - 1)]);
    };
    auto year = [&rng]() {
      return StrFormat("%lld-01-01", (long long)rng.Uniform(1993, 1997));
    };
    auto month = [&rng](int y0, int m0, int months) {
      int m = m0 - 1 + static_cast<int>(rng.Uniform(0, months - 1));
      return StrFormat("%04d-%02d-01", y0 + m / 12, m % 12 + 1);
    };
    std::vector<std::pair<std::string, std::string>> out;
    bool ok = true;
    for (auto [name, sql] : citusx::workload::TpchQueries()) {
      if (name == "Q1") {
        ok &= Substitute(&sql, "INTERVAL '90' DAY",
                         StrFormat("INTERVAL '%lld' DAY",
                                   (long long)rng.Uniform(60, 120)));
      } else if (name == "Q3") {
        ok &= Substitute(&sql, "'BUILDING'", pick(kSegments));
        ok &= Substitute(&sql, "1995-03-15",
                         StrFormat("1995-03-%02lld",
                                   (long long)rng.Uniform(1, 31)));
      } else if (name == "Q5") {
        ok &= Substitute(&sql, "'ASIA'", pick(kRegions));
        ok &= Substitute(&sql, "1994-01-01", year());
      } else if (name == "Q6") {
        ok &= Substitute(&sql, "1994-01-01", year());
        int64_t d = rng.Uniform(2, 9);
        ok &= Substitute(&sql, "BETWEEN 0.05 AND 0.07",
                         StrFormat("BETWEEN 0.%02lld AND 0.%02lld",
                                   (long long)d - 1, (long long)d + 1));
        ok &= Substitute(&sql, "l_quantity < 24",
                         StrFormat("l_quantity < %lld",
                                   (long long)rng.Uniform(24, 25)));
      } else if (name == "Q10") {
        ok &= Substitute(&sql, "1993-10-01", month(1993, 2, 24));
      } else if (name == "Q12") {
        std::string m1 = pick(kModes), m2 = m1;
        while (m2 == m1) m2 = pick(kModes);
        ok &= Substitute(&sql, "('MAIL', 'SHIP')",
                         StrFormat("(%s, %s)", m1.c_str(), m2.c_str()));
        ok &= Substitute(&sql, "1994-01-01", year());
      } else if (name == "Q14") {
        ok &= Substitute(&sql, "1995-09-01", month(1993, 1, 60));
      } else if (name == "Q19") {
        std::vector<std::pair<std::string, std::string>> subs;
        for (const char* brand : {"'Brand#12'", "'Brand#23'", "'Brand#34'"}) {
          subs.emplace_back(brand, StrFormat("'Brand#%lld%lld'",
                                             (long long)rng.Uniform(1, 5),
                                             (long long)rng.Uniform(1, 5)));
        }
        for (int lo : {1, 10, 20}) {
          int64_t q = lo + rng.Uniform(0, 9);
          subs.emplace_back(
              StrFormat("l_quantity >= %d AND l_quantity <= %d", lo,
                        lo == 1 ? 11 : lo + 10),
              StrFormat("l_quantity >= %lld AND l_quantity <= %lld",
                        (long long)q, (long long)q + 10));
        }
        ok &= SubstituteAll(&sql, subs);
      } else if (name == "Q7") {
        std::string n1 = pick(kNations), n2 = n1;
        while (n2 == n1) n2 = pick(kNations);
        ok &= SubstituteAll(&sql, {{"'FRANCE'", n1}, {"'GERMANY'", n2}});
      }
      out.emplace_back(name, sql);
      if (name == "Q3" || name == "Q10") {
        std::string h = sql;
        ok &= Substitute(&h, "FROM customer,", "FROM customer_h,");
        out.emplace_back(name + "_h", h);
      }
    }
    if (!ok || out.size() != kQueries) {
      return Status::Internal(
          "the TPC-H query list no longer has the text its parameters "
          "replace");
    }
    queries_ = std::move(out);
    return Status::OK();
  }

  uint64_t seed_;
  citusx::workload::TpchConfig config_;
  std::vector<std::pair<std::string, std::string>> queries_;
  std::vector<QueryResult> oracle_;
  std::vector<std::pair<size_t, QueryResult>> results_;
  size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "ycsb_a") return std::make_unique<YcsbA>(seed);
  if (name == "tpcc") return std::make_unique<Tpcc>(seed);
  if (name == "tpch") return std::make_unique<Tpch>(seed);
  return nullptr;
}

}  // namespace perfbench

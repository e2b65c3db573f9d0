// Ablation: the vectorized morsel-driven executor (src/exec, DESIGN.md §8).
//
// Two sections, both run once through the volcano row-at-a-time oracle
// (citus.use_vectorized_executor = off) and once through the vectorized
// executor, over identical data in the same deployment:
//  1. the supported TPC-H query set on a Citus 4+1 deployment with columnar
//     shards — end-to-end distributed latency, where the fan-out of ~32
//     shard tasks puts a network floor under both executors;
//  2. scan/agg-heavy queries on a local columnar table — the executor in
//     isolation, where the >= 10x batching + morsel-parallelism claim is
//     measurable.
// Diffs every result against the oracle and self-checks the two claims the
// tentpole makes: results are identical everywhere, and the scan/agg-heavy
// queries speed up by >= 10x in virtual time. Each query also reports its
// host time per executor (process CPU clock around the query, which covers
// every simulated node since they all run on this thread) and the host
// speedup; host time is reported, not gated.
//
//   abl_olap [--quick] [--json=<path>]
#include <ctime>

#include "bench_common.h"
#include "common/str.h"
#include "workload/tpch.h"

using namespace citusx;
using namespace citusx::bench;
using namespace citusx::workload;

namespace {

struct QueryRow {
  std::string name;
  double volcano_ms = 0;        // virtual
  double vectorized_ms = 0;
  double volcano_host_ms = 0;   // host (process CPU clock)
  double vectorized_host_ms = 0;
  size_t rows = 0;
  bool matched = false;
  double Speedup() const {
    return vectorized_ms > 0 ? volcano_ms / vectorized_ms : 0;
  }
  double HostSpeedup() const {
    return vectorized_host_ms > 0 ? volcano_host_ms / vectorized_host_ms : 0;
  }
};

/// Host CPU time of this process, in milliseconds.
double HostCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  PrintHeader("Ablation: vectorized morsel-driven executor (src/exec)",
              "design choice from DESIGN.md §8");

  sim::CostModel cost;
  // A large pool keeps block I/O out of the picture: this ablation isolates
  // executor CPU, not the memory-fit story (that is figure 8's job).
  cost.buffer_pool_bytes = 256LL << 20;
  TpchConfig cfg;
  cfg.scale = args.quick ? 0.1 : 0.3;
  cfg.columnar = true;

  sim::Simulation sim;
  citus::DeploymentOptions options;
  options.num_workers = 4;
  options.cost = cost;
  citus::Deployment deploy(&sim, options);
  MustRun(sim, [&]() -> Status {
    auto conn_r = deploy.Connect();
    if (!conn_r.ok()) return conn_r.status();
    CITUSX_RETURN_IF_ERROR(TpchCreateSchema(**conn_r, cfg));
    return TpchLoad(**conn_r, cfg);
  });

  std::vector<QueryRow> rows;
  std::vector<QueryRow> scan_rows;
  MustRun(sim, [&]() -> Status {
    auto conn_r = deploy.Connect();
    if (!conn_r.ok()) return conn_r.status();
    net::Connection& conn = **conn_r;
    auto diff_timed = [&](const std::string& name, const std::string& sql,
                          std::vector<QueryRow>* out) -> Status {
      QueryRow row;
      row.name = name;
      // Untimed warm-up pass so both timed runs see a warm buffer pool.
      CITUSX_RETURN_IF_ERROR(conn.Query(sql).status());

      CITUSX_RETURN_IF_ERROR(
          conn.Query("SET citus.use_vectorized_executor = 'off'").status());
      sim::Time t0 = sim.now();
      double h0 = HostCpuMs();
      auto oracle = conn.Query(sql);
      row.volcano_host_ms = HostCpuMs() - h0;
      if (!oracle.ok()) return oracle.status();
      row.volcano_ms = Ms(sim.now() - t0);

      CITUSX_RETURN_IF_ERROR(
          conn.Query("SET citus.use_vectorized_executor = 'on'").status());
      t0 = sim.now();
      h0 = HostCpuMs();
      auto vec = conn.Query(sql);
      row.vectorized_host_ms = HostCpuMs() - h0;
      if (!vec.ok()) return vec.status();
      row.vectorized_ms = Ms(sim.now() - t0);

      row.rows = vec->rows.size();
      row.matched = ApproxEqualResults(*oracle, *vec);
      out->push_back(std::move(row));
      return Status::OK();
    };

    for (const auto& [name, sql] : TpchQueries()) {
      CITUSX_RETURN_IF_ERROR(diff_timed(name, sql, &rows));
    }

    // Section 2: a local columnar table on the coordinator — no shard
    // fan-out, so the per-row executor cost is the whole latency.
    const int64_t scan_n = args.quick ? 60000 : 200000;
    CITUSX_RETURN_IF_ERROR(
        conn.Query("CREATE TABLE scanagg (k bigint, v1 bigint, "
                   "v2 double precision, g bigint) USING columnar")
            .status());
    std::vector<std::vector<std::string>> batch;
    for (int64_t i = 0; i < scan_n; i++) {
      batch.push_back({std::to_string(i), std::to_string(i % 1000),
                       StrFormat("%lld.5", static_cast<long long>(i % 97)),
                       std::to_string(i % 16)});
      if (batch.size() == 10000) {
        CITUSX_RETURN_IF_ERROR(
            conn.CopyIn("scanagg", {}, std::move(batch)).status());
        batch.clear();
      }
    }
    if (!batch.empty()) {
      CITUSX_RETURN_IF_ERROR(
          conn.CopyIn("scanagg", {}, std::move(batch)).status());
    }
    CITUSX_RETURN_IF_ERROR(diff_timed(
        "scan_filter_agg",
        "SELECT count(*), sum(v1), avg(v2) FROM scanagg WHERE v1 > 10",
        &scan_rows));
    CITUSX_RETURN_IF_ERROR(diff_timed(
        "group_agg",
        "SELECT g, count(*), sum(v1), max(v2) FROM scanagg GROUP BY g "
        "ORDER BY g",
        &scan_rows));
    return Status::OK();
  });

  auto print_section = [](const char* title,
                          const std::vector<QueryRow>& section) {
    std::printf("\n%s\n", title);
    std::printf("%-16s %14s %14s %9s %14s %14s %9s %6s %6s\n", "query",
                "volcano (ms)", "vector (ms)", "speedup", "volcano host",
                "vector host", "host x", "rows", "match");
    for (const QueryRow& r : section) {
      std::printf("%-16s %14.3f %14.3f %8.1fx %14.3f %14.3f %8.2fx %6zu %6s\n",
                  r.name.c_str(), r.volcano_ms, r.vectorized_ms, r.Speedup(),
                  r.volcano_host_ms, r.vectorized_host_ms, r.HostSpeedup(),
                  r.rows, r.matched ? "yes" : "NO");
    }
  };
  std::printf("(ms columns are virtual time; host columns are process CPU "
              "ms)\n");
  print_section("TPC-H, distributed (columnar shards, 4 workers):", rows);
  print_section("Scan/agg-heavy, local columnar table (executor isolated):",
                scan_rows);

  BenchReport report("abl_olap");
  auto add_section = [&](const char* section,
                         const std::vector<QueryRow>& qs) {
    for (const QueryRow& r : qs) {
      report.AddResult({
          {"section", sql::Json::MakeString(section)},
          {"query", sql::Json::MakeString(r.name)},
          {"volcano_ms", sql::Json::MakeNumber(r.volcano_ms)},
          {"vectorized_ms", sql::Json::MakeNumber(r.vectorized_ms)},
          {"speedup", sql::Json::MakeNumber(r.Speedup())},
          {"volcano_host_ms", sql::Json::MakeNumber(r.volcano_host_ms)},
          {"vectorized_host_ms", sql::Json::MakeNumber(r.vectorized_host_ms)},
          {"host_speedup", sql::Json::MakeNumber(r.HostSpeedup())},
          {"rows", sql::Json::MakeNumber(static_cast<double>(r.rows))},
          {"matched", sql::Json::MakeBool(r.matched)},
      });
    }
  };
  add_section("tpch_distributed", rows);
  add_section("scanagg_local", scan_rows);
  report.AddMetrics("coordinator", deploy.coordinator()->metrics());
  if (!report.WriteTo(args.json_path)) return 1;
  sim.Shutdown();

  // Self-checks: a wrong answer or a lost speedup is a regression, not a
  // different data point.
  bool failed = false;
  for (const std::vector<QueryRow>* section : {&rows, &scan_rows}) {
    for (const QueryRow& r : *section) {
      if (!r.matched) {
        std::fprintf(stderr, "FAIL: %s differs between executors\n",
                     r.name.c_str());
        failed = true;
      }
      if (r.rows == 0) {
        std::fprintf(stderr, "FAIL: %s returned no rows\n", r.name.c_str());
        failed = true;
      }
    }
  }
  for (const QueryRow& r : scan_rows) {
    if (r.Speedup() < 10.0) {
      std::fprintf(stderr,
                   "FAIL: %s (scan/agg-heavy) sped up only %.1fx, "
                   "expected >= 10x\n",
                   r.name.c_str(), r.Speedup());
      failed = true;
    }
  }
  for (const QueryRow& r : rows) {
    if (r.Speedup() < 1.0) {
      std::fprintf(stderr,
                   "FAIL: %s slower vectorized (%.1fx) — the distributed "
                   "path must never regress\n",
                   r.name.c_str(), r.Speedup());
      failed = true;
    }
  }
  if (failed) return 1;
  std::printf("\nSelf-check passed: every query matches the volcano oracle; "
              "scan/agg-heavy queries >= 10x faster vectorized.\n");
  return 0;
}

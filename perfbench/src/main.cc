// twoclock: one round of the two-clock benchmark (run.py drives the rounds).
//
//   twoclock --workload {ycsb_a|tpcc|tpch} --seed N --host-seconds S
//            [--trace 0|1] [--start-ns T] [--spans PATH]
//
// Builds a Citus 4+1 deployment, loads the workload's seeded data, runs its
// closed loop, evaluates the correctness gates once the clients stopped, and
// prints one JSON object: the virtual metrics of the fixed virtual window,
// the host metrics of the host window, the cluster counter deltas and, with
// --trace 1, the per-layer metrics from spans at the hook boundaries. Exits
// 1 when a correctness gate fails, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "closed_loop.h"
#include "layer_trace.h"
#include "reference.h"
#include "sql/deparser.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double host_seconds = 1;
  bool trace = false;
  double wall_start = 0;  // CLOCK_MONOTONIC seconds at process start
  std::string spans_path;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "twoclock: %s\nusage: twoclock --workload {ycsb_a|tpcc|tpch} "
               "--seed N --host-seconds S [--trace 0|1] [--start-ns T] "
               "[--spans PATH]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  a.wall_start = WallNow();
  for (int i = 1; i < argc; i++) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--host-seconds") {
      a.host_seconds = std::atof(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--start-ns") {
      a.wall_start =
          static_cast<double>(std::strtoll(v.c_str(), nullptr, 10)) / 1e9;
    } else if (flag == "--spans") {
      a.spans_path = v;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

/// Nearest-rank percentile of raw samples (p in [0, 100]).
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// A JSON string literal (control characters become spaces).
std::string Quote(const std::string& v) {
  std::string q = "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') q += '\\';
    q += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return q + "\"";
}

/// Minimal JSON object writer; numbers keep all their digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(k, buf);
  }
  JsonObject& Int(const std::string& k, int64_t v) {
    return Raw(k, std::to_string(v));
  }
  JsonObject& Bool(const std::string& k, bool v) {
    return Raw(k, v ? "true" : "false");
  }
  JsonObject& Str(const std::string& k, const std::string& v) {
    return Raw(k, Quote(v));
  }
  JsonObject& Obj(const std::string& k, const JsonObject& v) {
    return Raw(k, v.str());
  }
  JsonObject& Raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + k + "\": ") + v;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// The effective cost model, field by field, with a fingerprint: a changed
// constant reads as a new yardstick, not as a speedup.
#define PERFBENCH_COST_FIELDS(X)                                              \
  X(cores_per_node) X(disk_iops) X(disk_queue_depth) X(buffer_pool_bytes)     \
  X(page_bytes) X(net_rtt) X(connect_cost) X(net_bytes_per_second)            \
  X(max_connections) X(parse_per_char) X(plan_local) X(plan_fast_path)        \
  X(plan_router) X(plan_pushdown) X(plan_join_order) X(plan_cached_bind)      \
  X(executor_startup) X(cpu_per_row_scan) X(cpu_per_expr_eval)                \
  X(cpu_per_row_sort) X(cpu_per_row_hash) X(cpu_per_row_insert)               \
  X(cpu_per_index_insert) X(cpu_per_index_lookup) X(cpu_per_row_copy_parse)  \
  X(cpu_per_gin_recheck) X(cpu_per_trgm_insert) X(cpu_per_row_net)            \
  X(wal_flush) X(cpu_commit) X(cpu_commit_readonly) X(vec_per_row_scan)       \
  X(vec_per_expr_eval) X(vec_per_row_hash) X(vec_per_row_sort)                \
  X(vec_pipeline_startup) X(vec_morsel_overhead) X(vec_morsel_rows)           \
  X(deadlock_poll_interval) X(recovery_poll_interval)                         \
  X(executor_slow_start_interval) X(cpu_charge_batch_rows)

JsonObject CostStamp(const sim::CostModel& cost) {
  JsonObject fields;
  // FNV-1a over "name=value;" pairs and the struct size, so a new field
  // changes the fingerprint even before it is listed here.
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  };
#define PERFBENCH_STAMP(name)                                   \
  fields.Int(#name, static_cast<int64_t>(cost.name));           \
  mix(std::string(#name "=") + std::to_string(static_cast<int64_t>(cost.name)) + ";");
  PERFBENCH_COST_FIELDS(PERFBENCH_STAMP)
#undef PERFBENCH_STAMP
  mix("sizeof=" + std::to_string(sizeof(sim::CostModel)));
  char fp[17];
  std::snprintf(fp, sizeof fp, "%016llx", static_cast<unsigned long long>(h));
  JsonObject stamp;
  stamp.Obj("values", fields).Str("fingerprint", fp);
  return stamp;
}

/// Host microseconds per statement to parse (and to deparse) the captured
/// statements, median of 5 passes.
std::pair<double, double> ReplayParseDeparse(
    const std::vector<std::string>& texts) {
  std::vector<citusx::sql::Statement> parsed;
  for (const std::string& t : texts) {
    auto r = citusx::sql::Parse(t);
    if (r.ok()) parsed.push_back(std::move(*r));
  }
  if (parsed.empty()) return {0, 0};
  std::vector<double> parse_us, deparse_us;
  size_t sink = 0;
  for (int rep = 0; rep < 5; rep++) {
    double t0 = HostNow();
    for (const std::string& t : texts) sink += citusx::sql::Parse(t).ok();
    double t1 = HostNow();
    for (const auto& s : parsed) sink += citusx::sql::DeparseStatement(s).size();
    double t2 = HostNow();
    parse_us.push_back((t1 - t0) * 1e6 / texts.size());
    deparse_us.push_back((t2 - t1) * 1e6 / parsed.size());
  }
  if (sink == 0) return {0, 0};
  return {Percentile(parse_us, 50), Percentile(deparse_us, 50)};
}

std::string JsonList(const std::vector<double>& v) {
  std::string out;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof buf, "%.17g", x);
    if (!out.empty()) out += ',';
    out += buf;
  }
  return "[" + out + "]";
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) Usage(("unknown workload " + args.workload).c_str());
  const LoopShape shape = workload->Shape();
  const citusx::citus::DeploymentOptions options = workload->Options();

  double reference_built = HostNow();
  ReferenceSlice reference;
  reference_built = HostNow() - reference_built;
  sim::Simulation sim;
  // Declared before the deployment: its wrappers live in the nodes' hooks.
  LayerTracer tracer(&sim, args.workload == "tpch");
  std::vector<std::string> errors;
  JsonObject out;
  out.Str("workload", args.workload)
      .Int("seed", static_cast<int64_t>(args.seed))
      .Bool("trace", args.trace);
  // Reference slices during set-up (at start, after the load, after the
  // prepare step, at the window start) give the machine's speed meanwhile;
  // their own host time (and building the slice) is left out of setup_s.
  std::vector<double> setup_refs;
  double setup_ref_total = reference_built;
  auto run_setup_reference = [&] {
    double h0 = HostNow();
    setup_refs.push_back(reference.Run());
    setup_ref_total += HostNow() - h0;
  };
  run_setup_reference();
  {
    citusx::citus::Deployment deploy(&sim, options);
    workload->Attach(deploy);
    if (args.trace) tracer.Install(deploy);

    sim::Time load_ns = 0;
    double host_load_s = 0, host_prepare_s = 0;
    Status setup = RunInSim(sim, [&]() -> Status {
      auto conn = deploy.Connect();
      if (!conn.ok()) return conn.status();
      CITUSX_RETURN_IF_ERROR(workload->CreateSchema(**conn));
      sim::Time t0 = sim.now();
      double h0 = HostNow();
      CITUSX_RETURN_IF_ERROR(workload->Ingest(**conn));
      load_ns = sim.now() - t0;
      host_load_s = HostNow() - h0;
      run_setup_reference();
      double h1 = HostNow();
      Status st = workload->Prepare(**conn);
      host_prepare_s = HostNow() - h1;
      return st;
    });
    run_setup_reference();
    if (!setup.ok()) {
      std::fprintf(stderr, "twoclock: setup failed: %s\n",
                   setup.ToString().c_str());
      sim.Shutdown();
      return 1;
    }

    LoopResult loop = RunClosedLoop(
        sim, deploy, *workload, reference, args.seed, args.host_seconds,
        !args.trace,
        [&](sim::Time start) { tracer.SetWindow(start, INT64_MAX); });
    tracer.SetWindow(loop.window_start, loop.fixed_end);
    if (!loop.refs.empty()) setup_refs.push_back(loop.refs.front());
    if (!loop.drained) errors.push_back("clients did not stop: a hang");
    Status check = RunInSim(sim, [&]() -> Status {
      auto conn = deploy.Connect();
      if (!conn.ok()) return conn.status();
      return workload->Check(**conn);
    });
    if (!check.ok()) errors.push_back(check.ToString());

    // ---- end-to-end: virtual metrics over the fixed window ----
    std::vector<double> lat_ms;
    std::vector<double> lat_ns;  // raw samples, to pool over rounds
    // Cycle mode: each op's host time, at the reference's nominal speed.
    const double ref_s = Percentile(loop.refs, 50);
    std::vector<double> op_host_s;
    int64_t attempted = 0, failed = 0, host_ops = 0, window_done = 0;
    for (const OpRecord& op : loop.ops) {
      if (op.t1 <= loop.end) {
        host_ops += op.ok;
        if (shape.cycle_ops > 0) {
          op_host_s.push_back(ReferenceSlice::AtNominal(op.host_s, ref_s));
        }
      }
      if (op.t1 <= loop.fixed_end) window_done++;
      if (op.t0 < loop.window_start || op.t1 > loop.fixed_end) continue;
      attempted++;
      if (!op.ok) {
        failed++;
        continue;
      }
      lat_ms.push_back(static_cast<double>(op.t1 - op.t0) / 1e6);
      lat_ns.push_back(static_cast<double>(op.t1 - op.t0));
    }
    // A failed op is counted (failed, fail_frac), not a wrong answer.
    if (!loop.first_error.empty()) {
      std::fprintf(stderr, "twoclock: %s seed %llu: an op failed: %s\n",
                   args.workload.c_str(),
                   static_cast<unsigned long long>(args.seed),
                   loop.first_error.c_str());
    }
    double window_s = static_cast<double>(loop.fixed_end - loop.window_start) / 1e9;
    JsonObject virt;
    virt.Int("samples", static_cast<int64_t>(lat_ms.size()))
        .Num("window_s", window_s)
        .Num("ops_per_s", window_s > 0 ? lat_ms.size() / window_s : 0)
        .Num("p50_ms", Percentile(lat_ms, 50))
        .Num("p90_ms", Percentile(lat_ms, 90))
        .Num("p99_ms", Percentile(lat_ms, 99))
        .Num("load_s", static_cast<double>(load_ns) / 1e9)
        .Raw("lat_ns", JsonList(lat_ns));

    // ---- end-to-end: host metrics over the host window ----
    double host_s = loop.host_end - loop.host_start - loop.ref_total;
    double fixed_host_s =
        loop.host_fixed_end - loop.host_start - loop.ref_at_fixed_end;
    // Host times at the reference's nominal speed; rates scale inversely.
    double setup_raw_s = loop.host_start - setup_ref_total;
    JsonObject host;
    // The process's CPU clock starts at zero with the process.
    host.Num("setup_s", ReferenceSlice::AtNominal(
                            setup_raw_s, Percentile(setup_refs, 50)))
        .Num("setup_raw_s", setup_raw_s)
        .Num("setup_wall_s", loop.wall_start - args.wall_start)
        .Num("load_s", host_load_s)
        .Num("prepare_s", host_prepare_s)
        .Num("ref_setup_s", Percentile(setup_refs, 50))
        .Num("ref_window_s", ref_s)
        .Num("window_s", host_s)
        .Num("window_wall_s", loop.wall_end - loop.wall_start)
        .Raw("op_host_s", JsonList(op_host_s))
        .Int("cycle_ops", shape.cycle_ops)
        .Int("ops", host_ops)
        .Num("ops_per_s", host_ops / ReferenceSlice::AtNominal(host_s, ref_s))
        .Num("raw_ops_per_s", host_ops / host_s)
        .Num("fixed_window_norm_s", ReferenceSlice::AtNominal(fixed_host_s, ref_s))
        .Num("fixed_window_s", fixed_host_s)
        .Num("peak_rss_mb", PeakRssMb());

    // ---- counters over the fixed window (they repeat for a seed) ----
    const ClusterSnapshot& a = loop.at_start;
    const ClusterSnapshot& b = loop.at_fixed_end;
    auto value = [](const ClusterSnapshot& snap, const std::string& name) {
      auto it = snap.counters.find(name);
      return static_cast<double>(it == snap.counters.end() ? 0 : it->second);
    };
    // Set-up costs count from process start; the rest over the window.
    auto total = [&](const std::string& name) { return value(b, name); };
    auto delta = [&](const std::string& name) {
      return value(b, name) - value(a, name);
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    double ops = static_cast<double>(std::max<int64_t>(window_done, 1));
    uint64_t events = b.events - a.events;
    JsonObject counters;
    std::string digest;
    for (const auto& [name, v] : b.counters) {
      counters.Num(name, delta(name));
      digest += name + "=" + std::to_string(delta(name)) + ";";
    }
    double cpu_busy = 0, cpu_frac_max = 0, disk_ops = 0, disk_frac_max = 0;
    for (size_t n = 0; n < b.cpu_busy_ns.size(); n++) {
      double busy = static_cast<double>(b.cpu_busy_ns[n] - a.cpu_busy_ns[n]);
      double ios = static_cast<double>(b.disk_ops[n] - a.disk_ops[n]);
      cpu_busy += busy;
      disk_ops += ios;
      cpu_frac_max = std::max(
          cpu_frac_max, busy / (options.cost.cores_per_node * window_s * 1e9));
      // Share of the node's IOPS capacity used over the window.
      disk_frac_max = std::max(
          disk_frac_max, ios / static_cast<double>(options.cost.disk_iops) /
                             window_s);
      digest += "cpu" + std::to_string(n) + "=" + std::to_string(busy) + ";";
    }
    digest += "events=" + std::to_string(events);

    JsonObject layers;
    layers.Num("sim.events_per_op", ratio(events, ops))
        .Num("sim.host_us_per_event", ratio(fixed_host_s * 1e6, events))
        .Num("sim.os_threads", loop.os_threads)
        .Num("net.round_trips_per_op", ratio(delta("net.round_trips"), ops))
        .Num("net.bytes_per_op", ratio(delta("net.bytes_sent"), ops))
        .Num("net.connections_opened", delta("net.connections_opened"))
        .Num("net.admission_rejected", delta("net.admission_rejected"))
        .Num("citus.planner.fast_path_per_op",
             ratio(delta("citus.planner.fast_path"), ops))
        .Num("citus.planner.router_per_op",
             ratio(delta("citus.planner.router"), ops))
        .Num("citus.planner.pushdown_per_op",
             ratio(delta("citus.planner.pushdown"), ops))
        .Num("citus.planner.join_order_per_op",
             ratio(delta("citus.planner.join_order"), ops))
        .Num("citus.plancache.hit_ratio",
             ratio(delta("citus.plancache.hit"),
                   delta("citus.plancache.hit") + delta("citus.plancache.miss")))
        .Num("citus.2pc.share",
             ratio(delta("citus.2pc.commits"),
                   delta("citus.2pc.commits") +
                       delta("citus.2pc.single_node_commits")))
        .Num("citus.executor.tasks_per_op",
             ratio(delta("citus.executor.tasks"), ops))
        .Num("citus.executor.pipelined_share",
             ratio(delta("citus.executor.pipelined_tasks"),
                   delta("citus.executor.tasks")))
        .Num("citus.failures.retries", delta("citus.failures.retries"))
        .Num("citus.repartition.shuffled_bytes_per_query",
             ratio(delta("citus.repartition.shuffled_bytes"), ops))
        .Num("citus.repartition.coordinator_bytes",
             delta("citus.repartition.coordinator_bytes"))
        .Num("citus.mx.sync_rounds", total("citus.mx.sync_rounds"))
        .Num("citus.mx.sync_bytes", total("citus.mx.sync_bytes"))
        .Num("txn.abort_ratio",
             ratio(delta("txn.aborts"), delta("txn.aborts") + delta("txn.commits")))
        .Num("locks.waits_per_txn", ratio(delta("locks.waits"), ops))
        .Num("locks.wait_ms_per_txn",
             ratio(delta("locks.wait_time.sum") / 1e6, ops))
        .Num("cpu.virt_us_per_op", ratio(cpu_busy / 1e3, ops))
        .Num("cpu.busy_frac_max", cpu_frac_max)
        .Num("bufferpool.hit_ratio",
             ratio(delta("bufferpool.hits"),
                   delta("bufferpool.hits") + delta("bufferpool.misses")))
        .Num("bufferpool.evictions_per_op", ratio(delta("bufferpool.evictions"), ops))
        .Num("disk.ios_per_op", ratio(disk_ops, ops))
        .Num("disk.busy_frac_max", disk_frac_max);

    if (args.trace) {
      auto per_op_us = [&](int64_t ns) { return ratio(ns / 1e3, ops); };
      LayerTotals plan = tracer.Totals(Layer::kPlanner, true);
      LayerTotals call = tracer.Totals(Layer::kCall, true);
      LayerTotals commit = tracer.Totals(Layer::kPreCommit, true);
      LayerTotals copy = tracer.Totals(Layer::kCopy, false);
      LayerTotals exec = tracer.Totals(Layer::kBatchExec, true);
      auto [parse_us, deparse_us] = ReplayParseDeparse(tracer.statements());
      KernelProbe probe = ProbeSimKernel();
      double exec_host_ns = tracer.exec_process_clock()
                                ? exec.process_cpu_union_ns
                                : exec.host_self_ns;
      layers.Num("sim.handoff_us", probe.handoff_us)
          .Num("sim.spawn_us", probe.spawn_us)
          .Num("sql.parse_us", parse_us)
          .Num("sql.deparse_us", deparse_us)
          .Num("sql.statements_replayed", tracer.statements().size())
          .Num("citus.planner_hook.calls_per_op", ratio(plan.calls, ops))
          .Num("citus.planner_hook.virt_us", per_op_us(plan.virt_self_ns))
          .Num("citus.planner_hook.host_us", per_op_us(plan.host_self_ns))
          .Num("citus.call_hook.virt_us", per_op_us(call.virt_self_ns))
          .Num("citus.call_hook.host_us", per_op_us(call.host_self_ns))
          .Num("citus.pre_commit.virt_us", per_op_us(commit.virt_self_ns))
          .Num("citus.copy_hook.virt_s", copy.virt_self_ns / 1e9)
          .Num("citus.copy_hook.host_s", copy.host_self_ns / 1e9)
          .Num("exec.batch.takeover_ratio", ratio(exec.answered, exec.calls))
          .Num("exec.batch.virt_ms_per_query",
               ratio(exec.virt_union_ns / 1e6, ops))
          .Num("exec.batch.host_ms_per_query", ratio(exec_host_ns / 1e6, ops));
      if (!args.spans_path.empty() && !tracer.WriteSpans(args.spans_path)) {
        std::fprintf(stderr, "twoclock: cannot write %s\n",
                     args.spans_path.c_str());
      }
    }

    out.Bool("correct", errors.empty())
        .Int("attempted", attempted)
        .Int("failed", failed)
        .Str("first_error", loop.first_error)
        .Obj("virt", virt)
        .Obj("host", host)
        .Obj("layers", layers)
        .Obj("counters", counters)
        .Str("determinism_digest", digest)
        .Obj("cost_model", CostStamp(options.cost));
    JsonObject shape_json;
    shape_json.Int("clients", shape.clients)
        .Num("think_ms", shape.think_time / 1e6)
        .Num("warmup_ms", shape.warmup / 1e6)
        .Num("window_ms", shape.window / 1e6)
        .Int("workers", options.num_workers)
        .Num("worker_pools_mb", options.num_workers *
                                    options.cost.buffer_pool_bytes / 1048576.0);
    out.Obj("shape", shape_json);
    std::string error_list;
    for (const std::string& e : errors) {
      if (!error_list.empty()) error_list += ',';
      error_list += Quote(e);
    }
    out.Raw("errors", "[" + error_list + "]");
    sim.Shutdown();
  }
  std::printf("%s\n", out.str().c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

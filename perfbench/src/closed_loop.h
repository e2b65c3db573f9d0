// Closed-loop driver with two clocks.
//
// Clients are daemon processes that each run one op, wait for its answer,
// and (after the workload's keying time) run the next. A ticker process
// marks the measured window: after the virtual warm-up it opens the window,
// keeps it open for the workload's fixed virtual length (the deterministic
// window every virtual metric comes from) and, unless `extend` is false,
// keeps extending it in small virtual chunks until `host_seconds` of host
// (CPU) time have passed (the window host metrics come from). Then the
// clients finish their current op and stop. In cycle mode (one client
// cycling a fixed op list) the client closes both windows itself, on pass
// boundaries. Reference slices (reference.h) run at every chunk boundary
// (after every op in cycle mode) while the simulation is paused; their host
// time is left out of the windows.
#ifndef PERFBENCH_CLOSED_LOOP_H_
#define PERFBENCH_CLOSED_LOOP_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "reference.h"
#include "workloads.h"

namespace perfbench {

/// Host time, in seconds, is the CPU time of the whole process (user +
/// system, every thread; CLOCK_PROCESS_CPUTIME_ID). The benchmark runs on one
/// pinned core and the simulation runs one thread at a time, so on an idle
/// core this equals wall time; unlike wall time it leaves out the time the
/// core spent on other tenants of the machine.
double HostNow();

/// Wall-clock seconds (CLOCK_MONOTONIC, the clock run.py stamps the process
/// start with); reported for reference only.
double WallNow();

struct OpRecord {
  sim::Time t0 = 0;
  sim::Time t1 = 0;
  bool ok = true;
  double host_s = 0;  // cycle mode: host time of the op (one client)
};

/// Cluster-wide state at one virtual instant: every node's counters summed
/// (a histogram contributes its count under its name and its sum under
/// "<name>.sum"), plus per-node CPU busy time and disk I/O counts.
struct ClusterSnapshot {
  std::map<std::string, int64_t> counters;
  std::vector<int64_t> cpu_busy_ns;
  std::vector<int64_t> disk_ops;
  uint64_t events = 0;
  sim::Time at = 0;
};

ClusterSnapshot TakeSnapshot(citusx::citus::Deployment& deploy);

struct LoopResult {
  std::vector<OpRecord> ops;  // every op that completed after window start
  sim::Time window_start = 0, fixed_end = 0, end = 0;
  double host_start = 0, host_fixed_end = 0, host_end = 0;
  double wall_start = 0, wall_end = 0;
  /// Host time the reference slices took by the fixed end and in total;
  /// the window host times above include it.
  double ref_at_fixed_end = 0, ref_total = 0;
  /// Every reference slice's host time: one at the window start, at every
  /// chunk (pass) boundary, and in cycle mode after every op.
  std::vector<double> refs;
  ClusterSnapshot at_start, at_fixed_end;
  int os_threads = 0;  // OS threads of the process at the fixed end
  std::string first_error;
  bool drained = true;  // every client stopped after the window
};

LoopResult RunClosedLoop(sim::Simulation& sim,
                         citusx::citus::Deployment& deploy, Workload& workload,
                         ReferenceSlice& reference, uint64_t seed,
                         double host_seconds, bool extend,
                         const std::function<void(sim::Time)>& on_window);

/// Run `fn` in a simulated process and drive the simulation until it ends.
Status RunInSim(sim::Simulation& sim, const std::function<Status()>& fn);

}  // namespace perfbench

#endif  // PERFBENCH_CLOSED_LOOP_H_

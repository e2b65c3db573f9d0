// Layer spans taken at the engine's extension-hook boundaries, from outside
// the program: the tracer wraps planner_hook, utility_hook, copy_hook,
// call_hook, pre_commit and the batch executor on every node.
//
// Each call records a span: layer, node, virtual start/end, host start/end
// and its parent, the innermost open span of the same simulated process.
// Self time is a span's duration minus the time its child spans cover.
//
// Host clocks. Every simulated process is an OS thread and other processes
// run while one is blocked inside a call, so host time is read from
// CLOCK_THREAD_CPUTIME_ID, never wall time. The one exception is the batch
// executor when `exec_process_clock` is set (tpch: one query in flight): its
// morsel workers are other threads, so its host time is the union of its
// spans on the CLOCK_PROCESS_CPUTIME_ID timeline.
//
// Spans are kept in memory and written out by WriteSpans at exit.
#ifndef PERFBENCH_LAYER_TRACE_H_
#define PERFBENCH_LAYER_TRACE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "citus/deploy.h"

namespace perfbench {

namespace sim = citusx::sim;

enum class Layer { kPlanner, kUtility, kCopy, kCall, kPreCommit, kBatchExec };
const char* LayerName(Layer layer);

/// Sums over the spans of one layer.
struct LayerTotals {
  int64_t calls = 0;
  int64_t virt_self_ns = 0;
  int64_t host_self_ns = 0;  // thread CPU
  int64_t virt_union_ns = 0;  // wall-clock coverage on each timeline
  int64_t process_cpu_union_ns = 0;
  int64_t answered = 0;  // batch executor: offers it took over
};

class LayerTracer {
 public:
  LayerTracer(sim::Simulation* sim, bool exec_process_clock)
      : sim_(sim), exec_process_clock_(exec_process_clock) {}

  LayerTracer(const LayerTracer&) = delete;
  LayerTracer& operator=(const LayerTracer&) = delete;

  /// Wrap the hooks of every node. The tracer must outlive the deployment's
  /// simulated processes (call sim.Shutdown() before destroying it).
  void Install(citusx::citus::Deployment& deploy);

  /// Spans that open in [start, end) belong to the measured window (the
  /// planner hook's statement capture reads it while the run goes on).
  void SetWindow(sim::Time start, sim::Time end) {
    window_start_ = start;
    window_end_ = end;
  }

  /// Totals over the window's spans, or over all spans.
  LayerTotals Totals(Layer layer, bool window_only) const;

  bool exec_process_clock() const { return exec_process_clock_; }

  /// Deparsed text of statements the planner hook saw in the window (up to
  /// a cap), for the parse/deparse replay.
  const std::vector<std::string>& statements() const { return statements_; }

  /// One line per span: id parent layer node v0 v1 thread_ns process_ns.
  bool WriteSpans(const std::string& path) const;

 private:
  struct Span {
    Layer layer;
    int node;
    int32_t parent;
    sim::Time v0 = 0, v1 = 0;
    int64_t t0 = 0, t1 = 0;  // thread CPU ns
    int64_t p0 = 0, p1 = 0;  // process CPU ns (see UsesProcessClock)
    int64_t child_v = 0, child_t = 0;
    bool answered = false;
  };

  int32_t Open(Layer layer, int node);
  void Close(int32_t id);
  bool UsesProcessClock(Layer layer) const {
    return exec_process_clock_ && layer == Layer::kBatchExec;
  }
  bool InWindow(sim::Time t) const {
    return t >= window_start_ && t < window_end_;
  }

  sim::Simulation* sim_;
  bool exec_process_clock_;
  sim::Time window_start_ = INT64_MAX, window_end_ = INT64_MAX;
  // Simulation-domain state: hooks only run inside simulated processes, one
  // at a time, so no locking is needed.
  std::vector<Span> spans_;
  std::unordered_map<const void*, std::vector<int32_t>> open_;
  std::vector<std::string> statements_;
};

/// Host cost of the simulation kernel, measured with Spawn, WaitFor, Block
/// and Wake only: one baton handoff between two processes, and one Spawn
/// of a process that runs to completion. Microseconds, median of 3.
struct KernelProbe {
  double handoff_us = 0;
  double spawn_us = 0;
};
KernelProbe ProbeSimKernel();

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_TRACE_H_

#include "layer_trace.h"

#include <time.h>

#include <algorithm>
#include <cstdio>
#include <optional>

#include "closed_loop.h"
#include "sql/deparser.h"

namespace perfbench {

namespace {

using citusx::Result;
using citusx::engine::QueryResult;
using citusx::engine::Session;

int64_t ClockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

constexpr size_t kMaxStatements = 2000;

/// Total length of the union of [lo, hi) intervals.
int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  int64_t total = 0, lo = 0, hi = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > hi) {
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += hi - lo;
  return total;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kPlanner: return "planner_hook";
    case Layer::kUtility: return "utility_hook";
    case Layer::kCopy: return "copy_hook";
    case Layer::kCall: return "call_hook";
    case Layer::kPreCommit: return "pre_commit";
    case Layer::kBatchExec: return "batch_executor";
  }
  return "?";
}

int32_t LayerTracer::Open(Layer layer, int node) {
  std::vector<int32_t>& stack = open_[sim::Simulation::Current()];
  Span s{layer, node, stack.empty() ? -1 : stack.back()};
  s.v0 = sim_->now();
  // The process clock sums every thread's runtime, so it costs O(threads):
  // read it only where it is used.
  if (UsesProcessClock(layer)) s.p0 = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  s.t0 = ClockNs(CLOCK_THREAD_CPUTIME_ID);
  auto id = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  stack.push_back(id);
  return id;
}

void LayerTracer::Close(int32_t id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.t1 = ClockNs(CLOCK_THREAD_CPUTIME_ID);
  if (UsesProcessClock(s.layer)) s.p1 = ClockNs(CLOCK_PROCESS_CPUTIME_ID);
  s.v1 = sim_->now();
  auto it = open_.find(sim::Simulation::Current());
  if (it != open_.end()) {
    if (!it->second.empty() && it->second.back() == id) it->second.pop_back();
    if (it->second.empty()) open_.erase(it);
  }
  if (s.parent >= 0) {
    Span& parent = spans_[static_cast<size_t>(s.parent)];
    parent.child_v += s.v1 - s.v0;
    parent.child_t += s.t1 - s.t0;
  }
}

void LayerTracer::Install(citusx::citus::Deployment& deploy) {
  for (size_t i = 0; i < deploy.cluster().num_nodes(); i++) {
    citusx::engine::Node* node = deploy.cluster().node(i);
    int n = static_cast<int>(i);
    citusx::engine::ExtensionHooks& hooks = node->hooks();
    // Runs `call` inside a span of `layer` on this node.
    auto traced = [this, n](Layer layer, auto&& call) {
      int32_t id = Open(layer, n);
      auto r = call();
      Close(id);
      return r;
    };
    if (auto orig = hooks.planner_hook) {
      hooks.planner_hook = [this, traced, orig](
                               Session& s, const citusx::sql::Statement& stmt,
                               const std::vector<citusx::sql::Datum>& params) {
        auto r = traced(Layer::kPlanner, [&] { return orig(s, stmt, params); });
        if (statements_.size() < kMaxStatements && InWindow(sim_->now())) {
          statements_.push_back(citusx::sql::DeparseStatement(stmt));
        }
        return r;
      };
    }
    if (auto orig = hooks.utility_hook) {
      hooks.utility_hook = [traced, orig](Session& s,
                                          const citusx::sql::Statement& stmt) {
        return traced(Layer::kUtility, [&] { return orig(s, stmt); });
      };
    }
    if (auto orig = hooks.copy_hook) {
      hooks.copy_hook = [traced, orig](
                            Session& s, const citusx::sql::CopyStmt& stmt,
                            const std::vector<std::vector<std::string>>& rows) {
        return traced(Layer::kCopy, [&] { return orig(s, stmt, rows); });
      };
    }
    if (auto orig = hooks.call_hook) {
      hooks.call_hook = [traced, orig](
                            Session& s, const citusx::sql::CallStmt& stmt,
                            const std::vector<citusx::sql::Datum>& args) {
        return traced(Layer::kCall, [&] { return orig(s, stmt, args); });
      };
    }
    if (auto orig = hooks.pre_commit) {
      hooks.pre_commit = [traced, orig](Session& s) {
        return traced(Layer::kPreCommit, [&] { return orig(s); });
      };
    }
    if (auto orig = node->batch_executor()) {
      node->set_batch_executor(
          [this, n, orig](citusx::engine::ExecNode& plan,
                          citusx::engine::ExecContext& ctx)
              -> Result<std::optional<QueryResult>> {
            int32_t id = Open(Layer::kBatchExec, n);
            auto r = orig(plan, ctx);
            Close(id);
            spans_[static_cast<size_t>(id)].answered = r.ok() && r->has_value();
            return r;
          });
    }
  }
}

LayerTotals LayerTracer::Totals(Layer layer, bool window_only) const {
  LayerTotals t;
  std::vector<std::pair<int64_t, int64_t>> virt, cpu;
  for (const Span& s : spans_) {
    if (s.layer != layer || s.v1 < s.v0) continue;
    if (window_only && !InWindow(s.v0)) continue;
    t.calls++;
    t.answered += s.answered;
    t.virt_self_ns += (s.v1 - s.v0) - s.child_v;
    t.host_self_ns += (s.t1 - s.t0) - s.child_t;
    virt.emplace_back(s.v0, s.v1);
    cpu.emplace_back(s.p0, s.p1);
  }
  t.virt_union_ns = UnionLength(std::move(virt));
  t.process_cpu_union_ns = UnionLength(std::move(cpu));
  return t;
}

bool LayerTracer::WriteSpans(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tlayer\tnode\tvirt_start_ns\tvirt_end_ns\t"
                  "thread_cpu_ns\tprocess_cpu_ns\n");
  for (size_t i = 0; i < spans_.size(); i++) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%s\t%d\t%lld\t%lld\t%lld\t%lld\n", i, s.parent,
                 LayerName(s.layer), s.node, (long long)s.v0, (long long)s.v1,
                 (long long)(s.t1 - s.t0), (long long)(s.p1 - s.p0));
  }
  return std::fclose(f) == 0;
}

KernelProbe ProbeSimKernel() {
  constexpr int kRoundTrips = 20000;
  constexpr int kSpawns = 1000;
  std::vector<double> handoff, spawn;
  for (int rep = 0; rep < 3; rep++) {
    {
      sim::Simulation s;
      sim::Process* a = nullptr;
      sim::Process* b = nullptr;
      // b parks first; each round trip is two handoffs (a->b, b->a).
      b = s.Spawn("probe_pong", [&] {
        for (int i = 0; i < kRoundTrips; i++) {
          if (!s.Block()) return;
          s.Wake(a);
        }
      });
      a = s.Spawn("probe_ping", [&] {
        if (!s.WaitFor(1)) return;
        for (int i = 0; i < kRoundTrips; i++) {
          s.Wake(b);
          if (!s.Block()) return;
        }
      });
      double t0 = HostNow();
      s.Run();
      handoff.push_back((HostNow() - t0) * 1e6 / (2.0 * kRoundTrips));
      s.Shutdown();
    }
    {
      sim::Simulation s;
      s.Spawn("probe_spawner", [&] {
        for (int i = 0; i < kSpawns; i++) s.Spawn("probe_child", [] {});
      });
      double t0 = HostNow();
      s.Run();
      spawn.push_back((HostNow() - t0) * 1e6 / kSpawns);
      s.Shutdown();
    }
  }
  std::sort(handoff.begin(), handoff.end());
  std::sort(spawn.begin(), spawn.end());
  return {handoff[1], spawn[1]};
}

}  // namespace perfbench

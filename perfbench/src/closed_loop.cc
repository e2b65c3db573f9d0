#include "closed_loop.h"

#include <time.h>

#include <fstream>
#include <memory>

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

}  // namespace

double HostNow() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double WallNow() { return ClockSeconds(CLOCK_MONOTONIC); }

namespace {

int CountOsThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

}  // namespace

ClusterSnapshot TakeSnapshot(citusx::citus::Deployment& deploy) {
  ClusterSnapshot snap;
  for (size_t i = 0; i < deploy.cluster().num_nodes(); i++) {
    citusx::engine::Node* node = deploy.cluster().node(i);
    for (const citusx::obs::MetricSample& s : node->metrics().Snapshot()) {
      snap.counters[s.name] += s.value;
      if (s.kind == citusx::obs::MetricSample::Kind::kHistogram) {
        snap.counters[s.name + ".sum"] += s.sum;
      }
    }
    snap.cpu_busy_ns.push_back(node->cpu().busy_total());
    snap.disk_ops.push_back(node->disk().ops_total());
  }
  snap.events = deploy.sim()->events_processed();
  snap.at = deploy.sim()->now();
  return snap;
}

Status RunInSim(sim::Simulation& sim, const std::function<Status()>& fn) {
  Status status;
  sim.Spawn("perfbench_setup", [&] { status = fn(); });
  sim.Run();
  return status;
}

LoopResult RunClosedLoop(sim::Simulation& sim,
                         citusx::citus::Deployment& deploy, Workload& workload,
                         ReferenceSlice& reference, uint64_t seed,
                         double host_seconds, bool extend,
                         const std::function<void(sim::Time)>& on_window) {
  const LoopShape shape = workload.Shape();
  // Simulation-domain state: only one simulated process runs at a time.
  // Shared with the client processes, which outlive this call if a client
  // never finishes its op (Shutdown then cancels it).
  struct State {
    sim::Simulation* sim = nullptr;
    citusx::citus::Deployment* deploy = nullptr;
    ReferenceSlice* reference = nullptr;
    LoopShape shape;
    double host_seconds = 0;
    bool extend = true;
    std::function<void(sim::Time)> on_window;
    bool stop = false;
    bool window_open = false;
    int active = 0;
    sim::Process* ticker = nullptr;
    double ref_total = 0;  // host time of reference slices in the window
    LoopResult result;

    void OpenWindow() {
      result.window_start = sim->now();
      result.at_start = TakeSnapshot(*deploy);
      if (on_window) on_window(result.window_start);
      window_open = true;
      result.wall_start = WallNow();
      result.host_start = HostNow();
      RunReference();
    }
    void CloseFixedWindow() {
      result.host_fixed_end = HostNow();
      result.ref_at_fixed_end = ref_total;
      result.fixed_end = sim->now();
      result.at_fixed_end = TakeSnapshot(*deploy);
      result.os_threads = CountOsThreads();
    }
    // The calling process holds the baton, so the simulation is paused
    // while the slice runs; its host time is left out of the window's.
    void RunReference() {
      double h0 = HostNow();
      result.refs.push_back(reference->Run());
      ref_total += HostNow() - h0;
    }
    bool HostWindowDone() const {
      return !extend ||
             HostNow() - result.host_start - ref_total >= host_seconds;
    }
    void CloseWindow() {
      result.host_end = HostNow();
      result.ref_total = ref_total;
      result.wall_end = WallNow();
      result.end = sim->now();
      window_open = false;
      stop = true;
    }
    // Cycle mode, after each op in the window.
    void AfterCycleOp() {
      auto done = static_cast<int64_t>(result.ops.size());
      if (done % shape.cycle_ops != 0) return;
      if (done == shape.cycle_ops) CloseFixedWindow();
      if (HostWindowDone()) {
        CloseWindow();
        sim->Wake(ticker);
      }
    }
  };
  const bool cycle = shape.cycle_ops > 0;
  auto state = std::make_shared<State>();
  state->sim = &sim;
  state->deploy = &deploy;
  state->reference = &reference;
  state->shape = shape;
  state->host_seconds = host_seconds;
  state->extend = extend;
  state->on_window = on_window;
  state->active = shape.clients;
  LoopResult& result = state->result;

  for (int c = 0; c < shape.clients; c++) {
    std::string endpoint = workload.Endpoint(deploy, c);
    sim.Spawn(
        "perfbench_client",
        [&sim, &deploy, &workload, state, shape, cycle, seed, c, endpoint] {
          LoopResult& result = state->result;
          Rng rng(seed * 0x2545F4914F6CDD1DULL + static_cast<uint64_t>(c) * 7919 +
                  17);
          auto conn =
              deploy.cluster().directory().ConnectWithRetry(nullptr, endpoint);
          if (!conn.ok()) {
            if (result.first_error.empty()) {
              result.first_error = conn.status().ToString();
            }
            state->active--;
            if (cycle) {
              state->stop = true;
              sim.Wake(state->ticker);
            }
            return;
          }
          if (cycle) state->OpenWindow();
          while (!state->stop) {
            if (shape.think_time > 0 && !sim.WaitFor(shape.think_time)) break;
            if (state->stop) break;
            sim::Time t0 = sim.now();
            double h0 = cycle ? HostNow() : 0;
            Status st = workload.Op(**conn, c, rng);
            sim::Time t1 = sim.now();
            if (state->window_open) {
              OpRecord op{t0, t1, st.ok()};
              if (cycle) {
                op.host_s = HostNow() - h0;
                state->RunReference();
              }
              result.ops.push_back(op);
              if (cycle) state->AfterCycleOp();
            }
            if (!st.ok() && result.first_error.empty()) {
              result.first_error = st.ToString();
            }
            if (!(*conn)->usable()) {
              auto fresh = deploy.cluster().directory().ConnectWithRetry(
                  nullptr, endpoint);
              if (!fresh.ok()) break;
              conn = std::move(fresh);
            }
          }
          state->active--;
        },
        /*daemon=*/true);
  }

  state->ticker = sim.Spawn("perfbench_ticker", [&] {
    if (cycle) {
      // The client opens and closes the windows; wait for it to finish.
      while (!state->stop) {
        if (!sim.Block()) return;
      }
    } else {
      if (!sim.WaitFor(shape.warmup)) return;
      state->OpenWindow();
      for (sim::Time t = 0; t < shape.window; t += shape.chunk) {
        if (!sim.WaitFor(shape.chunk)) return;
        state->RunReference();
      }
      state->CloseFixedWindow();
      while (!state->HostWindowDone()) {
        if (!sim.WaitFor(shape.chunk)) return;
        state->RunReference();
      }
      state->CloseWindow();
    }
    // Let every client finish its op (the gates need a quiescent cluster);
    // a client stuck for 60 virtual seconds is a hang, reported as such.
    sim::Time deadline = sim.now() + 60 * sim::kSecond;
    while (state->active > 0 && sim.now() < deadline) {
      if (!sim.WaitFor(sim::kMillisecond)) return;
    }
    result.drained = state->active == 0;
  });
  sim.Run();
  return std::move(result);
}

}  // namespace perfbench

// Discrete-event simulation kernel.
//
// citusx executes real database logic (real parsing, planning, locking, 2PC,
// real rows) but accounts *time* virtually, so a 9-node cluster with 16-core
// nodes and IOPS-limited disks can be modelled faithfully on a 1-core host and
// benchmarks are deterministic.
//
// Model: simulated processes are stackful fibers (ucontext, 8 MB stacks taken
// from a free list at first dispatch) that all run on the thread calling
// Run()/Shutdown(). Processes block either by scheduling a timer event for
// themselves (WaitFor / WaitUntil) or by parking until another process wakes
// them (Wake); the yielding fiber switches straight to the next event's
// fiber. All ordering ties are broken by a monotonically increasing sequence
// number, so runs are fully deterministic. Yielding inside a NoYieldScope
// aborts (DESIGN.md §6.3).
#ifndef CITUSX_SIM_SIMULATION_H_
#define CITUSX_SIM_SIMULATION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

namespace citusx::sim {

/// Simulated time in nanoseconds since simulation start.
using Time = int64_t;

constexpr Time kMicrosecond = 1000;
constexpr Time kMillisecond = 1000 * kMicrosecond;
constexpr Time kSecond = 1000 * kMillisecond;

class Simulation;
class FaultInjector;
struct Fiber;  // execution context + stack (simulation.cc)

/// A critical section: code that reads and updates state other simulated
/// processes share. Every process runs on the one thread that drives the
/// simulation, so a section is atomic as long as it does not yield; Yield
/// (WaitFor / WaitUntil / Block) aborts while any scope is live. Scopes
/// nest. cituslint's `blocking-under-lock` rule checks the same statically.
class NoYieldScope {
 public:
  NoYieldScope() { depth_++; }
  ~NoYieldScope() { depth_--; }

  NoYieldScope(const NoYieldScope&) = delete;
  NoYieldScope& operator=(const NoYieldScope&) = delete;

  /// Number of live scopes.
  static int depth() { return depth_; }

 private:
  static inline int depth_ = 0;
};

/// One simulated thread of control. Created via Simulation::Spawn; the body
/// runs on its own fiber, switched to whenever one of its events is due.
class Process {
 public:
  enum class State { kReady, kRunning, kBlocked, kDone };

  ~Process();

  const std::string& name() const { return name_; }
  uint64_t id() const { return id_; }
  bool cancelled() const { return cancelled_; }
  bool daemon() const { return daemon_; }

 private:
  friend class Simulation;

  Process(Simulation* sim, uint64_t id, std::string name, bool daemon,
          std::function<void()> fn);

  Simulation* sim_;
  uint64_t id_;
  std::string name_;
  bool daemon_;
  State state_ = State::kReady;
  bool cancelled_ = false;
  std::function<void()> fn_;     // moved onto the fiber at first dispatch
  std::unique_ptr<Fiber> fiber_;  // null until first dispatch and after exit
};

/// The simulation: virtual clock, event queue, process registry.
///
/// Typical use:
///   Simulation sim;
///   sim.Spawn("client", [&] { ... sim.WaitFor(10 * kMillisecond); ... });
///   sim.Run();        // returns when all non-daemon processes finish
///   sim.Shutdown();   // cancels daemons and lets every fiber unwind
class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time. Callable from anywhere.
  Time now() const { return now_; }

  /// Create a process scheduled to start at the current virtual time.
  /// Daemon processes do not keep Run() alive.
  Process* Spawn(std::string name, std::function<void()> fn,
                 bool daemon = false);

  /// Drive the simulation until every non-daemon process has finished (or
  /// nothing is runnable). Runs every process on the calling thread; may be
  /// called from inside a process of another simulation.
  void Run();

  /// Cancel all live processes and run each until its body returns.
  /// After Shutdown the simulation can no longer spawn processes.
  void Shutdown();

  /// True once Shutdown has begun; long-running loops should exit.
  bool stopping() const { return stopping_; }

  // ---- Calls below are only valid from within a simulated process. ----

  /// Sleep until virtual time `t`. Returns false if cancelled.
  bool WaitUntil(Time t);

  /// Sleep for `d` virtual nanoseconds. Returns false if cancelled.
  bool WaitFor(Time d);

  /// Park the calling process until another process calls Wake on it.
  /// Returns false if cancelled instead of woken.
  bool Block();

  /// Make a parked process runnable at the current virtual time.
  /// May be called from a running process or (between Run calls) externally.
  void Wake(Process* p);

  /// The process running on this thread (null outside any process).
  static Process* Current();

  /// Number of events processed so far (for tests/diagnostics).
  uint64_t events_processed() const { return events_processed_; }

  /// Number of fiber stacks mapped so far (for tests/diagnostics).
  size_t stacks_allocated() const { return stacks_allocated_; }

  /// The simulation's fault injector (chaos testing), created lazily on
  /// first access. Callable from anywhere in the simulation domain.
  FaultInjector& faults();

  /// True once faults() has been called (lets hot paths skip the lookup).
  bool has_fault_injector() const { return faults_ != nullptr; }

 private:
  struct Event {
    Time time;
    uint64_t seq;
    Process* process;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  // Parks the running process as `state` (kReady: with an event at `t`) and
  // switches to the next event's process, or to the driving context if the
  // queue is empty or all workers are done. False if cancelled.
  bool Yield(Process::State state, Time t);
  // Driving context: runs the next event's process; false if none is queued.
  bool Step();
  // Saves the running context into `self` and resumes `to` (null: the
  // driving context), giving `to` a fiber from NewFiber() at first dispatch.
  void SwitchTo(Fiber* self, Process* to);
  // A parked fiber from the free list, or a new stack entering FiberMain.
  std::unique_ptr<Fiber> NewFiber();
  Process* PopNext();
  void Enqueue(Process* p, Time t);
  static void FiberMain();

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 1;
  uint64_t events_processed_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::vector<std::unique_ptr<Process>> processes_;
  size_t live_ = 0;          // processes not yet kDone
  size_t live_workers_ = 0;  // non-daemon processes not yet kDone
  bool stopping_ = false;
  bool shutdown_done_ = false;
  std::unique_ptr<Fiber> driver_;  // context of the caller of Run()
  std::vector<std::unique_ptr<Fiber>> free_fibers_;
  size_t stacks_allocated_ = 0;
  std::unique_ptr<FaultInjector> faults_;  // created lazily
};

}  // namespace citusx::sim

#endif  // CITUSX_SIM_SIMULATION_H_

#include "sim/simulation.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "sim/fault.h"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace citusx::sim {

namespace {
// The default pthread stack size: deep parser/planner recursion needs
// megabytes under ASan. MAP_NORESERVE commits only the pages a fiber touches.
constexpr size_t kStackSize = size_t{8} << 20;
const size_t kGuardSize = static_cast<size_t>(sysconf(_SC_PAGESIZE));
thread_local Process* g_current_process = nullptr;
}  // namespace

/// A saved execution context. A process fiber owns an mmap'd stack above a
/// PROT_NONE guard page and runs FiberMain, parking on the free list between
/// processes; the driving context (no `mapping`) runs on the stack of the
/// caller of Run()/Shutdown(), whose bounds ASan reports.
struct Fiber {
  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  ~Fiber() {
    if (mapping == nullptr) return;
#ifdef __SANITIZE_ADDRESS__
    // The parked frames' redzones would poison the next mapping at this
    // address.
    ASAN_UNPOISON_MEMORY_REGION(bottom, size);
#endif
    munmap(mapping, kGuardSize + kStackSize);
  }
  ucontext_t context{};
  char* mapping = nullptr;
  const void* bottom = nullptr;  // usable stack, for ASan
  size_t size = 0;
  Fiber* resumed_by = nullptr;
};

namespace {

// Runs in the context just resumed: tells ASan which stack it left behind.
void FinishSwitch([[maybe_unused]] Fiber* me,
                  [[maybe_unused]] void* fake_stack) {
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_finish_switch_fiber(fake_stack, &me->resumed_by->bottom,
                                  &me->resumed_by->size);
#endif
}

}  // namespace

Process::Process(Simulation* sim, uint64_t id, std::string name, bool daemon,
                 std::function<void()> fn)
    : sim_(sim), id_(id), name_(std::move(name)), daemon_(daemon),
      fn_(std::move(fn)) {}

Process::~Process() = default;

Process* Simulation::Current() { return g_current_process; }

Simulation::Simulation() : driver_(std::make_unique<Fiber>()) {}

Simulation::~Simulation() { Shutdown(); }

FaultInjector& Simulation::faults() {
  if (faults_ == nullptr) faults_ = std::make_unique<FaultInjector>(this);
  return *faults_;
}

Process* Simulation::Spawn(std::string name, std::function<void()> fn,
                           bool daemon) {
  assert(!shutdown_done_ && "Spawn after Shutdown");
  // Free finished processes once they outnumber the live ones: amortized
  // O(1) for workloads that spawn a process per operation.
  if (processes_.size() - live_ > live_) {
    std::erase_if(processes_, [](const std::unique_ptr<Process>& p) {
      return p->state_ == Process::State::kDone;
    });
  }
  processes_.push_back(std::unique_ptr<Process>(
      new Process(this, next_id_++, std::move(name), daemon, std::move(fn))));
  live_++;
  if (!daemon) live_workers_++;
  Enqueue(processes_.back().get(), now_);
  return processes_.back().get();
}

std::unique_ptr<Fiber> Simulation::NewFiber() {
  if (!free_fibers_.empty()) {
    std::unique_ptr<Fiber> f = std::move(free_fibers_.back());
    free_fibers_.pop_back();
    return f;
  }
  void* m = mmap(nullptr, kGuardSize + kStackSize, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                 0);
  if (m == MAP_FAILED || mprotect(m, kGuardSize, PROT_NONE) != 0) {
    std::perror("[sim] cannot map a fiber stack");
    std::abort();
  }
  auto f = std::make_unique<Fiber>();
  f->mapping = static_cast<char*>(m);
  f->bottom = f->mapping + kGuardSize;
  f->size = kStackSize;
  getcontext(&f->context);
  f->context.uc_stack.ss_sp = f->mapping + kGuardSize;
  f->context.uc_stack.ss_size = kStackSize;
  makecontext(&f->context, &Simulation::FiberMain, 0);
  // Only makecontext reads uc_stack; clearing it stops ASan's swapcontext
  // interceptor from wiping the stack's shadow on every switch.
  f->context.uc_stack.ss_size = 0;
  stacks_allocated_++;
  return f;
}

void Simulation::FiberMain() {
  FinishSwitch(g_current_process->fiber_.get(), nullptr);
  for (;;) {  // one iteration per process run on this fiber
    Process* self = g_current_process;
    {
      std::function<void()> fn = std::move(self->fn_);
      if (!self->cancelled_) fn();
    }
    Simulation* sim = self->sim_;
    self->state_ = Process::State::kDone;
    sim->live_--;
    if (!self->daemon_) sim->live_workers_--;
    Process* next =
        sim->stopping_ || sim->live_workers_ > 0 ? sim->PopNext() : nullptr;
    if (next != nullptr && next->fiber_ == nullptr) {
      // A process that has never run takes this fiber over in place.
      next->fiber_ = std::move(self->fiber_);
      g_current_process = next;
      continue;
    }
    // Park on the free list until NewFiber hands this fiber to a new process.
    Fiber* fiber = self->fiber_.get();
    sim->free_fibers_.push_back(std::move(self->fiber_));
    sim->SwitchTo(fiber, next);
  }
}

void Simulation::Enqueue(Process* p, Time t) {
  assert(t >= now_);
  events_.push(Event{t, next_seq_++, p});
}

Process* Simulation::PopNext() {
  if (events_.empty()) return nullptr;
  Event e = events_.top();
  events_.pop();
  events_processed_++;
  if (e.time > now_) now_ = e.time;
  e.process->state_ = Process::State::kRunning;
  return e.process;
}

void Simulation::SwitchTo(Fiber* self, Process* to) {
  if (to != nullptr && to->fiber_ == nullptr) to->fiber_ = NewFiber();
  Fiber* target = to != nullptr ? to->fiber_.get() : driver_.get();
  target->resumed_by = self;
  g_current_process = to;
  void* fake_stack = nullptr;
#ifdef __SANITIZE_ADDRESS__
  __sanitizer_start_switch_fiber(&fake_stack, target->bottom, target->size);
#endif
  swapcontext(&self->context, &target->context);
  FinishSwitch(self, fake_stack);
}

bool Simulation::Yield(Process::State state, Time t) {
  Process* self = Current();
  assert(self != nullptr && "yield outside a simulated process");
  if (self->cancelled_) return false;
  // DESIGN.md §6.3 at runtime: another process would run in the middle of
  // the critical section and see its state half updated.
  if (NoYieldScope::depth() != 0) {
    std::fprintf(stderr, "[sim] %s: yield inside %d NoYieldScope(s)\n",
                 self->name().c_str(), NoYieldScope::depth());
    std::abort();
  }
  self->state_ = state;
  if (state == Process::State::kReady) Enqueue(self, t < now_ ? now_ : t);
  Process* next = stopping_ || live_workers_ > 0 ? PopNext() : nullptr;
  if (next != self) SwitchTo(self->fiber_.get(), next);
  self->state_ = Process::State::kRunning;
  return !self->cancelled_;
}

bool Simulation::Step() {
  Process* next = PopNext();
  if (next == nullptr) return false;
  Process* const outer = g_current_process;  // non-null when nested
  SwitchTo(driver_.get(), next);
  g_current_process = outer;
  return true;
}

bool Simulation::WaitUntil(Time t) {
  return Yield(Process::State::kReady, t);
}

bool Simulation::WaitFor(Time d) { return WaitUntil(now_ + (d < 0 ? 0 : d)); }

bool Simulation::Block() { return Yield(Process::State::kBlocked, 0); }

void Simulation::Wake(Process* p) {
  if (p->state_ != Process::State::kBlocked) return;
  p->state_ = Process::State::kReady;
  Enqueue(p, now_);
}

void Simulation::Run() {
  while (live_workers_ > 0) {
    if (Step()) continue;
    // Nothing runnable but workers not done: simulated deadlock.
    int blocked = 0;
    for (const auto& p : processes_) {
      if (!p->daemon_ && p->state_ == Process::State::kBlocked) blocked++;
    }
    if (blocked > 0) {
      std::fprintf(stderr,
                   "[sim] Run() returning with %d blocked worker(s) -- "
                   "simulated deadlock\n",
                   blocked);
    }
    return;
  }
}

void Simulation::Shutdown() {
  if (shutdown_done_) return;
  stopping_ = true;
  for (const auto& p : processes_) {
    if (p->state_ == Process::State::kDone) continue;
    p->cancelled_ = true;
    if (p->state_ == Process::State::kBlocked) {
      p->state_ = Process::State::kReady;
      Enqueue(p.get(), now_);
    }
  }
  while (live_ > 0 && Step()) {
  }
  shutdown_done_ = true;
}

}  // namespace citusx::sim

// A fixed slice of host work that does not depend on the program under
// test, run between the measured sub-windows to track the machine's speed.
//
// On a shared host the CPU time of one op drifts by tens of percent over
// tens of seconds as neighbours load caches, memory bandwidth and clock
// speed. Host rates are reported at the speed the slice had when
// calibrated (kNominalSeconds), so the drift cancels and program changes do
// not: the slice passes a baton around a ring of threads through condition
// variables (the context switches among many simulated processes that the
// simulation kernel makes), walks a 64 MB table at random (the cache misses
// of executing statements) and streams 8 MB of it (a column scan).
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

class ReferenceSlice {
 public:
  /// About the host seconds of one slice on an idle 2.1 GHz Xeon vCPU; only
  /// a unit, chosen once.
  static constexpr double kNominalSeconds = 0.008;

  /// `host_s` of work done while slices took a median of `ref_s` each,
  /// expressed at the nominal speed.
  static double AtNominal(double host_s, double ref_s) {
    return ref_s > 0 ? host_s * kNominalSeconds / ref_s : host_s;
  }

  ReferenceSlice();
  ~ReferenceSlice();
  ReferenceSlice(const ReferenceSlice&) = delete;
  ReferenceSlice& operator=(const ReferenceSlice&) = delete;

  /// Runs one slice; returns the host (process CPU) seconds it took.
  double Run();

 private:
  // A baton ring: member i runs when baton_ == i and passes it to i + 1;
  // the caller owns it at baton_ == ring size; -2 stops the ring.
  std::mutex mu_;
  std::vector<std::condition_variable> cvs_;  // one per member + the caller
  int baton_ = -1;
  uint32_t sink_ = 0;
  std::vector<uint32_t> table_;
  uint32_t cursor_ = 1;
  std::vector<std::thread> ring_;  // declared last: it uses the members above
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_

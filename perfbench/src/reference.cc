#include "reference.h"

#include "closed_loop.h"

namespace perfbench {

namespace {

constexpr int kRingThreads = 32;
constexpr int kLaps = 12;                   // baton laps around the ring
constexpr uint32_t kTableWords = 16u << 20;  // 64 MB of uint32
constexpr int kReads = 30000;
constexpr uint32_t kScanWords = 2u << 20;   // 8 MB streamed per slice

}  // namespace

ReferenceSlice::ReferenceSlice()
    : cvs_(kRingThreads + 1), table_(kTableWords) {
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (uint32_t& v : table_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = static_cast<uint32_t>(x);
  }
  for (int i = 0; i < kRingThreads; i++) {
    ring_.emplace_back([this, i] {
      // Each member touches a little state of its own per turn, like a
      // simulated process resuming on its own stack.
      uint32_t local[512] = {};
      std::unique_lock<std::mutex> lock(mu_);
      for (;;) {
        cvs_[i].wait(lock, [this, i] { return baton_ == i || baton_ < -1; });
        if (baton_ < -1) return;
        for (uint32_t& v : local) v += static_cast<uint32_t>(i);
        sink_ += local[i];
        baton_ = i + 1;  // kRingThreads: back to the caller
        cvs_[i + 1].notify_one();
      }
    });
  }
}

ReferenceSlice::~ReferenceSlice() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    baton_ = -2;
  }
  for (std::condition_variable& cv : cvs_) cv.notify_all();
  for (std::thread& t : ring_) t.join();
}

double ReferenceSlice::Run() {
  double t0 = HostNow();
  for (int lap = 0; lap < kLaps; lap++) {
    std::unique_lock<std::mutex> lock(mu_);
    baton_ = 0;
    cvs_[0].notify_one();
    cvs_[kRingThreads].wait(lock, [this] { return baton_ == kRingThreads; });
  }
  uint32_t c = cursor_;
  for (int i = 0; i < kReads; i++) {
    c = table_[(c + static_cast<uint32_t>(i)) & (kTableWords - 1)];
  }
  // A streaming pass over an eighth of the table, like a column scan.
  uint32_t base = (c & 7) * kScanWords;
  uint64_t sum = 0;
  for (uint32_t i = 0; i < kScanWords; i++) {
    sum += table_[base + i] * 2654435761u;
  }
  cursor_ = c ^ static_cast<uint32_t>(sum) ^ sink_;
  return HostNow() - t0;
}

}  // namespace perfbench

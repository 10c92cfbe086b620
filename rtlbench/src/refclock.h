// A reference clock for a shared host whose speed drifts.
//
// On a shared machine the same deterministic pass can take 1.2 s or 2.2 s:
// the core runs the whole time, but slower or faster as the rest of the
// host's load changes, over seconds and over minutes. So the benchmark
// times a fixed kernel of its own (sorting and dependent table loads, no
// allocation, nothing from rtlsat) in the measuring thread between the
// program's calls, and reports times on a reference clock that runs at the
// kernel's speed: a raw interval times kNominalKernelSeconds over the
// kernel's time around it. A program change moves only the raw interval;
// a host slowdown moves both and cancels.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

namespace rtlbench {

class RefClock {
 public:
  // A fixed scale: a reference second is a second at the host speed where
  // the kernel takes this long (near its median on a shared 4-core x86-64
  // host).
  static constexpr double kNominalKernelSeconds = 0.002;

  RefClock();

  // Seconds since the clock's epoch, on the steady clock. Thread-safe.
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

  // Times the kernel (the median of kRuns runs after one warm-up run) and
  // logs it. Not thread-safe: call it from one thread, between calls.
  void sample();
  // Samples unless the last sample ended less than `interval_s` ago.
  void sample_every(double interval_s);

  struct Interval {
    double raw_s = 0;  // wall seconds, minus the sampling inside
    double ref_s = 0;  // the same on the reference clock
  };
  // [start, end] (from now()), without the time spent sampling inside it.
  // Between two samples the host runs at the mean of their kernel times;
  // before the first and after the last, at that sample's.
  Interval measure(double start, double end) const;

  // Median kernel time over every sample so far; 0 before the first.
  double median_kernel_s() const;

 private:
  static constexpr int kRuns = 5;

  struct Sample {
    double start = 0;
    double end = 0;
    double kernel_s = 0;
  };

  double kernel();

  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> sorted_;
  std::vector<std::uint32_t> table_;
  std::vector<Sample> samples_;
};

}  // namespace rtlbench

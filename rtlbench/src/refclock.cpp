#include "refclock.h"

#include <algorithm>
#include <array>

#include "summary.h"

namespace rtlbench {

RefClock::RefClock() : keys_(1 << 14), sorted_(1 << 14), table_(1 << 19) {
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  for (std::uint64_t& key : keys_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    key = x;
  }
  const auto mask = static_cast<std::uint32_t>(table_.size() - 1);
  for (std::uint32_t i = 0; i < table_.size(); ++i)
    table_[i] = (i * 2654435761u + 12345u) & mask;
}

// A branchy sort of a 128 KiB array, then a chain of 32768 dependent loads
// through a 2 MiB table: the mix of compute and cache misses a solver's
// propagation and conflict analysis make.
double RefClock::kernel() {
  const double start = now();
  std::copy(keys_.begin(), keys_.end(), sorted_.begin());
  std::sort(sorted_.begin(), sorted_.end());
  const std::uint64_t mask = table_.size() - 1;
  std::uint64_t h = sorted_[5];
  std::uint64_t at = 0;
  for (int i = 0; i < (1 << 15); ++i) {
    at = table_[(at + h) & mask];
    h = h * 6364136223846793005ull + at;
  }
  volatile std::uint64_t sink = h;
  (void)sink;
  return now() - start;
}

void RefClock::sample() {
  const double start = now();
  kernel();
  std::array<double, kRuns> runs;
  for (double& run : runs) run = kernel();
  std::sort(runs.begin(), runs.end());
  samples_.push_back({start, now(), runs[kRuns / 2]});
}

void RefClock::sample_every(double interval_s) {
  if (samples_.empty() || now() - samples_.back().end >= interval_s) sample();
}

RefClock::Interval RefClock::measure(double start, double end) const {
  Interval out;
  if (samples_.empty()) {
    out.raw_s = end - start;
    out.ref_s = out.raw_s;
    return out;
  }
  // The time outside every sample, cut at the sample boundaries, each piece
  // at the host speed the samples around it give.
  const auto add = [&](double from, double to, double kernel_s) {
    const double raw = std::min(to, end) - std::max(from, start);
    if (raw <= 0) return;
    out.raw_s += raw;
    out.ref_s += raw * kNominalKernelSeconds / kernel_s;
  };
  add(start, samples_.front().start, samples_.front().kernel_s);
  for (std::size_t i = 0; i + 1 < samples_.size(); ++i) {
    const Sample& a = samples_[i];
    const Sample& b = samples_[i + 1];
    add(a.end, b.start, (a.kernel_s + b.kernel_s) / 2);
  }
  add(samples_.back().end, end, samples_.back().kernel_s);
  return out;
}

double RefClock::median_kernel_s() const {
  std::vector<double> kernels;
  for (const Sample& s : samples_) kernels.push_back(s.kernel_s);
  return median(kernels);
}

}  // namespace rtlbench

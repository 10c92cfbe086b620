// Named counters and value-distribution histograms the solver exports so
// experiments can report, e.g., the number of data-path implications (the
// paper's §5.1 explanation of the b13_3 anomaly rests on that counter) or
// the learned-clause length distribution.
//
// Hot-path convention: counter(name) returns a stable std::int64_t& (and
// histogram(name) a stable Histogram&) — resolve the handle ONCE at
// construction time and increment through the reference. Calling
// add(name, 1) per event costs a string hash + map walk and is reserved
// for cold paths.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>

namespace rtlsat {

// A power-of-two-bucketed distribution: bucket 0 counts values ≤ 0 and
// bucket i ≥ 1 counts values in [2^(i−1), 2^i − 1]. Adding a sample is a
// handful of instructions (bit_width + array increment), cheap enough for
// per-conflict recording.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void add(std::int64_t value) {
    if (count_ == 0 || value < min_) min_ = value;
    if (count_ == 0 || value > max_) max_ = value;
    ++count_;
    sum_ += value;
    ++buckets_[static_cast<std::size_t>(bucket_index(value))];
  }

  std::int64_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  double mean() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  const std::array<std::int64_t, kBuckets>& buckets() const { return buckets_; }

  static int bucket_index(std::int64_t value) {
    if (value <= 0) return 0;
    const int width =
        static_cast<int>(std::bit_width(static_cast<std::uint64_t>(value)));
    return width < kBuckets ? width : kBuckets - 1;
  }
  // Inclusive range covered by bucket i (bucket 0 is (−∞, 0]).
  static std::int64_t bucket_lo(int i) {
    if (i <= 0) return INT64_MIN;
    return std::int64_t{1} << (i - 1);
  }
  static std::int64_t bucket_hi(int i) {
    if (i <= 0) return 0;
    if (i >= kBuckets - 1) return INT64_MAX;
    return (std::int64_t{1} << i) - 1;
  }

  // Accumulates another histogram into this one (bucket-wise addition;
  // min/max/sum/count combine exactly). The portfolio merges per-worker
  // histograms this way — merge(a, b) equals recording a's and b's samples
  // into one histogram in any order.
  void merge(const Histogram& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
    sum_ += other.sum_;
    for (int i = 0; i < kBuckets; ++i) {
      buckets_[static_cast<std::size_t>(i)] +=
          other.buckets_[static_cast<std::size_t>(i)];
    }
  }

  // "count=N sum=S min=m max=M mean=x.x" one-line summary.
  std::string to_string() const;

 private:
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::array<std::int64_t, kBuckets> buckets_{};
};

class Stats {
 public:
  // Stable reference: std::map nodes never move, so handles resolved at
  // construction stay valid for the Stats object's lifetime.
  std::int64_t& counter(const std::string& name) { return counters_[name]; }

  std::int64_t get(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  void add(const std::string& name, std::int64_t delta) {
    counters_[name] += delta;
  }

  // Stable reference, same contract as counter().
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  // nullptr when no sample was ever recorded under `name`.
  const Histogram* find_histogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  // Accumulates another registry into this one: counters with the same
  // name add, histograms merge bucket-wise, names unique to `other` are
  // copied. This is how the portfolio folds its per-worker registries into
  // one report. Stats itself is NOT thread-safe — the concurrency model is
  // one instance per worker, merged after the workers join; handles
  // resolved via counter()/histogram() stay valid across merges (std::map
  // nodes never move).
  void merge(const Stats& other) {
    for (const auto& [name, value] : other.counters_) counters_[name] += value;
    for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
  }

  void clear() {
    counters_.clear();
    histograms_.clear();
  }

  const std::map<std::string, std::int64_t>& all() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  // Multi-line "name = value" dump, sorted by name; histograms follow the
  // counters as "name : count=… sum=… min=… max=… mean=…" lines.
  std::string to_string() const;

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace rtlsat

// Labeled metrics registry (ISSUE 7 / ROADMAP "measure before optimising").
//
// Layering: util/stats.h counters stay the per-worker, single-threaded
// source of truth for end-of-run totals; this registry is the *shared*,
// thread-safe view a background Sampler (sampler.h) and the future
// rtlsat-serve /metrics endpoint scrape while the search is running.
// Solvers publish into registry handles at conflict boundaries with relaxed
// atomic stores, so the hot path never takes a lock and a disabled registry
// costs a single null-pointer branch (publishing changes no search counter:
// ZeroDrift.GaugesAndLiveSamplerDoNotChangeTheSearch).
//
// Three instrument kinds:
//   Counter   — monotone, incremented from many threads; per-thread sharded
//               cacheline-aligned atomic slots keep increments contention-free,
//               value() sums the shards on scrape.
//   Gauge     — last-value-wins atomic set() from one publisher; a gauge
//               registered `monotone` additionally gets a derived _per_s rate
//               in the sampler output (decisions/sec etc.).
//   HistogramMetric — util/stats Histogram sharded per thread behind one
//               mutex per shard (uncontended in practice), merged on scrape.
//
// expose(std::ostream&) writes Prometheus text exposition format 0.0.4;
// parse_exposition() reads it back for round-trip tests.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/stats.h"

namespace rtlsat::metrics {

struct Label {
  std::string key;
  std::string value;
};
using Labels = std::vector<Label>;

// Stable textual identity of a label set: `k1=v1,k2=v2` sorted by key, empty
// string for no labels. The sampler groups metrics into one JSONL line per
// canonical label string ("source").
std::string canonical_labels(const Labels& labels);

enum class MetricKind { kCounter, kGauge, kHistogram };

namespace internal {
// Per-thread shard index in [0, shards): threads are assigned round-robin at
// first use. Two threads may share a shard (atomics keep that correct); the
// sharding only exists to avoid cacheline ping-pong in the common case.
std::size_t shard_index(std::size_t shards);
}  // namespace internal

class Counter {
 public:
  static constexpr std::size_t kShards = 16;

  void add(std::int64_t delta = 1) {
    slots_[internal::shard_index(kShards)].v.fetch_add(
        delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    std::int64_t total = 0;
    for (const Slot& s : slots_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  struct alignas(64) Slot {
    std::atomic<std::int64_t> v{0};
  };
  std::array<Slot, kShards> slots_{};
};

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  // A monotone gauge publishes a cumulative total (decisions, conflicts,
  // exported clauses); the sampler differences consecutive samples into a
  // `<name>_per_s` rate. Plain gauges (trail size, DB bytes) get no rate.
  bool monotone() const { return monotone_; }

 private:
  friend class MetricsRegistry;
  std::atomic<std::int64_t> value_{0};
  bool monotone_ = false;
};

class HistogramMetric {
 public:
  static constexpr std::size_t kShards = 8;

  void observe(std::int64_t value) {
    Shard& s = shards_[internal::shard_index(kShards)];
    std::lock_guard<std::mutex> lock(s.mu);
    s.hist.add(value);
  }
  // Merged view across shards (exact: Histogram::merge is order-independent).
  Histogram snapshot() const {
    Histogram out;
    for (const Shard& s : shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      out.merge(s.hist);
    }
    return out;
  }

 private:
  struct alignas(64) Shard {
    mutable std::mutex mu;
    Histogram hist;
  };
  std::array<Shard, kShards> shards_{};
};

class MetricsRegistry {
 public:
  // Registration is idempotent: the same (name, labels) pair always returns
  // the same handle, so portfolio re-runs can reuse a registry. Registering
  // an existing name+labels under a different kind aborts (programming
  // error). Handles stay valid for the registry's lifetime; registration
  // takes a lock, so resolve handles once at setup (same convention as
  // util/stats counter()).
  Counter* counter(const std::string& name, const Labels& labels = {});
  Gauge* gauge(const std::string& name, const Labels& labels = {},
               bool monotone = false);
  HistogramMetric* histogram(const std::string& name, const Labels& labels = {});

  // One scraped metric instance, value frozen at scrape time.
  struct Sample {
    std::string name;           // registry name, e.g. "solver.decisions"
    Labels labels;              // as registered
    std::string source;         // canonical_labels(labels)
    MetricKind kind = MetricKind::kGauge;
    bool monotone = false;      // counters are always monotone
    std::int64_t value = 0;     // counter/gauge
    Histogram hist;             // histogram
  };
  // Snapshot of every registered metric, sorted by (name, source).
  std::vector<Sample> scrape() const;

  // Prometheus text exposition format 0.0.4: metric names are sanitized
  // (dots -> underscores, "rtlsat_" prefix), each family gets a # TYPE line,
  // histograms expand into cumulative _bucket{le=...}/_sum/_count series
  // over the power-of-two bounds of util/stats Histogram.
  void expose(std::ostream& out) const;

  std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    std::string source;
    MetricKind kind = MetricKind::kGauge;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<HistogramMetric> hist;
  };
  Entry& entry(const std::string& name, const Labels& labels, MetricKind kind);

  mutable std::mutex mu_;
  // Key "<name>|<canonical labels>": map order groups a family's label sets
  // contiguously, which expose() relies on for # TYPE line placement.
  std::map<std::string, Entry> entries_;
};

// "solver.decisions" -> "rtlsat_solver_decisions" (exposition identifier).
std::string exposition_name(const std::string& name);

// Parses text exposition back into {"name{labels}" -> value} (comment lines
// skipped). Returns false with *error set on malformed input. Used by the
// expose/JSONL round-trip test, not by the solver.
bool parse_exposition(const std::string& text,
                      std::map<std::string, double>* out, std::string* error);

}  // namespace rtlsat::metrics

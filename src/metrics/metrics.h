// Labeled gauge registry for the serve daemon's live telemetry.
//
// Layering: util/stats.h counters stay the per-worker, single-threaded
// source of truth for end-of-run totals, and each solver streams its live
// state through its trace::ProgressReporter heartbeat. This registry is the
// *shared*, thread-safe view of process-level state (the `serve.*` gauges)
// that a background Sampler (sampler.h) scrapes while the daemon runs.
// Publishers store with relaxed atomics, so they never take a lock.
//
// A Gauge is last-value-wins; one registered `monotone` publishes a
// cumulative total (jobs done, cache hits) and additionally gets a derived
// `<name>_per_s` rate in the sampler output.
//
// expose(std::ostream&) writes Prometheus text exposition format 0.0.4;
// parse_exposition() reads it back for round-trip tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

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

class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  // A monotone gauge publishes a cumulative total; the sampler differences
  // consecutive samples into a `<name>_per_s` rate. Plain gauges (queue
  // depth, connections) get no rate.
  bool monotone() const { return monotone_; }

 private:
  friend class MetricsRegistry;
  std::atomic<std::int64_t> value_{0};
  bool monotone_ = false;
};

class MetricsRegistry {
 public:
  // Registration is idempotent: the same (name, labels) pair always returns
  // the same handle. Handles stay valid for the registry's lifetime;
  // registration takes a lock, so resolve handles once at setup (same
  // convention as util/stats counter()).
  Gauge* gauge(const std::string& name, const Labels& labels = {},
               bool monotone = false);

  // One scraped gauge, value frozen at scrape time.
  struct Sample {
    std::string name;           // registry name, e.g. "serve.queue_depth"
    Labels labels;              // as registered
    std::string source;         // canonical_labels(labels)
    bool monotone = false;
    std::int64_t value = 0;
  };
  // Snapshot of every registered gauge, sorted by (name, source).
  std::vector<Sample> scrape() const;

  // Prometheus text exposition format 0.0.4: metric names are sanitized
  // (dots -> underscores, "rtlsat_" prefix) and each family gets one
  // # TYPE line.
  void expose(std::ostream& out) const;

  std::size_t size() const;

 private:
  struct Entry {
    std::string name;
    Labels labels;
    std::string source;
    std::unique_ptr<Gauge> gauge;
  };

  mutable std::mutex mu_;
  // Key "<name>|<canonical labels>": map order groups a family's label sets
  // contiguously, which expose() relies on for # TYPE line placement.
  std::map<std::string, Entry> entries_;
};

// "serve.queue_depth" -> "rtlsat_serve_queue_depth" (exposition identifier).
std::string exposition_name(const std::string& name);

// Parses text exposition back into {"name{labels}" -> value} (comment lines
// skipped). Returns false with *error set on malformed input. Used by the
// expose/JSONL round-trip test, not by the daemon.
bool parse_exposition(const std::string& text,
                      std::map<std::string, double>* out, std::string* error);

}  // namespace rtlsat::metrics

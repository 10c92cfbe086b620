// Background telemetry sampler: snapshots a MetricsRegistry at a fixed
// interval into a JSONL time series (docs/observability.md "Time-series
// schema"). Each sample emits one line per metric source (canonical label
// set) plus one "process" line with resident-set memory, e.g.
//
//   {"t_s":0.50,"source":"main","serve.queue_depth":2,
//    "serve.jobs_done":41,"serve.jobs_done_per_s":12.0,...}
//   {"t_s":0.50,"source":"process","rss_kb":14200,"rss_peak_kb":14800}
//
// Monotone gauges additionally get a `<name>_per_s` rate derived by
// differencing consecutive samples; a value that moves backwards (a handle
// reused for a new run) resets the baseline and reports no rate for that
// sample.
//
// Threading: the sampler only ever *reads* the registry (atomic loads).
// start()/stop() run a background thread; tick() samples synchronously and
// is what tests drive with an injected fake clock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/metrics.h"
#include "trace/sink.h"
#include "util/timer.h"

namespace rtlsat::metrics {

struct SamplerOptions {
  trace::JsonlSink* sink = nullptr;  // JSONL destination; may be null
  double interval_seconds = 0.1;
  // Seconds since an arbitrary epoch; null = internal monotonic clock.
  std::function<double()> clock;
  bool include_process = true;       // emit the rss_kb/rss_peak_kb line
  bool collect_in_memory = false;    // keep emitted lines for drain()
};

class Sampler {
 public:
  Sampler(MetricsRegistry* registry, SamplerOptions options);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  // Spawns the background thread; stop() interrupts the interval sleep,
  // takes one final sample (so even sub-interval runs produce a series),
  // and joins. Both are idempotent.
  void start();
  void stop();

  // Takes one sample synchronously (manual mode; no thread required).
  void tick();

  std::int64_t samples() const;
  // collect_in_memory mode: moves out the emitted JSONL lines.
  std::vector<std::string> drain();

 private:
  void run();
  void sample_once(double now);
  void emit(const std::string& line);

  MetricsRegistry* registry_;
  SamplerOptions options_;
  Timer epoch_;

  mutable std::mutex sample_mu_;  // serializes sample_once vs drain
  // Rate baselines: "name|source" -> (sample time, value).
  std::map<std::string, std::pair<double, std::int64_t>> prev_;
  std::vector<std::string> collected_;
  std::int64_t samples_ = 0;

  std::mutex thread_mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool running_ = false;
  std::thread thread_;
};

}  // namespace rtlsat::metrics

// Instrumentation that exists only inside the benchmark binary: a counting
// global operator new, and an in-memory span log with per-layer self times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace rtlbench {

// The replacement operator new counts calls and requested bytes only while
// counting is on (a traced pass); otherwise it costs one relaxed load.
struct AllocCounts {
  std::int64_t count = 0;
  std::int64_t bytes = 0;
};
void set_alloc_counting(bool on);
AllocCounts alloc_counts();  // totals over every counted interval so far

using Clock = std::chrono::steady_clock;

// Spans around the public calls a workload makes. Each span has an id, a
// parent id (-1 = root), a layer name ("core.solve", "bmc.ensure_bound"…)
// and a subject: the instance or request it belongs to. Child spans can
// also be synthesized from totals a call reports (the solver's time.*_us
// phases, a serve result's service_seconds). A disabled log records
// nothing and hands out id -1. Thread-safe.
class SpanLog {
 public:
  struct Span {
    int id = 0;
    int parent = -1;
    std::string name;
    std::string subject;
    double start_s = 0;  // since the log's epoch
    double dur_s = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  // Starts a span now; close() stamps its duration.
  int open(const std::string& name, int parent, const std::string& subject);
  void close(int id);
  // Records a span whose extent is already known.
  int add(const std::string& name, int parent, const std::string& subject,
          double start_s, double dur_s);

  double duration(int id) const;
  // Self time per layer name (duration minus the children's), summed over
  // the spans that descend from `root` (root itself excluded).
  std::map<std::string, double> self_seconds(int root) const;

  // One JSON object per span and line.
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int parent,
             const std::string& subject)
      : log_(log), id_(log.open(name, parent, subject)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

}  // namespace rtlbench

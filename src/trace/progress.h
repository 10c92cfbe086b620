// Periodic search-progress reporting, driven from the HDPLL and CDCL main
// loops: a MiniSat-style interval banner on a FILE* stream and/or JSONL
// heartbeats into a JsonlSink, plus kProgress counter events into a Tracer
// (which render as counter tracks in Perfetto). The heartbeat is the one
// live per-solver telemetry stream: `--metrics` on the paper commands, the
// portfolio's per-worker series and serve's progress frames all carry it.
//
// The solver calls due() once per conflict — one clock read and a compare —
// and only when it returns true builds a snapshot of its counters for
// report(); the reporter rate-limits to `interval_seconds` using an
// injectable clock (tests drive a fake clock to pin the cadence).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "trace/sink.h"
#include "trace/trace.h"

namespace rtlsat::trace {

// JSONL heartbeat schema version, carried as field "v" on every line
// together with a per-reporter sequence number "seq" (0-based, +1 per
// line) so streaming consumers can detect dropped or reordered records.
// Bump on any incompatible change to the heartbeat record shape.
inline constexpr int kHeartbeatSchemaVersion = 2;

// What the solver loop hands to report(). Counts are running totals;
// `learnt`, `trail`, `level` and the byte fields are instantaneous.
struct ProgressSnapshot {
  std::int64_t conflicts = 0;
  std::int64_t decisions = 0;
  std::int64_t propagations = 0;
  std::int64_t learnt = 0;       // live learned clauses
  std::int64_t restarts = 0;
  std::int64_t trail = 0;        // current assignment count
  std::uint32_t level = 0;       // current decision level
  std::int64_t clauses_exported = 0;  // portfolio clause sharing
  std::int64_t clauses_imported = 0;
  // Instrumented heap bytes of the solver's structures (memory.h).
  std::int64_t clause_db_bytes = 0;
  std::int64_t implication_graph_bytes = 0;
  std::int64_t interval_store_bytes = 0;
};

struct ProgressOptions {
  bool banner = true;            // human-readable interval table
  std::FILE* stream = nullptr;   // banner destination; null = stderr
  double interval_seconds = 1.0;
  // Seconds since an arbitrary epoch; null = internal monotonic clock.
  // Tests substitute a fake clock to verify the cadence.
  std::function<double()> clock;
  Tracer* tracer = nullptr;      // also emit kProgress events; may be null
  // Heartbeat destination; null = no heartbeats. Several reporters may
  // share one sink (a portfolio's workers): each tags its lines with
  // `label` as a "worker" field so the streams stay distinguishable.
  JsonlSink* sink = nullptr;
  std::string label;
};

class ProgressReporter {
 public:
  explicit ProgressReporter(ProgressOptions options = {});
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  // The per-conflict check: one clock read and a compare. True when the
  // interval has elapsed; the caller then builds a snapshot and passes it
  // to report(), which stamps it with the time due() read.
  bool due();
  void report(const ProgressSnapshot& snapshot) {
    emit(snapshot, last_report_);
  }
  // Unconditional final report (solvers call this once at the end so short
  // runs still produce one line).
  void finish(const ProgressSnapshot& snapshot);

  std::int64_t reports() const { return reports_; }

 private:
  void emit(const ProgressSnapshot& snapshot, double now);

  ProgressOptions options_;
  Timer epoch_;
  double last_report_ = 0;
  std::int64_t reports_ = 0;
  bool header_printed_ = false;
};

}  // namespace rtlsat::trace

// Structured search-event tracing (the observability tentpole).
//
// The solver stack records compact binary events — decisions, propagation
// conflicts, learned clauses/relations, restarts, backtracks, FME/arith
// checks, phase boundaries — into a ring buffer that is flushed to two
// sinks: a JSONL file (one event object per line, easy to grep and to load
// into pandas) and a Chrome trace_event JSON file that opens directly in
// chrome://tracing or https://ui.perfetto.dev.
//
// Cost model: a disabled tracer is a single predictable branch per hook
// (`if (!enabled_) return;`), so the default build pays nothing measurable
// on the hot paths (rtlbench's trace.overhead_ratio prices the enabled
// one; ZeroDrift.EnabledTracerDoesNotChangeTheSearch shows it changes no
// search counter). An enabled tracer
// pays one timestamp read plus a ring-buffer store per event, amortising
// file I/O over `ring_capacity` events.
//
// Enabling:
//   - programmatically: construct a Tracer and pass it via HdpllOptions /
//     sat::SolverOptions (or Engine::set_tracer);
//   - environment: RTLSAT_TRACE=<base> makes the process-wide global()
//     tracer write <base>.jsonl and <base>.trace.json. RTLSAT_TRACE_VERBOSE=1
//     additionally records per-narrowing events.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/stats.h"
#include "util/timer.h"

namespace rtlsat::trace {

enum class EventKind : std::uint8_t {
  kDecision = 0,          // a = net, b = value
  kStructuralDecision,    // a = net, b = value (J-frontier justification)
  kPropConflict,          // a = net that went empty, b = reason kind
  kConflict,              // a = decision level before backtracking
  kAnalyze,               // a = resolution steps, b = learned clause length
  kLearnedClause,         // a = clause length, b = backtrack level
  kLearnedRelation,       // a = clause length (predicate learning, §3)
  kLearnedUnit,           // a = net proven constant
  kBacktrack,             // a = from level, b = to level
  kRestart,               // a = restart count
  kArithCheck,            // a = 1 sat / 0 refuted (FME end-game, §2.4)
  kFmeSolve,              // a = constraint count, b = 1 sat / 0 unsat
  kJustifyFrontier,       // a = J-frontier size (verbose only)
  kNarrowing,             // a = net, b = interval width (verbose only)
  kBitblast,              // a = variables, b = clauses
  kUnroll,                // a = nets, b = bound
  kPhaseBegin,            // a = interned phase-name id
  kPhaseEnd,              // a = interned phase-name id
  kProgress,              // a = conflicts, b = decisions
  kMaxKind                // sentinel, not a real event
};

// Stable wire name for a kind ("decision", "phase_begin", ...).
const char* kind_name(EventKind kind);

// One trace event. Timestamps are microseconds since the tracer's epoch
// (its construction). `a`/`b` payloads are kind-specific, see EventKind.
struct Event {
  std::int64_t t_us = 0;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::uint32_t level = 0;
  EventKind kind = EventKind::kDecision;

  friend bool operator==(const Event&, const Event&) = default;
};

// Fixed-width little-endian binary encoding (t_us, a, b: 8 bytes each;
// level: 4; kind: 1) — the in-memory ring is structs, but tests and any
// future binary sink round-trip through this.
constexpr std::size_t kEncodedEventSize = 29;
void encode_event(const Event& event, std::vector<std::uint8_t>& out);
// Decodes one event from `data`; false on truncation or an invalid kind.
bool decode_event(const std::uint8_t* data, std::size_t size, Event& out);

struct TracerOptions {
  std::string jsonl_path;    // empty = no JSONL sink
  std::string chrome_path;   // empty = no Chrome trace_event sink
  // Events buffered before a flush to the file sinks.
  std::size_t ring_capacity = std::size_t{1} << 14;
  // Record per-narrowing engine events and J-frontier sizes (voluminous).
  bool verbose = false;
  // Keep flushed events in memory (drain()) instead of requiring files —
  // used by tests and the overhead micro-bench.
  bool collect_in_memory = false;
};

class Tracer {
 public:
  // A disabled tracer: record() is a branch and nothing else.
  Tracer();
  // Enabled iff any sink (file path or in-memory collection) is configured.
  explicit Tracer(TracerOptions options);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  bool verbose() const { return enabled() && verbose_; }

  void record(EventKind kind, std::uint32_t level, std::int64_t a = 0,
              std::int64_t b = 0) {
    if (!enabled()) return;
    record_slow(kind, level, a, b);
  }

  // Phase names are interned once; ids are stable for the tracer lifetime.
  std::int64_t intern(const std::string& name);
  const std::string& phase_name(std::int64_t id) const;
  void begin_phase(const std::string& name);
  void end_phase(const std::string& name);

  // Drains the ring to the sinks. Called automatically when the ring fills
  // and on close().
  void flush();
  // Flushes and finalizes the sink files (writes the Chrome JSON footer).
  // The tracer is disabled afterwards. Idempotent; also run by ~Tracer.
  void close();
  // Best-effort flush for the crash.h registry (atexit / fatal signal):
  // try_lock, drain the ring, fflush; with `finalize` also write the Chrome
  // footer since no destructor will run. Never blocks, never allocates the
  // lock. A tracer with file sinks registers itself automatically.
  void crash_flush(bool finalize);

  std::int64_t events_recorded() const;
  // collect_in_memory mode: moves out everything recorded so far.
  std::vector<Event> drain();

 private:
  void record_slow(EventKind kind, std::uint32_t level, std::int64_t a,
                   std::int64_t b);
  void flush_locked();
  void append_jsonl(std::string* out, const Event& event) const;
  void append_chrome(std::string* out, const Event& event) const;

  std::atomic<bool> enabled_{false};
  bool verbose_ = false;
  TracerOptions options_;
  Timer epoch_;

  mutable std::mutex mu_;
  std::vector<Event> ring_;
  std::vector<Event> collected_;
  std::int64_t recorded_ = 0;
  std::map<std::string, std::int64_t> intern_ids_;
  std::vector<std::string> intern_names_;
  std::FILE* jsonl_file_ = nullptr;
  std::FILE* chrome_file_ = nullptr;
  bool chrome_first_event_ = true;
  bool chrome_footer_written_ = false;
  bool closed_ = false;
  int crash_id_ = -1;
};

// Process-wide tracer, initialized once from RTLSAT_TRACE (see header
// comment); disabled when the variable is unset. Solver components fall
// back to this when no tracer is passed explicitly.
Tracer& global();

// RAII phase scope: brackets a region with kPhaseBegin/kPhaseEnd events
// and, when `stats` is non-null, accumulates the elapsed time into the
// counter "time.<name>_us" (the phase-profiling convention; see
// docs/observability.md). Either pointer may be null.
class ScopedPhase {
 public:
  ScopedPhase(Tracer* tracer, Stats* stats, std::string name);
  ~ScopedPhase();
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Tracer* tracer_;
  Stats* stats_;
  std::string name_;
  Timer timer_;
};

}  // namespace rtlsat::trace

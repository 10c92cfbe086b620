// The fixed set of live-telemetry handles a solver publishes into, resolved
// once from a MetricsRegistry at setup (make_solver_gauges) and stored as a
// nullable pointer in HdpllOptions/SolverOptions. Publishing happens at
// conflict boundaries with relaxed atomic stores; with a null pointer the
// whole feature is one branch
// (ZeroDrift.GaugesAndLiveSamplerDoNotChangeTheSearch shows publishing
// changes no search counter).
//
// The same struct serves HDPLL and the bit-blasted CDCL solver — labels
// (worker id, configuration name) distinguish instances, e.g.
//   make_solver_gauges(&registry, {{"worker", "0"}, {"name", "HDPLL+S+P"}}).
#pragma once

#include <string>

#include "metrics/metrics.h"

namespace rtlsat::metrics {

// Values published through SolverGauges::phase. kIdle doubles as "solve
// finished" in the sampled series.
enum class SolverPhase : std::int64_t {
  kIdle = 0,
  kPreprocess = 1,
  kPredicateLearning = 2,
  kSearch = 3,
  kArithCheck = 4,
};

struct SolverGauges {
  // Monotone totals -> the sampler derives `_per_s` rates from these.
  Gauge* decisions = nullptr;
  Gauge* conflicts = nullptr;
  Gauge* propagations = nullptr;
  Gauge* restarts = nullptr;
  Gauge* clauses_exported = nullptr;
  Gauge* clauses_imported = nullptr;
  // Instantaneous state.
  Gauge* learnt_clauses = nullptr;
  Gauge* trail = nullptr;
  Gauge* level = nullptr;
  Gauge* phase = nullptr;  // SolverPhase value
  // Instrumented heap bytes (owning-class counters, see memory.h).
  Gauge* clause_db_bytes = nullptr;
  Gauge* implication_graph_bytes = nullptr;
  Gauge* interval_store_bytes = nullptr;
  // Literal block distance of each learned clause. Recorded only here (not
  // in the per-worker Stats) so bench --json output is identical whether or
  // not sampling is enabled.
  HistogramMetric* lbd = nullptr;

  void set_phase(SolverPhase p) {
    if (phase != nullptr) phase->set(static_cast<std::int64_t>(p));
  }
};

SolverGauges make_solver_gauges(MetricsRegistry* registry,
                                const Labels& labels);

}  // namespace rtlsat::metrics

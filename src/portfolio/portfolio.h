// Parallel portfolio front-end: race N solver configurations on one
// instance, return the first verdict, cooperatively cancel the rest.
//
// The portfolio idea (see PAPERS.md on portfolio SAT solving) transplants
// cleanly onto the paper's Table 2 experiment: the three HDPLL
// configurations and the bit-blast CDCL baseline have wildly different —
// and instance-dependent — runtimes, so racing them buys min-of-N latency
// for one machine's worth of cores. Two mechanisms make the race more than
// N independent solves:
//
//  * cooperative cancellation — every worker polls one StopToken
//    (util/stop_token.h) deep in its loops, so the losers stop within
//    milliseconds of the winner's verdict instead of running to their own
//    timeouts;
//  * predicate-clause sharing — HDPLL workers export learned conflict
//    clauses and §3 predicate relations through a shared ClausePool and
//    import peers' clauses at restart boundaries, so one worker's proof
//    work shortens the others' searches.
//
// Determinism: `deterministic = true` trades the race for reproducibility —
// workers run sequentially in index order (sharing still on, cancellation
// off), imports land at the same restart boundaries every run, and the
// winner is the lowest-index worker with a verdict. Two runs of the same
// deterministic portfolio produce identical verdicts, models, and solver
// counters, provided no worker hits the wall-clock budget.
//
// docs/portfolio.md covers the architecture and the sharing policy.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hdpll.h"
#include "ir/circuit.h"
#include "portfolio/clause_pool.h"
#include "util/stats.h"

namespace rtlsat::trace {
class JsonlSink;
}  // namespace rtlsat::trace

namespace rtlsat::portfolio {

// One racer: either an HdpllSolver with the given options or the bit-blast
// CDCL baseline. `name` labels reports and bench JSON rows.
struct WorkerConfig {
  std::string name;
  bool bitblast = false;
  core::HdpllOptions hdpll;
};

struct PortfolioOptions {
  int jobs = 4;                 // worker count (≥ 1)
  bool share_clauses = true;    // predicate-clause sharing via ClausePool
  std::size_t share_max_len = 8;
  double budget_seconds = 0;    // wall-clock budget for the race; 0 = none
  bool deterministic = false;   // sequential mode (see file comment)
  // External cancellation (serve job cancel, CLI interrupt): combined with
  // the internal first-verdict-wins source, so a fired token stops every
  // worker within milliseconds and the race returns without a verdict.
  // Default-constructed = never fires.
  StopToken stop;
  // Cross-job clause exchange (rtlsat-serve): when set, workers publish to
  // and import from this pool instead of a race-local one, so a later job
  // on the *same instance* (same circuit object layout, same goal — the
  // caller owns that equivalence, see serve/bank.h) starts with the
  // earlier jobs' learned clauses. Sharing is enabled even for a 1-worker
  // portfolio in this mode, since the peers are in other jobs. Borrowed;
  // must outlive solve(). Null = race-local pool.
  ClausePool* pool = nullptr;
  // Pool worker-id namespace offset. Worker i publishes as id `base + i`;
  // concurrent jobs sharing one pool must use disjoint ranges or same-index
  // workers would skip each other's clauses on fetch.
  int worker_id_base = 0;
  // Cross-check the winner's verdict against the losers after the race:
  // decisive verdicts must agree, a SAT model must satisfy the goal under
  // circuit evaluation, and every HDPLL loser's level-0 interval store
  // must admit the model (core/selfcheck.h's soundness audit).
  bool crosscheck = true;
  // Run the interval presolver (src/presolve) before the race: a
  // presolve-decided instance returns immediately with winner_name
  // "presolve" (and, on SAT, a model over the original inputs); an
  // undecided one races the simplified circuit and maps the winner's model
  // back through the input names. Applies to solve() only — an assumption
  // race (solve(assumptions)) names nets of the original circuit, which a
  // rewrite may have erased, so it ignores this flag.
  bool presolve = false;
  // Forwarded to every HDPLL worker.
  int learn_threshold = 2000;
  bool self_check = kSelfCheckBuild;
  // Shared by all workers (trace::Tracer is internally synchronized); null
  // ⟹ trace::global(). Borrowed.
  trace::Tracer* tracer = nullptr;
  // Per-worker live telemetry: when set, each worker drives a
  // ProgressReporter (no banner) writing heartbeats tagged
  // "worker": "<index>:<config>" into this shared sink every
  // `progress_interval_seconds`. Borrowed; must outlive solve(). Null = off.
  trace::JsonlSink* progress_sink = nullptr;
  double progress_interval_seconds = 0.5;
};

struct WorkerReport {
  std::string name;
  char verdict = '?';  // 'S', 'U', 'T', 'C' (cancelled), '?' (skipped)
  double seconds = 0;
  std::int64_t clauses_exported = 0;
  std::int64_t clauses_imported = 0;
  // Seconds between the winner's stop request and this worker's return;
  // < 0 when the worker was not cancelled. The acceptance bar is < 50 ms.
  double cancel_latency = -1;
  Stats stats;
};

struct PortfolioResult {
  core::SolveStatus status = core::SolveStatus::kTimeout;
  // On kSat: the winner's model for every primary input.
  std::unordered_map<ir::NetId, std::int64_t> input_model;
  int winner = -1;  // index into workers; -1 = no verdict
  std::string winner_name;
  double seconds = 0;  // wall clock for the whole race
  std::vector<WorkerReport> workers;
  // Every worker's counters/histograms merged (util/stats.h merge()), plus
  // portfolio.* counters (workers, shared clause totals).
  Stats stats;
  // Non-empty ⟹ the winner and a loser disagreed (see crosscheck option).
  std::vector<std::string> crosscheck_violations;
};

// The default lineup for `jobs` workers, in tie-break order: HDPLL+S+P,
// bit-blast CDCL, HDPLL+S, HDPLL, then seed/parameter-perturbed HDPLL+S+P
// duplicates for any remaining slots.
std::vector<WorkerConfig> default_lineup(int jobs, int learn_threshold);

class Portfolio {
 public:
  // Solves "goal = goal_value" over `circuit` (borrowed; must outlive the
  // portfolio). An empty lineup uses default_lineup(options.jobs).
  Portfolio(const ir::Circuit& circuit, ir::NetId goal, bool goal_value,
            PortfolioOptions options = {},
            std::vector<WorkerConfig> lineup = {});

  PortfolioResult solve();

  // Race under per-call retractable (net, interval) assumptions, layered
  // above the goal exactly as in core::HdpllSolver::solve(assumptions)
  // (docs/incremental.md). Bit-blast workers cannot take word-level
  // assumptions, so a non-empty set sidelines them for this race (verdict
  // '?'); the HDPLL workers all solve the same strengthened instance, so
  // the verdict cross-check stays meaningful.
  PortfolioResult solve(
      const std::vector<std::pair<ir::NetId, Interval>>& assumptions);

 private:
  const ir::Circuit& circuit_;
  ir::NetId goal_;
  bool goal_value_;
  PortfolioOptions options_;
  std::vector<WorkerConfig> lineup_;
};

}  // namespace rtlsat::portfolio

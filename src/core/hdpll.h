// The hybrid DPLL solver (paper Algorithm 1) with the DAC'05 additions:
// structural decision-making (Algorithm 2, option structural_decisions) and
// predicate-based static learning (§3, option predicate_learning).
//
// Search skeleton:
//   while Decide() has work:
//     Ddeduce() — hybrid Boolean/interval propagation + clause propagation
//     on conflict: analyze the hybrid implication graph, learn, backtrack
//   when every Boolean variable is assigned and the box is bounds
//   consistent: certify a point solution with Fourier–Motzkin, or learn
//   from its refutation.
//
// The three solver configurations of the paper's Table 2 map to options:
//   HDPLL      — defaults
//   HDPLL+S    — structural_decisions = true
//   HDPLL+S+P  — structural_decisions = predicate_learning = true
// and the structure-blind "naive CDP" stand-in used in the benches is
// conflict_learning = false (chronological DPLL).
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/analyze.h"
#include "core/arith_check.h"
#include "core/clause_db.h"
#include "core/clause_exchange.h"
#include "core/decision.h"
#include "core/justify.h"
#include "core/predicate_learning.h"
#include "core/proof_log.h"
#include "prop/engine.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace rtlsat::trace {
class Tracer;
class ProgressReporter;
}  // namespace rtlsat::trace

namespace rtlsat::core {

struct HdpllOptions {
  bool structural_decisions = false;  // +S (paper §4)
  bool predicate_learning = false;    // +P (paper §3)
  PredicateLearningOptions learning;

  // Conflict-based learning over the combined decision procedure ([9]).
  // Off ⟹ plain chronological DPLL — the structure-blind baseline.
  bool conflict_learning = true;
  AnalyzeOptions analyze;

  double timeout_seconds = 0;  // 0 = no limit (paper used 1200 s)
  // Cooperative cancellation (portfolio racing, external budgets). The
  // token is merged with timeout_seconds into one deadline-carrying token
  // when solve() starts, and that merged token is polled at decision
  // boundaries, inside interval propagation, inside FME, and before every
  // predicate-learning probe — so a fired token (or an expired deadline)
  // stops the solver within milliseconds even on propagation-heavy
  // instances where the old between-conflicts poll lagged. Default-
  // constructed = never fires.
  StopToken stop;
  // Portfolio clause sharing: when set, learned conflict clauses and
  // predicate relations (length-capped by the exchange) are offered after
  // each learning step, and peers' clauses are imported at restart
  // boundaries. Borrowed; must outlive the solver. Null = no sharing.
  ClauseExchange* exchange = nullptr;
  double activity_decay = 0.95;
  double learned_weight_bonus = 4.0;  // activity seed per clause occurrence
  bool random_decisions = false;      // ablation: ignore activities
  std::uint64_t random_seed = 1;

  // Learnt-clause database management (an engineering extension over the
  // paper, which keeps every learned clause): periodically drop the least
  // recently useful long clauses.
  bool clause_reduction = true;
  std::size_t reduction_base = 4000;   // learnt clauses before first sweep
  double reduction_grow = 1.3;
  double clause_activity_decay = 0.999;
  // Luby restarts in units of conflicts; 0 disables. On by default as an
  // engineering extension (the paper does not mention restarts): with
  // phase saving they flatten the heavy-tailed runtimes on the larger BMC
  // instances. Ignored in chronological mode.
  int restart_interval = 128;

  // Evaluate the circuit on every SAT model and assert the assumptions
  // hold — cheap insurance that a bug can never report a false SAT.
  bool verify_models = true;

  // Run the invariant verifier (core/selfcheck.h) during search: asserting-
  // clause checks on every learned clause, full trail/implication-graph and
  // clause-database audits every `self_check_interval` conflicts and at
  // every SAT answer (including interval soundness against the model).
  // Defaults on in -DRTLSAT_SELFCHECK=ON builds; any violation aborts.
  bool self_check = kSelfCheckBuild;
  int self_check_interval = 64;

  // Observability (src/trace). `tracer` records structured search events
  // (decisions, conflicts, learned clauses, arith checks, phases …); null
  // ⟹ trace::global(), which stays disabled unless RTLSAT_TRACE is set, so
  // the default cost is one predicted branch per event. `progress` is asked
  // due() per conflict and handed a snapshot (counters, clause sharing,
  // instrumented heap bytes) when a banner row or heartbeat is due; null ⟹
  // no reporting. Both are borrowed and must outlive the solver.
  trace::Tracer* tracer = nullptr;
  trace::ProgressReporter* progress = nullptr;

  // Proof logging: when set, every derivation — level-0 narrowings,
  // learned clauses with their implication-graph cut, predicate-learning
  // probes, FME refutations, portfolio imports, reductions — is appended
  // to this writer as a word-level certificate (docs/proofs.md), checkable
  // by the independent rtlsat_check binary. Borrowed; must outlive the
  // solver. Null (the default) costs one predicted branch per hook.
  // Certification requires conflict learning: in chronological mode
  // (conflict_learning = false) the writer is ignored.
  proof::WordCertWriter* proof = nullptr;
};

// kTimeout: the solver's own deadline expired. kCancelled: an external
// StopToken fired (portfolio loser, user interrupt) — no verdict either
// way, but the distinction matters for reporting and for the portfolio's
// cancellation-latency accounting.
enum class SolveStatus { kSat, kUnsat, kTimeout, kCancelled };

struct SolveResult {
  SolveStatus status = SolveStatus::kTimeout;
  // On kSat: a satisfying value for every primary input.
  std::unordered_map<ir::NetId, std::int64_t> input_model;
  PredicateLearningReport learning;
  double seconds = 0;
};

class HdpllSolver {
 public:
  explicit HdpllSolver(const ir::Circuit& circuit, HdpllOptions options = {});

  // Instance constraints, applied at level 0 when solve() starts. The
  // proposition under test is an assumption (e.g. goal net = 1). These are
  // *persistent*: once applied they hold for every later call, and level-0
  // facts deduced from them are never undone. Callable between solve()
  // calls to strengthen the instance.
  void assume(ir::NetId net, const Interval& interval);
  void assume_bool(ir::NetId net, bool value) {
    assume(net, Interval::point(value ? 1 : 0));
  }

  SolveResult solve();
  // Incremental interface: solve under per-call (net, interval)
  // assumptions layered *above* the persistent assume() constraints. Each
  // assumption occupies one trail level (1..m, a dummy level when already
  // entailed), strictly below every real decision, and is retracted when
  // the call returns — while learned hybrid clauses, predicate relations,
  // activities, saved phases, and the level-0 interval store all persist.
  // Retraction is sound because anything learned while an assumption was
  // live carries that assumption's negation as a literal: conflict
  // analysis emits assumption events below the conflict level as literals,
  // FME decision cuts explicitly include the assumption levels, and
  // conflicts *at* an assumption level learn nothing at all (the call just
  // reports kUnsat). A kUnsat answer therefore only condemns the
  // assumption set unless root_unsat() also flipped; the solver stays
  // reusable either way. Word-certificate proof logging is incompatible
  // with retractable assumptions and is disarmed for calls that pass any
  // (a multi-call certificate would cite underivable prior-call clauses).
  SolveResult solve(
      const std::vector<std::pair<ir::NetId, Interval>>& assumptions);

  // True once the instance itself (circuit + persistent assumptions) was
  // refuted at level 0; every later solve() answers kUnsat immediately.
  bool root_unsat() const { return root_unsat_; }

  // Re-arm the budget between solve() calls: the next call derives its
  // effective token from these (0 seconds = no deadline, default token =
  // never cancelled). Lets one incremental solver serve a sequence of
  // differently-budgeted queries (the serve layer's warm BMC sessions).
  void set_budget(double timeout_seconds, StopToken stop = {}) {
    options_.timeout_seconds = timeout_seconds;
    options_.stop = stop;
  }

  // Adopts nets appended to the circuit since the last call (the circuit
  // reference handed to the constructor must still be alive and must only
  // have grown). Extends the engine/clause-db/heap tables, seeds the new
  // Boolean nets' decision activities, and extends the structural
  // justifier — each over the appended nets only, so a call costs what
  // the new frame costs. The constructor is the call from zero nets. The
  // level-0 trail and all learned clauses survive — they remain valid
  // because the circuit is append-only. The incremental BMC unroller calls
  // this once per new time-frame.
  void sync_circuit();

  // Portfolio cross-check: replays `input_model` (a winner's SAT model)
  // against this solver's circuit view at level 0 — evaluate the circuit on
  // the model, then run the selfcheck interval-soundness audit so a loser
  // whose level-0 intervals exclude the winner's model is caught. Returns
  // human-readable violation strings (empty = consistent). Backtracks this
  // solver to level 0 as a side effect; only call once its race is over.
  std::vector<std::string> crosscheck_model(
      const std::unordered_map<ir::NetId, std::int64_t>& input_model);

  const Stats& stats() const { return stats_; }
  const ClauseDb& clauses() const { return db_; }
  const prop::Engine& engine() const { return engine_; }
  const ir::Circuit& circuit() const { return circuit_; }

 private:
  struct Decision {
    ir::NetId net = ir::kNoNet;
    bool value = false;
  };

  bool apply_assumptions();
  SolveResult solve_impl();
  // Number of per-call assumption levels in the current call (m): trail
  // levels 1..m are assumption levels, real decisions live above.
  std::uint32_t assumption_levels() const {
    return static_cast<std::uint32_t>(call_assumptions_.size());
  }
  // The no-verdict status for a fired stop token: kCancelled for an
  // external request, kTimeout when (only) the deadline expired.
  SolveStatus stopped_status() const;
  // Clause sharing (no-ops without options_.exchange): export the database
  // clauses in [first, db_.size()) / import peers' clauses at a restart
  // boundary (engine at level 0).
  void export_clauses(std::size_t first);
  void import_shared_clauses();
  // Per-conflict progress hook; `final` forces the closing report.
  void progress_tick(bool final);
  // Returns the next decision, or nullopt when every Boolean net is
  // assigned (Decide() == done).
  std::optional<Decision> pick_decision();
  bool pick_phase(ir::NetId net);
  // Handles a recorded conflict: learn + backjump (or chronological flip).
  // Returns false when the instance is UNSAT.
  bool handle_conflict();
  void backtrack_to(std::uint32_t level);
  void on_clause_learned(const HybridClause& clause);
  SolveResult finish_sat(const ArithCheckResult& arith);

  const ir::Circuit& circuit_;
  HdpllOptions options_;
  prop::Engine engine_;
  ConflictAnalyzer analyzer_;
  ClauseDb db_;
  std::size_t clause_cursor_ = 0;
  ActivityHeap heap_;
  std::unique_ptr<Justifier> justifier_;
  fme::Solver fme_;
  // The effective stop token: options_.stop merged with timeout_seconds
  // when solve() starts. Installed into the engine and FME at
  // construction so sub-components poll the same token.
  StopToken stop_;
  Rng rng_;
  std::vector<std::pair<ir::NetId, Interval>> assumptions_;
  // The current call's retractable assumptions (level i+1 holds entry i).
  std::vector<std::pair<ir::NetId, Interval>> call_assumptions_;
  std::vector<bool> phase_;
  // Per-level bookkeeping: the decision taken at each level and whether
  // its complement was already explored (chronological mode), or — for
  // per-call assumption levels — the asserted interval, so FME decision
  // cuts can negate the assumption into the learned clause. A dummy
  // assumption level (already-entailed assumption) has has_event = false
  // and contributes nothing to a cut.
  struct LevelInfo {
    ir::NetId net = ir::kNoNet;
    bool value = false;
    bool flipped = false;
    bool is_assumption = false;
    bool has_event = false;
    Interval interval{};
  };
  std::vector<LevelInfo> decision_stack_;
  // Set by a level-0 refutation: the instance itself is UNSAT, not merely
  // the current assumption set.
  bool root_unsat_ = false;
  // False while the previous call exited on a fired stop token: the
  // engine's propagation queue was discarded mid-flight, so the next call
  // re-seeds it with every node before trusting bounds consistency.
  bool clean_exit_ = true;
  // Predicate learning (§3) runs once, on the first solve() call — its
  // relations are consequences of the formula alone and persist. The
  // report is replayed into every later call's result.
  bool predicates_learned_ = false;
  PredicateLearningReport learning_report_;
  // One certificate stream per solver: set once a proof has been emitted
  // (or once a call passed retractable assumptions) — later calls would
  // cite clauses the certificate cannot re-derive, so they are not logged.
  bool proof_disarmed_ = false;
  std::unique_ptr<WordProofLogger> proof_log_;  // null unless options_.proof
  double activity_bump_ = 1.0;
  std::size_t reduction_budget_ = 0;
  std::int64_t selfcheck_countdown_ = 0;
  std::int64_t conflicts_until_restart_ = 0;
  std::int64_t restart_count_ = 0;
  Stats stats_;
  // Hot-path counters and histograms, resolved once against stats_ (which
  // must be declared above them — initialization order) so the search loop
  // never pays a map lookup per event. Cold counters (restarts, reductions,
  // self-checks) still go through stats_.add().
  std::int64_t& n_decisions_;
  std::int64_t& n_conflicts_;
  std::int64_t& n_learned_clauses_;
  std::int64_t& n_learned_literals_;
  std::int64_t& n_minimized_literals_;
  std::int64_t& n_structural_decisions_;
  std::int64_t& n_justify_scanned_;
  std::int64_t& n_arith_checks_;
  std::int64_t& n_arith_conflicts_;
  std::int64_t& n_clauses_exported_;
  std::int64_t& n_clauses_imported_;
  Histogram& h_learned_len_;
  Histogram& h_backjump_;
  Histogram& h_resolutions_;
  Histogram& h_interval_width_;
  trace::Tracer* tracer_;              // never null after construction
  trace::ProgressReporter* progress_;  // may be null
};

}  // namespace rtlsat::core

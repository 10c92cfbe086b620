// A complete CDCL Boolean SAT solver.
//
// This is the engine behind the bit-blasting baseline — the "Boolean SAT
// solver on the RTL's Boolean translation" that the paper's introduction
// identifies as the popular-but-poorly-scaling approach — and the oracle
// the property tests cross-check HDPLL against. Standard modern feature
// set: two-watched-literal propagation, first-UIP conflict learning with
// recursive clause minimization, EVSIDS variable activities with phase
// saving, Luby restarts, and activity-driven learnt-clause deletion.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/assert.h"
#include "util/stats.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace rtlsat::trace {
class Tracer;
class ProgressReporter;
struct ProgressSnapshot;
}  // namespace rtlsat::trace

namespace rtlsat::proof {
class DratWriter;
}  // namespace rtlsat::proof

namespace rtlsat::sat {

using Var = std::uint32_t;

// Literal: variable with polarity, encoded as 2·var + (negated ? 1 : 0).
class Lit {
 public:
  Lit() = default;
  Lit(Var var, bool positive) : code_(2 * var + (positive ? 0 : 1)) {}

  static Lit from_code(std::uint32_t code) {
    Lit l;
    l.code_ = code;
    return l;
  }

  Var var() const { return code_ >> 1; }
  bool positive() const { return (code_ & 1) == 0; }
  Lit operator~() const { return from_code(code_ ^ 1); }
  std::uint32_t code() const { return code_; }

  friend bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
  friend bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }

 private:
  std::uint32_t code_ = 0;
};

enum class Value : std::uint8_t { kFalse = 0, kTrue = 1, kUnassigned = 2 };

// kTimeout: the solver's own deadline expired; kCancelled: an external
// StopToken fired (portfolio loser). Neither carries a verdict.
enum class Result { kSat, kUnsat, kTimeout, kCancelled };

struct SolverOptions {
  double var_decay = 0.95;
  double clause_decay = 0.999;
  int restart_base = 100;       // Luby unit, in conflicts
  double learnt_grow = 1.1;     // learnt-DB cap growth per reduction
  double timeout_seconds = 0;   // 0 = none
  // Cooperative cancellation: merged with timeout_seconds into one token
  // when solve() starts and polled on decision boundaries (the flag every
  // iteration, the clock alongside it — both cheap when unarmed).
  // Default-constructed = never fires.
  StopToken stop;
  // Audit trail/watch/clause-DB invariants (check_invariants) every
  // `self_check_interval` conflicts and at every SAT answer; any violation
  // aborts. Defaults on in -DRTLSAT_SELFCHECK=ON builds.
  bool self_check = kSelfCheckBuild;
  int self_check_interval = 256;

  // Observability (src/trace): conflict/learned-clause/restart events and
  // per-conflict progress ticks, mirroring HdpllOptions. Null tracer ⟹
  // trace::global() (disabled unless RTLSAT_TRACE is set); null progress ⟹
  // no reporting. Borrowed pointers; must outlive the solver.
  trace::Tracer* tracer = nullptr;
  trace::ProgressReporter* progress = nullptr;

  // DRAT proof logging (src/proof). Null ⟹ off; the solver tests the
  // pointer once per cold event (clause added, clause learned, DB reduced,
  // refutation concluded) — nothing on the propagation hot path changes.
  // Borrowed; must outlive the solver.
  proof::DratWriter* drat = nullptr;
};

class Solver {
 public:
  explicit Solver(SolverOptions options = {});

  Var new_var();
  std::size_t num_vars() const { return activity_.size(); }

  // Adds a clause (empty ⟹ immediate UNSAT; duplicates/tautologies are
  // simplified). Callable before the first solve() and between solve()
  // calls — every solve() returns with the trail restored to root level,
  // so the clause lands on a clean level-0 state.
  void add_clause(std::vector<Lit> lits);

  Result solve();
  // Incremental interface: solve under the given assumptions. Assumptions
  // are per-call pseudo-decisions (one trail level each, strictly below
  // all real decisions); learned clauses, variable activities, and saved
  // phases persist across calls. An UNSAT verdict under assumptions does
  // NOT make the instance permanently UNSAT — only a root-level conflict
  // does — and the failed-assumption core is available afterwards via
  // failed_assumptions().
  Result solve(const std::vector<Lit>& assumptions);

  // After a kUnsat return from solve(assumptions): a subset of the passed
  // assumptions whose conjunction is already refuted by the clause
  // database (an assumption core, not guaranteed minimal). Empty when the
  // instance is UNSAT outright (ok() is false).
  const std::vector<Lit>& failed_assumptions() const { return failed_; }

  // False once a root-level conflict proved the clause database itself
  // UNSAT; assumption-UNSAT answers leave it true.
  bool ok() const { return ok_; }

  // Re-arm the budget between solve() calls: the next call derives its
  // effective token from these (0 seconds = no deadline, default token =
  // never cancelled). This is what lets one solver serve a sequence of
  // differently-budgeted incremental queries.
  void set_budget(double timeout_seconds, StopToken stop = {}) {
    options_.timeout_seconds = timeout_seconds;
    options_.stop = stop;
  }

  // Model access after kSat (reads the snapshot taken at the SAT answer,
  // which survives the trail's restoration to root level).
  bool model_value(Var v) const;

  // Invariant audit (the Boolean half of the solver self-check layer; the
  // hybrid half lives in core/selfcheck.h). Verifies trail/assignment
  // agreement, reason-clause shape, two-watched-literal integrity, and —
  // at a propagation fixpoint — that no clause is all-false or unit
  // without its implication enqueued. Returns human-readable violations;
  // empty means every invariant holds. Callable at any fixpoint between
  // solve() steps or from tests.
  std::vector<std::string> check_invariants() const;

  const Stats& stats() const { return stats_; }

  // Instrumented heap bytes: clause vector + literal arrays (maintained by
  // add_clause/learnt push/reduce_db) — watch lists excluded, same
  // convention as core::ClauseDb::memory_bytes(). Defined below the class
  // (needs the private Clause type complete).
  std::int64_t memory_bytes() const;

 private:
  struct Clause {
    std::vector<Lit> lits;
    double activity = 0;
    bool learnt = false;
    bool deleted = false;
  };
  using ClauseRef = std::uint32_t;
  static constexpr ClauseRef kNoReason = 0xffffffffu;

  Value value(Lit l) const {
    const Value v = assigns_[l.var()];
    if (v == Value::kUnassigned) return v;
    return (v == Value::kTrue) == l.positive() ? Value::kTrue : Value::kFalse;
  }

  Result solve_impl(const std::vector<Lit>& assumptions);
  // Computes failed_ from a falsified assumption `a`: walks the trail
  // backwards from the assumption levels, expanding reason clauses, and
  // collects the assumption pseudo-decisions that imply ~a.
  void analyze_final(Lit a);
  void enqueue(Lit l, ClauseRef reason);
  ClauseRef propagate();  // kNoReason when no conflict
  void analyze(ClauseRef conflict, std::vector<Lit>& learnt, int& bt_level);
  bool lit_redundant(Lit l, std::uint32_t levels_mask);
  void backtrack(int level);
  Lit pick_branch();
  void bump_var(Var v);
  void bump_clause(ClauseRef c);
  void decay_activities();
  void reduce_db();
  void attach(ClauseRef c);
  static std::int64_t luby(std::int64_t i);
  // The counters and heap bytes a progress report carries.
  trace::ProgressSnapshot progress_snapshot() const;

  SolverOptions options_;
  std::vector<Clause> clauses_;
  std::vector<std::vector<ClauseRef>> watches_;  // indexed by lit code
  std::vector<Value> assigns_;
  std::vector<bool> phase_;
  std::vector<int> level_;
  std::vector<ClauseRef> reason_;
  std::vector<Lit> trail_;
  std::vector<std::size_t> trail_lim_;
  std::size_t qhead_ = 0;
  std::vector<double> activity_;
  double var_inc_ = 1.0;
  double clause_inc_ = 1.0;
  // Binary heap over variable activities.
  std::vector<Var> heap_;
  std::vector<int> heap_pos_;
  void heap_insert(Var v);
  void heap_sift_up(int i);
  void heap_sift_down(int i);
  Var heap_pop();
  bool heap_less(Var a, Var b) const { return activity_[a] > activity_[b]; }

  std::vector<bool> seen_;
  // Model snapshot taken at each kSat answer, before the trail is restored
  // to root level; model_value reads this, never the live assignment.
  std::vector<Value> model_;
  // Failed-assumption core of the most recent assumption-UNSAT answer.
  std::vector<Lit> failed_;
  bool ok_ = true;
  std::size_t learnt_count_ = 0;
  std::size_t max_learnts_ = 0;
  Stats stats_;
  proof::DratWriter* drat_ = nullptr;  // alias of options_.drat
  // Hot-path counters and histograms, resolved once against stats_ (which
  // must be declared above them — initialization order). sat.propagations
  // is the hottest counter in the whole solver: one increment per trail
  // literal processed.
  std::int64_t& n_propagations_;
  std::int64_t& n_conflicts_;
  std::int64_t& n_decisions_;
  std::int64_t& n_restarts_;
  Histogram& h_learned_len_;
  Histogram& h_backjump_;
  trace::Tracer* tracer_;              // never null after construction
  trace::ProgressReporter* progress_;  // may be null
  std::int64_t lits_heap_bytes_ = 0;
};

inline std::int64_t Solver::memory_bytes() const {
  return static_cast<std::int64_t>(clauses_.capacity() * sizeof(Clause)) +
         lits_heap_bytes_;
}

}  // namespace rtlsat::sat

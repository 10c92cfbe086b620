// Integer feasibility of a conjunction of linear constraints over bounded
// variables, by Fourier–Motzkin elimination with the Omega-test dark
// shadow and an exact splintering fallback.
//
// This plays the role the Omega library played in HDPLL (paper §2.4): after
// constraint propagation reaches bounds consistency with all Boolean
// variables assigned, the remaining solution box plus the (now linear)
// data-path constraints are handed here to certify a point solution or
// flag a conflict.
//
// Decision logic per connected component:
//   1. presolve: single-variable constraints fold into the bounds; simple
//      bound tightening; empty bound ⟹ UNSAT.
//   2. real-shadow FME: infeasible ⟹ UNSAT (the real relaxation is a
//      superset of the integer solutions). If every elimination pair had a
//      unit coefficient the shadow is exact ⟹ SAT with model.
//   3. dark-shadow FME: feasible ⟹ SAT (dark shadow is a subset of the
//      integer-solvable region); model by back-substitution.
//   4. otherwise splinter: branch on a variable's interval and recurse —
//      exact and terminating because all domains are finite.
//
// The same run can justify an UNSAT answer. Handed a Certificate, the
// solver records where each row it derives comes from: a tightened bound
// or a substituted point is a combination of the row with bound rows
// (then a division step), a real-shadow pair is a combination, and each
// splinter is a case split. On UNSAT it writes out the steps the final
// contradictions used, for the independent checker (docs/proofs.md).
#pragma once

#include <cstdint>
#include <vector>

#include "fme/linear.h"
#include "util/stats.h"
#include "util/stop_token.h"

namespace rtlsat::trace {
class Tracer;
}  // namespace rtlsat::trace

namespace rtlsat::fme {

// kUnknown is only ever returned when a stop token fired mid-solve: the
// system was neither certified SAT nor refuted. Callers must treat it as
// "abandon this check", never as a verdict.
enum class Result { kSat, kUnsat, kUnknown };

struct SolveOptions {
  // Observability: each solve() call is recorded as a kFmeSolve event.
  // Null ⟹ trace::global() (a no-op unless RTLSAT_TRACE is set).
  trace::Tracer* tracer = nullptr;
  // Cooperative cancellation / deadline, polled at every splinter-recursion
  // entry so FME-heavy end-games respect the solver timeout and portfolio
  // cancellation. Null = never stop. Borrowed; must outlive the solver.
  const StopToken* stop = nullptr;
};

class Solver {
 public:
  explicit Solver(SolveOptions options = {}) : options_(options) {}

  // Decides the system; on kSat and model != nullptr, *model receives one
  // integer solution (size = system.num_vars(), in-bounds, verified). With
  // refutation != nullptr, a kUnsat answer leaves its refutation there
  // (any other answer leaves it empty); without, nothing is recorded.
  Result solve(const System& system, std::vector<std::int64_t>* model,
               Certificate* refutation = nullptr);

  const Stats& stats() const { return stats_; }

 private:
  SolveOptions options_;
  Stats stats_;
};

}  // namespace rtlsat::fme

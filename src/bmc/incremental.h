// Incremental bounded model checking: one growing unrolling, one
// persistent solver, cross-frame clause reuse.
//
// The one-shot unroller (bmc/unroll.h) rebuilds the whole combinational
// expansion and a fresh solver for every bound, throwing away everything
// the previous bound learned. IncrementalBmc instead keeps a single
// circuit that grows frame-by-frame (the circuit is append-only, so every
// net of the bound-k expansion keeps its identity inside the bound-k+1
// expansion) and a single HdpllSolver layered over it. Each bound is asked
// as a per-call assumption "goal(k) = 1" (core/hdpll.h's retractable
// solve(assumptions) interface), so:
//
//   - learned hybrid clauses, predicate relations, decision activities,
//     saved phases, and level-0 interval facts all carry from bound k to
//     bound k+1 — the deep-frame queries start where the shallow ones
//     left off;
//   - nothing ties the solver to one bound: an UNSAT answer condemns only
//     that bound's goal assumption, and the next frame extends the same
//     search.
//
// Frame f of this growing circuit is node-for-node the frame f that
// unroll(seq, property, k) would emit for any k ≥ f (both call the shared
// detail::copy_frame with identical state chaining), so verdicts are
// interchangeable with the one-shot path — the fuzz oracle
// (tests/fuzz/fuzz_test.cpp) holds the two paths against each other.
//
// Word-certificate logging is the one feature that does not carry over:
// a certificate must be self-contained per frame, while this solver's
// later frames derive from clauses learned in earlier ones. The sweep
// driver therefore falls back to fresh-per-frame solving when
// certification is requested (bmc/sweep.h).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/hdpll.h"
#include "ir/circuit.h"
#include "ir/seq.h"

namespace rtlsat::bmc {

class IncrementalBmc {
 public:
  // `seq` is borrowed and must outlive the unroller. `cumulative` asks
  // each bound as "violation in ANY frame ≤ k" (unroll_any's goal shape)
  // instead of "violation at exactly k". `presolve` computes the
  // sequential reach invariants (presolve/analyze.h) once up front and
  // installs each non-trivial register invariant as a persistent solver
  // assumption on every frame's state net — sound because a frame-f state
  // net evaluates to a reachable state under every input assignment.
  IncrementalBmc(const ir::SeqCircuit& seq, std::string property,
                 core::HdpllOptions solver_options = {},
                 bool cumulative = false, bool presolve = false);

  // Extends the unrolling to `bound` time-frames (no-op when already
  // there) and returns the goal net whose assertion asks "property
  // violated at (exactly | within) bound". Does not touch the solver.
  ir::NetId ensure_bound(int bound);

  // ensure_bound + adopt the growth into the solver + solve under the
  // activation assumption {goal(bound) = 1}. Bounds may be queried in any
  // order and re-queried; learned state persists across calls.
  core::SolveResult solve_bound(int bound);

  // Canonical instance name for one bound, identical to the one-shot
  // unroller's ("<comb>_<property>(<bound>)").
  std::string name(int bound) const;

  // Deepest frame built so far (0 = reset state only).
  int frames_built() const {
    return static_cast<int>(frame_map_.size()) - 1;
  }

  // Frame-f image of a sequential net: frame_map()[f][seq_net], as in
  // BmcInstance::frame_map. The underlying growing circuit — needed to
  // replay a SAT witness independently of the solver.
  const std::vector<std::vector<ir::NetId>>& frame_map() const {
    return frame_map_;
  }
  const ir::Circuit& circuit() const { return circuit_; }

  // The persistent solver, exposed for budgets (set_budget between
  // bounds) and statistics.
  core::HdpllSolver& solver() { return *solver_; }
  const core::HdpllSolver& solver() const { return *solver_; }

  // Reach-invariant assumptions installed so far (presolve mode only).
  std::int64_t invariants_assumed() const { return invariants_assumed_; }

 private:
  void build_frame();  // appends one time-frame to the circuit

  const ir::SeqCircuit& seq_;
  const std::string property_;
  const bool cumulative_;
  // Where kUnroll events go: the solver's tracer, else trace::global().
  trace::Tracer* const tracer_;
  ir::NetId prop_net_ = ir::kNoNet;
  ir::Circuit circuit_;
  // (q net → value net) feeding the next frame to be built.
  std::vector<std::pair<ir::NetId, ir::NetId>> state_;
  std::vector<std::vector<ir::NetId>> frame_map_;
  // violation_[f] = ¬P evaluated in frame f.
  std::vector<ir::NetId> violation_;
  // Per-bound goal nets, built once (a cumulative goal is an OR node).
  std::map<int, ir::NetId> goal_;
  std::unique_ptr<core::HdpllSolver> solver_;
  // Presolve mode: per-register reach invariants (empty = off), the next
  // frame whose state nets still need their invariant assumptions, and how
  // many assume() calls were installed.
  std::vector<Interval> invariants_;
  std::size_t invariant_frames_done_ = 0;
  std::int64_t invariants_assumed_ = 0;
};

}  // namespace rtlsat::bmc

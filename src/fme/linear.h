// Linear integer constraints over bounded variables — the input language of
// the Fourier–Motzkin end-game solver (paper §2.4: "the solution box P is
// checked for a point solution using an integer-linear solver that performs
// Fourier-Motzkin elimination") — and the refutations it emits, kept here
// so the proof checker reads them without including the solver's header.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "interval/interval.h"

namespace rtlsat::fme {

using Var = std::uint32_t;
using Coeff = std::int64_t;
// Constraint bounds live in 128 bits: extraction at width ≤ 60 emits
// coefficients up to 2^60, so substituting a point variable (or combining
// two constraints during elimination) produces bounds past int64 — doing
// that arithmetic in Coeff silently wrapped and once flipped a satisfiable
// shl-by-59 instance to UNSAT (tests/regress/shl-saturation.rtl).
using Bound = __int128;

struct Term {
  Var var = 0;
  Coeff coeff = 0;
};

// Reference into a refutation's axiom/step space.
struct ProofRef {
  enum class Kind : std::uint8_t {
    kConstraint,  // system.constraints()[index]
    kUpper,       // x_index ≤ hi(index)
    kLower,       // −x_index ≤ −lo(index)
    kStep,        // result of an earlier proof step / split hypothesis
  };
  Kind kind = Kind::kConstraint;
  std::uint32_t index = 0;
};

// One step of a refutation. Steps are listed flat, in derivation order.
// kComb and kDiv derive a new constraint and get the next sequential step
// id. kSplit opens a case split on an integer variable: the left branch
// (var ≤ at) starts immediately and its hypothesis constraint takes the
// next step id; kCase closes the left branch (which must have reached a
// contradiction), discards its derivations, and opens the right branch
// (var ≥ at+1) whose hypothesis again takes the next id; kQed closes the
// right branch and discharges the split — both cases contradicted means
// the enclosing scope is contradicted (x ≤ m ∨ x ≥ m+1 is exhaustive over
// the integers).
struct CertStep {
  enum class Kind : std::uint8_t { kComb, kDiv, kSplit, kCase, kQed };
  Kind kind = Kind::kComb;
  // kComb: Σ coeff·ref with every coeff > 0; result is a new constraint.
  std::vector<std::pair<ProofRef, __int128>> combo;
  // kDiv: divide `div_of` by `divisor` (> 0, must divide every
  // coefficient exactly), rounding the bound down — sound for integers.
  ProofRef div_of;
  __int128 divisor = 1;
  // kSplit: variable and split point (left: var ≤ at, right: var ≥ at+1).
  Var split_var = 0;
  __int128 split_at = 0;
};

// A refutation of a System: its steps reference the system's constraints
// and variable bounds, and an independent checker replays them in exact
// 128-bit arithmetic (docs/proofs.md). fme::Solver fills one in from the
// run that answered UNSAT.
struct Certificate {
  std::vector<CertStep> steps;
};

// Σ terms ≤ bound. Terms are kept sorted by var with nonzero coefficients
// and at most one term per var (normalize() enforces this).
struct LinearConstraint {
  LinearConstraint() = default;
  LinearConstraint(std::vector<Term> t, Bound b)
      : terms(std::move(t)), bound(b) {}

  std::vector<Term> terms;
  // Where the row comes from while fme::Solver records a refutation;
  // unused otherwise. It sits in the alignment padding before `bound`, so
  // rows are no bigger for carrying it.
  ProofRef ref;
  Bound bound = 0;

  void normalize();
  bool is_ground() const { return terms.empty(); }
  // For a ground constraint: satisfied iff 0 ≤ bound.
  bool ground_holds() const { return bound >= 0; }
  Coeff coeff_of(Var v) const;
  std::string to_string() const;
};

// Evaluate Σ terms under an assignment; true when the constraint holds.
bool satisfied(const LinearConstraint& c,
               const std::vector<std::int64_t>& assignment);

// A conjunction of linear constraints over variables with interval bounds.
class System {
 public:
  Var add_var(Interval bounds);
  std::size_t num_vars() const { return bounds_.size(); }
  const Interval& bounds(Var v) const { return bounds_[v]; }
  void restrict_bounds(Var v, const Interval& b) {
    bounds_[v] = bounds_[v].intersect(b);
  }

  // Σ a_i·x_i ≤ c.
  void add_le(std::vector<Term> terms, Coeff c);
  // Σ a_i·x_i = c (expands to two inequalities at solve time).
  void add_eq(std::vector<Term> terms, Coeff c);
  // Convenience forms used by the arithmetic extraction.
  void add_le_1(Var x, Coeff a, Coeff c) { add_le({{x, a}}, c); }
  void add_eq_2(Var x, Coeff a, Var y, Coeff b, Coeff c) {
    add_eq({{x, a}, {y, b}}, c);
  }

  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }

  std::string to_string() const;

 private:
  std::vector<Interval> bounds_;
  std::vector<LinearConstraint> constraints_;
};

}  // namespace rtlsat::fme

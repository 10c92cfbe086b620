#include "fme/fme.h"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <utility>

#include "trace/trace.h"
#include "util/assert.h"

namespace rtlsat::fme {

namespace {

using I128 = __int128;
constexpr Coeff kCoeffMax = std::numeric_limits<Coeff>::max();
constexpr Coeff kCoeffMin = std::numeric_limits<Coeff>::min();

bool fits64(I128 v) {
  return v >= static_cast<I128>(kCoeffMin) && v <= static_cast<I128>(kCoeffMax);
}

// Elimination gives up (and the component splinters) once the working set
// outgrows this: it guards the quadratic pair blowup.
constexpr std::size_t kMaxConstraints = 20000;
// Splintering enumerates a domain of at most this many values and bisects
// larger ones.
constexpr std::uint64_t kEnumerateLimit = 16;
// Every splinter level narrows a finite domain, so recursion is finite;
// the cap turns a runaway into an internal error, not a stack overflow.
constexpr int kMaxSplinterDepth = 256;

// Ceiling on combined-constraint bounds (see combine()): large enough for
// any single extraction step at kMaxWidth (≤ ~2^123), small enough that
// later 128-bit bound arithmetic cannot overflow.
constexpr I128 kBoundCap = I128{1} << 100;

I128 div_floor(I128 a, I128 b) {
  RTLSAT_ASSERT(b > 0);
  I128 q = a / b;
  if (a % b != 0 && a < 0) --q;
  return q;
}
I128 div_ceil(I128 a, I128 b) {
  RTLSAT_ASSERT(b > 0);
  I128 q = a / b;
  if (a % b != 0 && a > 0) ++q;
  return q;
}

// Tightening a variable to "v ≤ q" / "v ≥ q" where q came out of a 128-bit
// division: a quotient past int64 can never bind an int64-bounded domain
// from that side, and one past the opposite rail empties it.
Interval clamp_at_most(const Interval& b, I128 q) {
  if (q >= static_cast<I128>(kCoeffMax)) return b;
  if (q < static_cast<I128>(kCoeffMin)) return Interval::empty();
  return b.at_most(static_cast<Coeff>(q));
}
Interval clamp_at_least(const Interval& b, I128 q) {
  if (q <= static_cast<I128>(kCoeffMin)) return b;
  if (q > static_cast<I128>(kCoeffMax)) return Interval::empty();
  return b.at_least(static_cast<Coeff>(q));
}

// The rows that justify a variable's current bounds in a refutation:
// lower proves −x ≤ −lo, upper proves x ≤ hi (or something stronger).
struct BoundRefs {
  ProofRef lower;
  ProofRef upper;
};

// A self-contained subproblem: interval bounds plus constraints, with
// variable ids from the original System. bound_refs parallels bounds while
// a refutation is recorded and stays empty otherwise.
struct Problem {
  std::vector<Interval> bounds;
  std::vector<LinearConstraint> constraints;
  std::vector<BoundRefs> bound_refs;
};

// The bound row that cancels t's term in a combination, with its
// multiplier: the lower bound for a positive coefficient, the upper bound
// for a negative one.
std::pair<ProofRef, I128> cancel_term(const Term& t, const BoundRefs& refs) {
  if (t.coeff > 0) return {refs.lower, I128{t.coeff}};
  return {refs.upper, -I128{t.coeff}};
}

// Writes the refutation of the solve in progress. Steps are appended as
// rows are derived; a branch that turns out satisfiable is rewound, and
// finish() drops every derivation that no contradiction ended up using.
class Recorder {
 public:
  struct Mark {
    std::size_t steps = 0;
    std::uint32_t next_id = 0;
    std::size_t goals = 0;
  };

  explicit Recorder(Certificate& out) : steps_(out.steps) { steps_.clear(); }

  static ProofRef upper(Var v) { return {ProofRef::Kind::kUpper, v}; }
  static ProofRef lower(Var v) { return {ProofRef::Kind::kLower, v}; }

  ProofRef comb(std::vector<std::pair<ProofRef, I128>> combo) {
    CertStep step;
    step.combo = std::move(combo);
    return push(std::move(step));
  }

  // Opens a case split; returns the left hypothesis var ≤ at.
  ProofRef split(Var var, I128 at) {
    CertStep step;
    step.kind = CertStep::Kind::kSplit;
    step.split_var = var;
    step.split_at = at;
    return push(std::move(step));
  }

  // Closes the refuted left case; returns the right hypothesis var ≥ at+1.
  ProofRef next_case() {
    CertStep step;
    step.kind = CertStep::Kind::kCase;
    return push(std::move(step));
  }

  // Closes the refuted right case, which refutes the enclosing scope.
  void qed() {
    CertStep step;
    step.kind = CertStep::Kind::kQed;
    steps_.push_back(std::move(step));  // derives nothing: takes no id
  }

  // c·x ≤ room with the other terms of `row` cancelled by their bound rows,
  // divided by |c| so it reads ±x ≤ ⌊room/|c|⌋: the row that justifies a
  // bound presolve tightened from `row`.
  ProofRef tighten(const LinearConstraint& row, const Term& t,
                   const std::vector<BoundRefs>& bound_refs) {
    std::vector<std::pair<ProofRef, I128>> combo{{row.ref, 1}};
    for (const Term& u : row.terms) {
      if (u.var != t.var) combo.push_back(cancel_term(u, bound_refs[u.var]));
    }
    const I128 divisor = t.coeff > 0 ? I128{t.coeff} : -I128{t.coeff};
    if (combo.size() == 1 && divisor == 1) return row.ref;  // already ±x ≤ k
    const ProofRef sum = comb(std::move(combo));
    if (divisor == 1) return sum;
    CertStep step;
    step.kind = CertStep::Kind::kDiv;
    step.div_of = sum;
    step.divisor = divisor;
    return push(std::move(step));
  }

  // `row` has no terms and a negative bound: it closes the current scope.
  // A row derived in this scope closed it when it was derived; a ground
  // system row is restated as a step, which the checker requires.
  void contradiction(ProofRef row) {
    if (row.kind != ProofRef::Kind::kStep) row = comb({{row, 1}});
    goals_.push_back(row.index);
  }

  Mark mark() const { return {steps_.size(), next_id_, goals_.size()}; }
  void rewind(const Mark& m) {
    steps_.resize(m.steps);
    next_id_ = m.next_id;
    goals_.resize(m.goals);
  }

  // Keeps the case structure plus every derivation a contradiction
  // depends on, and renumbers the surviving steps.
  void finish() {
    std::vector<std::size_t> pos_of_id;  // qed takes no id
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      if (steps_[i].kind != CertStep::Kind::kQed) pos_of_id.push_back(i);
    }
    std::vector<bool> live(steps_.size(), false);
    for (const std::uint32_t id : goals_) live[pos_of_id[id]] = true;
    const auto use = [&](const ProofRef& ref) {
      if (ref.kind == ProofRef::Kind::kStep) live[pos_of_id[ref.index]] = true;
    };
    for (std::size_t i = steps_.size(); i-- > 0;) {
      const CertStep& step = steps_[i];
      if (step.kind != CertStep::Kind::kComb &&
          step.kind != CertStep::Kind::kDiv) {
        live[i] = true;  // case structure
      }
      if (!live[i]) continue;
      for (const auto& [ref, lambda] : step.combo) use(ref);
      use(step.div_of);
    }
    std::vector<std::uint32_t> new_id(pos_of_id.size());
    const auto rename = [&](ProofRef& ref) {
      if (ref.kind == ProofRef::Kind::kStep) ref.index = new_id[ref.index];
    };
    std::uint32_t id = 0;
    std::uint32_t next = 0;
    std::size_t out = 0;
    for (std::size_t i = 0; i < steps_.size(); ++i) {
      CertStep& step = steps_[i];
      const bool has_id = step.kind != CertStep::Kind::kQed;
      if (live[i]) {
        for (auto& [ref, lambda] : step.combo) rename(ref);
        rename(step.div_of);
        if (has_id) new_id[id] = next++;
        if (out != i) steps_[out] = std::move(step);
        ++out;
      }
      if (has_id) ++id;
    }
    steps_.resize(out);
  }

 private:
  ProofRef push(CertStep step) {
    steps_.push_back(std::move(step));
    return {ProofRef::Kind::kStep, next_id_++};
  }

  std::vector<CertStep>& steps_;
  std::uint32_t next_id_ = 0;
  std::vector<std::uint32_t> goals_;  // ids of the contradiction steps
};

// One variable elimination record, kept for back-substitution: the
// constraints that mentioned the variable, as they stood when eliminated.
struct Elimination {
  Var var = 0;
  std::vector<LinearConstraint> uppers;  // positive coefficient on var
  std::vector<LinearConstraint> lowers;  // negative coefficient on var
};

enum class ShadowResult { kFeasible, kInfeasible, kBlowup };

// Runs one shadow over a component's rows (none of them ground). A real
// shadow given a recorder records each combination it derives, so an
// infeasible run leaves its refutation behind; the dark shadow only ever
// proves SAT and records nothing.
class Eliminator {
 public:
  Eliminator(const Problem& problem, bool dark, Recorder* rec)
      : problem_(problem), dark_(dark), rec_(rec) {}

  ShadowResult run() {
    // Bounds become ordinary constraints so elimination sees them.
    work_ = problem_.constraints;
    std::vector<bool> used(problem_.bounds.size(), false);
    for (const auto& c : work_) {
      for (const Term& t : c.terms) used[t.var] = true;
    }
    for (Var v = 0; v < problem_.bounds.size(); ++v) {
      if (!used[v]) continue;  // unconstrained: any in-bounds value works
      const Interval& b = problem_.bounds[v];
      work_.push_back({{{v, 1}}, b.hi()});
      if (rec_ != nullptr) work_.back().ref = problem_.bound_refs[v].upper;
      work_.push_back({{{v, -1}}, -b.lo()});
      if (rec_ != nullptr) work_.back().ref = problem_.bound_refs[v].lower;
      remaining_.push_back(v);
    }

    while (!remaining_.empty()) {
      const Var v = pick_variable();
      if (!eliminate(v)) return ShadowResult::kInfeasible;
      if (work_.size() > kMaxConstraints) return ShadowResult::kBlowup;
    }
    return ShadowResult::kFeasible;
  }

  bool all_exact() const { return all_exact_; }

  // Assigns the eliminated variables in reverse order; unassigned entries in
  // `model` must be pre-set for variables outside this component.
  bool extract_model(std::vector<std::int64_t>& model) const {
    std::vector<bool> assigned(problem_.bounds.size(), false);
    for (auto it = steps_.rbegin(); it != steps_.rend(); ++it) {
      I128 lo = problem_.bounds[it->var].lo();
      I128 hi = problem_.bounds[it->var].hi();
      for (const auto& c : it->uppers) {  // a·v + rest ≤ bound, a > 0
        const Coeff a = c.coeff_of(it->var);
        I128 rest = 0;
        for (const Term& t : c.terms) {
          if (t.var != it->var) rest += static_cast<I128>(t.coeff) * model[t.var];
        }
        hi = std::min(hi, div_floor(c.bound - rest, a));
      }
      for (const auto& c : it->lowers) {  // −b·v + rest ≤ bound, b > 0
        const Coeff b = -c.coeff_of(it->var);
        I128 rest = 0;
        for (const Term& t : c.terms) {
          if (t.var != it->var) rest += static_cast<I128>(t.coeff) * model[t.var];
        }
        lo = std::max(lo, div_ceil(rest - c.bound, b));
      }
      if (lo > hi) return false;  // real shadow was hollow here
      model[it->var] = static_cast<Coeff>(lo);  // in [bounds.lo, hi] ⊆ int64
      assigned[it->var] = true;
    }
    return true;
  }

 private:
  Var pick_variable() const {
    Var best = remaining_.front();
    std::uint64_t best_cost = std::numeric_limits<std::uint64_t>::max();
    for (Var v : remaining_) {
      std::uint64_t pos = 0, neg = 0;
      for (const auto& c : work_) {
        const Coeff a = c.coeff_of(v);
        if (a > 0) ++pos;
        if (a < 0) ++neg;
      }
      const std::uint64_t cost = pos * neg;
      if (cost < best_cost) {
        best_cost = cost;
        best = v;
      }
    }
    return best;
  }

  bool eliminate(Var v) {
    Elimination step;
    step.var = v;
    std::vector<LinearConstraint> rest;
    for (auto& c : work_) {
      const Coeff a = c.coeff_of(v);
      if (a > 0) {
        step.uppers.push_back(std::move(c));
      } else if (a < 0) {
        step.lowers.push_back(std::move(c));
      } else {
        rest.push_back(std::move(c));
      }
    }
    work_ = std::move(rest);

    for (const auto& up : step.uppers) {
      const Coeff a = up.coeff_of(v);
      for (const auto& low : step.lowers) {
        const Coeff b = -low.coeff_of(v);
        if (a != 1 && b != 1) all_exact_ = false;
        LinearConstraint combined;
        // On overflow run() reports kInfeasible with overflowed() set,
        // which the caller takes as "undecided", not as UNSAT.
        if (!combine(up, low, v, a, b, combined)) return false;
        combined.normalize();
        if (combined.is_ground() && combined.ground_holds()) continue;
        if (rec_ != nullptr)
          combined.ref = rec_->comb({{up.ref, b}, {low.ref, a}});
        if (combined.is_ground()) {
          if (rec_ != nullptr) rec_->contradiction(combined.ref);
          return false;
        }
        work_.push_back(std::move(combined));
      }
    }
    std::erase(remaining_, v);
    steps_.push_back(std::move(step));
    return true;
  }

  // combined = b·up + a·low with the v terms cancelling; dark shadow
  // subtracts (a−1)(b−1) from the slack. Returns false on coefficient
  // overflow, which the caller maps to a blowup/splinter.
  bool combine(const LinearConstraint& up, const LinearConstraint& low, Var v,
               Coeff a, Coeff b, LinearConstraint& combined) {
    std::map<Var, I128> sum;
    for (const Term& t : up.terms) {
      if (t.var != v) sum[t.var] += static_cast<I128>(b) * t.coeff;
    }
    for (const Term& t : low.terms) {
      if (t.var != v) sum[t.var] += static_cast<I128>(a) * t.coeff;
    }
    // The bound products can overflow even 128 bits once bounds have grown
    // through earlier combinations; any overflow routes to the splinter
    // path. kBoundCap leaves headroom for the point substitutions and
    // presolve arithmetic downstream, which are unchecked.
    I128 bu = 0, al = 0, bound = 0;
    if (__builtin_mul_overflow(static_cast<I128>(b), up.bound, &bu) ||
        __builtin_mul_overflow(static_cast<I128>(a), low.bound, &al) ||
        __builtin_add_overflow(bu, al, &bound)) {
      overflow_ = true;
      return false;
    }
    if (dark_) bound -= static_cast<I128>(a - 1) * (b - 1);
    if (bound < -kBoundCap || bound > kBoundCap) {
      overflow_ = true;
      return false;
    }
    for (const auto& [var, coeff] : sum) {
      if (!fits64(coeff)) {
        overflow_ = true;
        return false;
      }
      if (coeff != 0) combined.terms.push_back({var, static_cast<Coeff>(coeff)});
    }
    combined.bound = bound;
    return true;
  }

 public:
  bool overflowed() const { return overflow_; }

 private:
  const Problem& problem_;
  const bool dark_;
  Recorder* const rec_;
  std::vector<LinearConstraint> work_;
  std::vector<Var> remaining_;
  std::vector<Elimination> steps_;
  bool all_exact_ = true;
  bool overflow_ = false;
};

// ------------------------------------------------------------- presolve

// Narrows t.var to what row `c` leaves it: t.coeff·x ≤ room, where room is
// c's bound less the least the other terms can contribute. With a
// recorder the narrowed side gets the row that proves it. False when the
// domain empties.
bool tighten(Problem& problem, const LinearConstraint& c, const Term& t,
             I128 room, Recorder* rec, bool& changed) {
  Interval& b = problem.bounds[t.var];
  const Interval before = b;
  if (t.coeff > 0) {
    b = clamp_at_most(b, div_floor(room, t.coeff));
  } else {
    b = clamp_at_least(b, div_ceil(-room, -t.coeff));
  }
  if (b == before) return true;
  changed = true;
  if (rec != nullptr) {
    BoundRefs& refs = problem.bound_refs[t.var];
    (t.coeff > 0 ? refs.upper : refs.lower) =
        rec->tighten(c, t, problem.bound_refs);
    if (b.is_empty())
      rec->contradiction(rec->comb({{refs.upper, 1}, {refs.lower, 1}}));
  }
  return !b.is_empty();
}

// Folds single-variable constraints into the bounds and does one-round
// bound tightening for multi-variable constraints. Returns false on an
// empty domain.
bool presolve(Problem& problem, Recorder* rec) {
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 16) {
    changed = false;
    std::vector<LinearConstraint> kept;
    for (auto& c : problem.constraints) {
      if (c.is_ground()) {
        if (c.ground_holds()) continue;
        if (rec != nullptr) rec->contradiction(c.ref);
        return false;
      }
      // Tighten each variable against the extremes of the others; a
      // single-variable row has no others and folds into the bound.
      for (const Term& t : c.terms) {
        I128 rest_min = 0;
        for (const Term& u : c.terms) {
          if (u.var == t.var) continue;
          const Interval& ub = problem.bounds[u.var];
          rest_min += static_cast<I128>(u.coeff) *
                      (u.coeff > 0 ? ub.lo() : ub.hi());
        }
        if (!tighten(problem, c, t, c.bound - rest_min, rec, changed))
          return false;
      }
      if (c.terms.size() > 1) kept.push_back(std::move(c));
    }
    problem.constraints = std::move(kept);
  }
  return true;
}

// Substitutes point-valued variables into the constraints. The products
// here routinely exceed int64 (coefficient 2^60 × point value 2^59), which
// is why the bound is 128-bit. With a recorder, a row that lost terms
// becomes the combination of the old row with their bound rows.
void substitute_points(Problem& problem, Recorder* rec) {
  for (auto& c : problem.constraints) {
    std::vector<Term> kept;
    std::vector<std::pair<ProofRef, I128>> combo;
    for (const Term& t : c.terms) {
      const Interval& b = problem.bounds[t.var];
      if (b.is_point()) {
        c.bound -= static_cast<I128>(t.coeff) * b.lo();
        if (rec != nullptr)
          combo.push_back(cancel_term(t, problem.bound_refs[t.var]));
      } else {
        kept.push_back(t);
      }
    }
    c.terms = std::move(kept);
    if (!combo.empty()) {
      combo.insert(combo.begin(), {c.ref, 1});
      c.ref = rec->comb(std::move(combo));
    }
  }
}

// Union-find for the connected-component decomposition.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void merge(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

class Driver {
 public:
  Driver(const SolveOptions& options, Stats& stats, Recorder* rec)
      : options_(options), stats_(stats), rec_(rec) {}

  Result solve(Problem problem, std::vector<std::int64_t>& model, int depth) {
    if (options_.stop != nullptr && options_.stop->stop_requested()) {
      stats_.add("fme.stopped", 1);
      return Result::kUnknown;
    }
    if (depth > kMaxSplinterDepth) {
      // Each level narrows a finite domain, so this is a solver bug; an
      // answer from here on could not be trusted either way.
      RTLSAT_UNREACHABLE("fme splinter depth exceeded");
    }
    if (!presolve(problem, rec_)) return Result::kUnsat;
    substitute_points(problem, rec_);
    std::erase_if(problem.constraints,
                  [](const LinearConstraint& c) { return c.is_ground() && c.ground_holds(); });
    for (const auto& c : problem.constraints) {
      if (c.is_ground() && !c.ground_holds()) {
        if (rec_ != nullptr) rec_->contradiction(c.ref);
        return Result::kUnsat;
      }
    }

    // Default every variable to its lower bound; constraints below refine.
    for (Var v = 0; v < problem.bounds.size(); ++v) model[v] = problem.bounds[v].lo();
    if (problem.constraints.empty()) return Result::kSat;

    // Connected components share no variables, so they solve independently.
    UnionFind uf(problem.bounds.size());
    for (const auto& c : problem.constraints) {
      for (std::size_t i = 1; i < c.terms.size(); ++i)
        uf.merge(c.terms[0].var, c.terms[i].var);
    }
    std::map<std::size_t, Problem> components;
    for (const auto& c : problem.constraints) {
      auto& comp = components[uf.find(c.terms[0].var)];
      if (comp.bounds.empty()) {
        comp.bounds = problem.bounds;
        comp.bound_refs = problem.bound_refs;
      }
      comp.constraints.push_back(c);
    }
    for (auto& [root, comp] : components) {
      // Solve on a scratch copy and merge back only this component's
      // variables: splinter recursion re-defaults every entry of the model
      // it is handed, which must not clobber earlier components.
      std::vector<std::int64_t> comp_model = model;
      Recorder::Mark mark;
      if (rec_ != nullptr) mark = rec_->mark();
      const Result comp_result = solve_component(comp, comp_model, depth);
      if (comp_result != Result::kSat) return comp_result;
      // A SAT component refutes nothing.
      if (rec_ != nullptr) rec_->rewind(mark);
      for (const auto& c : comp.constraints) {
        for (const Term& t : c.terms) model[t.var] = comp_model[t.var];
      }
    }
    return Result::kSat;
  }

 private:
  Result solve_component(const Problem& problem,
                         std::vector<std::int64_t>& model, int depth) {
    // Real shadow first: its infeasibility is an exact UNSAT answer.
    Recorder::Mark mark;
    if (rec_ != nullptr) mark = rec_->mark();
    Eliminator real(problem, /*dark=*/false, rec_);
    const ShadowResult real_result = real.run();
    stats_.add("fme.real_runs", 1);
    if (real_result == ShadowResult::kInfeasible && !real.overflowed())
      return Result::kUnsat;
    if (rec_ != nullptr) rec_->rewind(mark);  // nothing refuted
    if (real_result == ShadowResult::kFeasible && real.all_exact()) {
      if (real.extract_model(model) && verify(problem, model))
        return Result::kSat;
    }
    if (real_result == ShadowResult::kFeasible || real.overflowed() ||
        real_result == ShadowResult::kBlowup) {
      // Try the dark shadow: feasibility here is an exact SAT answer.
      Eliminator dark(problem, /*dark=*/true, nullptr);
      const ShadowResult dark_result = dark.run();
      stats_.add("fme.dark_runs", 1);
      if (dark_result == ShadowResult::kFeasible &&
          dark.extract_model(model) && verify(problem, model)) {
        return Result::kSat;
      }
    }
    // Undecided: splinter on some variable.
    return splinter(problem, model, depth);
  }

  // Branches on the narrowest variable left in a row (substitution removed
  // the point ones, so every row has one). With a recorder each branch is
  // a case of a split: bisection is one split at the midpoint, and an
  // enumerated domain is a chain of nested splits, x ≤ v against x ≥ v+1
  // for each value but the last.
  Result splinter(const Problem& problem, std::vector<std::int64_t>& model,
                  int depth) {
    stats_.add("fme.splinters", 1);
    Var best = 0;
    std::uint64_t best_count = 0;
    for (const auto& c : problem.constraints) {
      for (const Term& t : c.terms) {
        const std::uint64_t n = problem.bounds[t.var].count();
        if (n >= 2 && (best_count == 0 || n < best_count)) {
          best = t.var;
          best_count = n;
        }
      }
    }
    RTLSAT_ASSERT(best_count != 0);

    const Interval b = problem.bounds[best];
    // A kUnknown from any branch (stop token fired) must surface — claiming
    // UNSAT after an abandoned branch would be unsound.
    if (b.count() <= kEnumerateLimit) {
      ProofRef lower;  // the hypothesis x ≥ v for the next value v
      if (rec_ != nullptr) lower = problem.bound_refs[best].lower;
      for (Coeff v = b.lo(); v <= b.hi(); ++v) {
        Problem sub = problem;
        sub.bounds[best] = Interval::point(v);
        if (rec_ != nullptr) {
          sub.bound_refs[best].lower = lower;
          if (v < b.hi()) sub.bound_refs[best].upper = rec_->split(best, v);
        }
        const Result r = solve(std::move(sub), model, depth + 1);
        if (r != Result::kUnsat) return r;
        if (rec_ != nullptr && v < b.hi()) lower = rec_->next_case();
      }
      if (rec_ != nullptr) {
        for (Coeff v = b.lo(); v < b.hi(); ++v) rec_->qed();
      }
      return Result::kUnsat;
    }
    const Coeff mid = b.lo() + static_cast<Coeff>(b.count() / 2) - 1;
    Problem left = problem;
    left.bounds[best] = Interval(b.lo(), mid);
    if (rec_ != nullptr) left.bound_refs[best].upper = rec_->split(best, mid);
    const Result r = solve(std::move(left), model, depth + 1);
    if (r != Result::kUnsat) return r;
    Problem right = problem;
    right.bounds[best] = Interval(mid + 1, b.hi());
    if (rec_ != nullptr) right.bound_refs[best].lower = rec_->next_case();
    const Result rr = solve(std::move(right), model, depth + 1);
    if (rr == Result::kUnsat && rec_ != nullptr) rec_->qed();
    return rr;
  }

  // Checks the model against this problem's constraints and the bounds of
  // the variables they mention (other variables belong to sibling
  // components and are validated there).
  static bool verify(const Problem& problem,
                     const std::vector<std::int64_t>& model) {
    for (const auto& c : problem.constraints) {
      for (const Term& t : c.terms) {
        if (!problem.bounds[t.var].contains(model[t.var])) return false;
      }
      if (!satisfied(c, model)) return false;
    }
    return true;
  }

  const SolveOptions& options_;
  Stats& stats_;
  Recorder* const rec_;
};

}  // namespace

Result Solver::solve(const System& system, std::vector<std::int64_t>* model,
                     Certificate* refutation) {
  stats_.add("fme.calls", 1);
  std::optional<Recorder> recorder;
  if (refutation != nullptr) recorder.emplace(*refutation);
  Recorder* const rec = recorder ? &*recorder : nullptr;

  Problem problem;
  problem.bounds.reserve(system.num_vars());
  for (Var v = 0; v < system.num_vars(); ++v) {
    const Interval& b = system.bounds(v);
    if (b.is_empty()) {
      if (rec != nullptr) {
        rec->contradiction(
            rec->comb({{Recorder::upper(v), 1}, {Recorder::lower(v), 1}}));
        rec->finish();
      }
      return Result::kUnsat;
    }
    problem.bounds.push_back(b);
  }
  problem.constraints = system.constraints();
  for (auto& c : problem.constraints) c.normalize();
  if (rec != nullptr) {
    problem.bound_refs.reserve(system.num_vars());
    for (Var v = 0; v < system.num_vars(); ++v)
      problem.bound_refs.push_back({Recorder::lower(v), Recorder::upper(v)});
    for (std::uint32_t i = 0; i < problem.constraints.size(); ++i)
      problem.constraints[i].ref = {ProofRef::Kind::kConstraint, i};
  }

  std::vector<std::int64_t> scratch(system.num_vars(), 0);
  Driver driver(options_, stats_, rec);
  const std::size_t num_constraints = problem.constraints.size();
  const Result result = driver.solve(std::move(problem), scratch, 0);
  if (result == Result::kSat && model != nullptr) *model = std::move(scratch);
  if (rec != nullptr) {
    if (result == Result::kUnsat) {
      rec->finish();
    } else {
      refutation->steps.clear();
    }
  }
  trace::Tracer* tracer =
      options_.tracer != nullptr ? options_.tracer : &trace::global();
  tracer->record(trace::EventKind::kFmeSolve, 0,
                 static_cast<std::int64_t>(num_constraints),
                 result == Result::kSat     ? 1
                 : result == Result::kUnsat ? 0
                                            : -1);  // -1 = stopped mid-solve
  return result;
}

}  // namespace rtlsat::fme

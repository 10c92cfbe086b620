// Refutations recorded by fme::Solver: every kUnsat answer given a
// Certificate must come with steps that replay to a contradiction, and
// recording must not change any verdict or model. The replay below mirrors
// the rules of the word checker's FME section (docs/proofs.md) on a bare
// System, so random systems can be checked without a circuit around them.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "fme/fme.h"
#include "util/rng.h"

namespace rtlsat::fme {
namespace {

using I128 = __int128;

struct Row {
  std::map<Var, I128> terms;
  I128 bound = 0;
};

I128 floor_div(I128 a, I128 b) {
  I128 q = a / b;
  if (a % b != 0 && a < 0) --q;
  return q;
}

// Empty string when `cert` refutes `system`, else the first broken rule.
// Stricter than the checker in one way: every combination or division
// must be a contradiction or feed a later step.
std::string replay(const System& system, const Certificate& cert) {
  std::vector<Row> derived;
  std::vector<bool> alive;
  std::vector<bool> needs_use;  // comb/div rows that are no contradiction
  std::vector<bool> used;
  struct Frame {
    std::size_t first = 0;  // id of the left hypothesis
    Var var = 0;
    I128 at = 0;
    bool in_right = false;
  };
  std::vector<Frame> frames;
  std::vector<bool> closed{false};
  const auto push = [&](Row row, bool derivation) {
    const bool contradiction = row.terms.empty() && row.bound < 0;
    if (contradiction) closed.back() = true;
    derived.push_back(std::move(row));
    alive.push_back(true);
    needs_use.push_back(derivation && !contradiction);
    used.push_back(false);
  };
  const auto kill_from = [&](std::size_t first) {
    for (std::size_t i = first; i < alive.size(); ++i) alive[i] = false;
  };
  const auto resolve = [&](const ProofRef& ref, Row* out) {
    *out = Row{};
    switch (ref.kind) {
      case ProofRef::Kind::kConstraint: {
        if (ref.index >= system.constraints().size()) return false;
        const LinearConstraint& c = system.constraints()[ref.index];
        for (const Term& t : c.terms) {
          if ((out->terms[t.var] += t.coeff) == 0) out->terms.erase(t.var);
        }
        out->bound = c.bound;
        return true;
      }
      case ProofRef::Kind::kUpper:
      case ProofRef::Kind::kLower: {
        if (ref.index >= system.num_vars()) return false;
        const bool upper = ref.kind == ProofRef::Kind::kUpper;
        out->terms[ref.index] = upper ? 1 : -1;
        out->bound = upper ? I128{system.bounds(ref.index).hi()}
                           : -I128{system.bounds(ref.index).lo()};
        return true;
      }
      case ProofRef::Kind::kStep:
        if (ref.index >= derived.size() || !alive[ref.index]) return false;
        used[ref.index] = true;
        *out = derived[ref.index];
        return true;
    }
    return false;
  };

  for (std::size_t i = 0; i < cert.steps.size(); ++i) {
    const CertStep& step = cert.steps[i];
    const std::string at = "step " + std::to_string(i) + ": ";
    switch (step.kind) {
      case CertStep::Kind::kComb: {
        if (step.combo.empty()) return at + "empty combination";
        Row sum;
        for (const auto& [ref, lambda] : step.combo) {
          Row part;
          if (lambda <= 0) return at + "nonpositive multiplier";
          if (!resolve(ref, &part)) return at + "bad reference";
          for (const auto& [var, coeff] : part.terms) {
            if ((sum.terms[var] += lambda * coeff) == 0) sum.terms.erase(var);
          }
          sum.bound += lambda * part.bound;
        }
        push(std::move(sum), true);
        break;
      }
      case CertStep::Kind::kDiv: {
        Row part;
        if (step.divisor <= 0) return at + "nonpositive divisor";
        if (!resolve(step.div_of, &part)) return at + "bad reference";
        for (auto& [var, coeff] : part.terms) {
          if (coeff % step.divisor != 0) return at + "inexact division";
          coeff /= step.divisor;
        }
        part.bound = floor_div(part.bound, step.divisor);
        push(std::move(part), true);
        break;
      }
      case CertStep::Kind::kSplit: {
        frames.push_back({derived.size(), step.split_var, step.split_at});
        closed.push_back(false);
        push({{{step.split_var, 1}}, step.split_at}, false);
        break;
      }
      case CertStep::Kind::kCase: {
        if (frames.empty() || frames.back().in_right) return at + "stray case";
        if (!closed.back()) return at + "left case not refuted";
        kill_from(frames.back().first);
        frames.back().in_right = true;
        closed.back() = false;
        push({{{frames.back().var, -1}}, -(frames.back().at + 1)}, false);
        break;
      }
      case CertStep::Kind::kQed: {
        if (frames.empty() || !frames.back().in_right) return at + "stray qed";
        if (!closed.back()) return at + "right case not refuted";
        kill_from(frames.back().first);
        frames.pop_back();
        closed.pop_back();
        closed.back() = true;
        break;
      }
    }
  }
  if (!frames.empty()) return "open case split";
  if (!closed.back()) return "no contradiction";
  for (std::size_t id = 0; id < derived.size(); ++id) {
    if (needs_use[id] && !used[id]) return "step id " + std::to_string(id) + " is unused";
  }
  return "";
}

void expect_refuted(const System& s) {
  Solver solver;
  Certificate cert;
  ASSERT_EQ(solver.solve(s, nullptr, &cert), Result::kUnsat) << s.to_string();
  EXPECT_EQ(replay(s, cert), "") << s.to_string();
}

TEST(Refutation, EmptyDomain) {
  System s;
  s.add_var(Interval(0, 3));
  const Var y = s.add_var(Interval(0, 3));
  s.restrict_bounds(y, Interval(5, 9));
  expect_refuted(s);
}

TEST(Refutation, ViolatedGroundRow) {
  System s;
  s.add_var(Interval(0, 3));
  s.add_le({}, -1);
  expect_refuted(s);
}

TEST(Refutation, PresolveEmptiesADomain) {
  System s;
  const Var x = s.add_var(Interval(0, 10));
  const Var y = s.add_var(Interval(0, 10));
  s.add_le({{x, 3}, {y, 2}}, 40);
  s.add_le({{x, -1}}, -11);  // x ≥ 11
  expect_refuted(s);
}

TEST(Refutation, RealShadowCycle) {
  // x < y < z < x: the real shadow refutes it without a case split.
  System s;
  const Var x = s.add_var(Interval(0, 1000));
  const Var y = s.add_var(Interval(0, 1000));
  const Var z = s.add_var(Interval(0, 1000));
  s.add_le({{x, 1}, {y, -1}}, -1);
  s.add_le({{y, 1}, {z, -1}}, -1);
  s.add_le({{z, 1}, {x, -1}}, -1);
  expect_refuted(s);
}

TEST(Refutation, ParityGapBisects) {
  // 2x − 2y = 1 has real solutions all over the box, so only splintering
  // refutes it: the certificate is a tree of case splits.
  System s;
  const Var x = s.add_var(Interval(0, 255));
  const Var y = s.add_var(Interval(0, 255));
  s.add_eq({{x, 2}, {y, -2}}, 1);
  Solver solver;
  Certificate cert;
  ASSERT_EQ(solver.solve(s, nullptr, &cert), Result::kUnsat);
  EXPECT_EQ(replay(s, cert), "");
  EXPECT_TRUE(std::any_of(cert.steps.begin(), cert.steps.end(),
                          [](const CertStep& step) {
                            return step.kind == CertStep::Kind::kSplit;
                          }));
}

TEST(Refutation, SatAnswerLeavesItEmpty) {
  System s;
  const Var x = s.add_var(Interval(0, 10));
  s.add_le({{x, 2}}, 7);
  Solver solver;
  Certificate cert;
  cert.steps.resize(3);  // stale content from an earlier call is dropped
  ASSERT_EQ(solver.solve(s, nullptr, &cert), Result::kSat);
  EXPECT_TRUE(cert.steps.empty());
}

TEST(Refutation, DropsDerivationsNothingUses) {
  // Presolve tightens y and w, and the {y, w} component is solved (SAT)
  // before the x/z cycle is refuted; none of that is in the refutation.
  System s;
  const Var y = s.add_var(Interval(0, 100));
  const Var w = s.add_var(Interval(5, 100));
  const Var x = s.add_var(Interval(0, 100));
  const Var z = s.add_var(Interval(0, 100));
  s.add_le({{y, 1}, {w, 1}}, 10);
  s.add_le({{y, 3}, {w, -2}}, 7);
  s.add_le({{x, 1}, {z, -1}}, -1);
  s.add_le({{z, 1}, {x, -1}}, -1);
  expect_refuted(s);
}

// Random small systems: recording must not change verdicts or models, and
// every UNSAT answer must replay.
class RefutationRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RefutationRandom, ReplaysAndChangesNothing) {
  Rng rng(GetParam());
  int refuted = 0;
  for (int iter = 0; iter < 60; ++iter) {
    System s;
    const int n = static_cast<int>(rng.range(2, 4));
    for (int v = 0; v < n; ++v) {
      const std::int64_t lo = rng.range(-8, 8);
      s.add_var(Interval(lo, lo + rng.range(0, 40)));
    }
    const int m = static_cast<int>(rng.range(1, 5));
    for (int k = 0; k < m; ++k) {
      std::vector<Term> terms;
      for (Var v = 0; v < static_cast<Var>(n); ++v) {
        const std::int64_t coeff = rng.range(-5, 5);
        if (coeff != 0 && rng.below(4) != 0) terms.push_back({v, coeff});
      }
      if (terms.empty()) continue;
      if (rng.below(3) == 0) {
        s.add_eq(std::move(terms), rng.range(-10, 10));
      } else {
        s.add_le(std::move(terms), rng.range(-10, 20));
      }
    }
    Solver plain;
    Solver recording;
    std::vector<std::int64_t> plain_model;
    std::vector<std::int64_t> recorded_model;
    Certificate cert;
    const Result want = plain.solve(s, &plain_model);
    ASSERT_EQ(recording.solve(s, &recorded_model, &cert), want) << s.to_string();
    EXPECT_EQ(recorded_model, plain_model) << s.to_string();
    if (want == Result::kUnsat) {
      ++refuted;
      EXPECT_EQ(replay(s, cert), "") << s.to_string();
      continue;
    }
    EXPECT_TRUE(cert.steps.empty());
    // Add a cycle on two fresh variables: its component is solved after
    // the satisfiable ones, whose splits and steps must not survive.
    const Var u = s.add_var(Interval(0, 1000));
    const Var w = s.add_var(Interval(0, 1000));
    s.add_le({{u, 1}, {w, -1}}, -1);
    s.add_le({{w, 1}, {u, -1}}, -1);
    expect_refuted(s);
  }
  EXPECT_GT(refuted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefutationRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace rtlsat::fme

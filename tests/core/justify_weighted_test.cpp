// §4.4 value choice: with static-learning weights available, the justifier
// (and the +S+P decision loop) must prefer the branch value satisfying the
// most learned relations.
#include <gtest/gtest.h>

#include "core/hdpll.h"
#include "core/justify.h"

namespace rtlsat::core {
namespace {

using ir::Circuit;
using ir::NetId;

struct Fixture {
  Circuit c{"t"};
  NetId sel = c.add_input("sel", 1);
  NetId t = c.add_input("t", 8);
  NetId e = c.add_input("e", 8);
  NetId m = c.add_mux(sel, t, e);
  // Spare Boolean nets for learned relations — created up front because
  // the circuit must be frozen before engines/clause DBs are built.
  NetId x0 = c.add_input("x0", 1);
  NetId x1 = c.add_input("x1", 1);
  NetId x2 = c.add_input("x2", 1);
};

TEST(JustifyWeighted, FreeMuxChoiceFollowsRelationWeights) {
  Fixture f;
  prop::Engine engine(f.c);
  // Constrain the output so the mux is unjustified with both branches live.
  ASSERT_TRUE(engine.narrow(f.t, Interval(0, 10), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(f.e, Interval(5, 14), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(f.m, Interval(6, 8), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());

  // Without weights: default leans to the then-branch.
  Justifier justifier(engine);
  const auto unweighted = justifier.pick(engine, nullptr);
  ASSERT_TRUE(unweighted.has_value());
  EXPECT_EQ(unweighted->net, f.sel);
  EXPECT_TRUE(unweighted->value);

  // Learned relations favouring sel = 0 flip the choice.
  ClauseDb db(f.c);
  for (const NetId x : {f.x0, f.x1, f.x2}) {
    db.add({{HybridLit::boolean(f.sel, false), HybridLit::boolean(x, true)},
            true,
            HybridClause::Origin::kPredicateLearning});
  }
  const auto weighted = justifier.pick(engine, &db);
  ASSERT_TRUE(weighted.has_value());
  EXPECT_EQ(weighted->net, f.sel);
  EXPECT_FALSE(weighted->value);
}

TEST(JustifyWeighted, DeadBranchOverridesWeights) {
  // A dead branch is never selected regardless of the learned weights.
  Fixture f;
  prop::Engine engine(f.c);
  ASSERT_TRUE(engine.narrow(f.t, Interval(0, 4), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(f.e, Interval(3, 14), prop::ReasonKind::kAssumption));
  // Output over both branches so neither is forced, but then-branch dies
  // after a later narrowing of the output.
  ASSERT_TRUE(engine.narrow(f.m, Interval(3, 10), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  ClauseDb db(f.c);
  db.add({{HybridLit::boolean(f.sel, true), HybridLit::boolean(f.x0, true)},
          true,
          HybridClause::Origin::kPredicateLearning});
  Justifier justifier(engine);
  const auto decision = justifier.pick(engine, &db);
  // Both branches intersect ⟨3,10⟩ here, so weights choose sel = 1; then
  // narrow the output to kill the then-branch and re-pick.
  ASSERT_TRUE(decision.has_value());
  ASSERT_TRUE(engine.narrow(f.m, Interval(5, 10), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  // t ∈ ⟨0,4⟩ no longer intersects ⟨5,10⟩ — propagation forces sel = 0
  // (dead-branch rule), leaving nothing to decide.
  EXPECT_EQ(engine.bool_value(f.sel), 0);
}

TEST(JustifyWeighted, EndToEndPhasePick) {
  // In the solver, +S+P phase choice on a free predicate follows weights.
  Circuit c("t");
  const NetId w1 = c.add_input("w1", 8);
  const NetId w2 = c.add_input("w2", 8);
  const NetId sel = c.add_input("sel", 1);
  const NetId m = c.add_mux(sel, w1, w2);
  const NetId goal = c.add_le(m, c.add_const(200, 8));
  HdpllOptions options;
  options.structural_decisions = true;
  options.predicate_learning = true;
  HdpllSolver solver(c, options);
  solver.assume_bool(goal, true);
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  EXPECT_EQ(c.evaluate(result.input_model)[goal], 1);
}

}  // namespace
}  // namespace rtlsat::core

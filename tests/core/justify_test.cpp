#include "core/justify.h"

#include <gtest/gtest.h>

#include "bmc/unroll.h"
#include "core/deduce.h"
#include "itc99/itc99.h"
#include "util/rng.h"

namespace rtlsat::core {
namespace {

using ir::Circuit;
using ir::NetId;

TEST(Justify, AndGateAtZeroNeedsJustification) {
  // Fig. 3(a): o = i1 ∧ i2 with o = 0 cannot be satisfied by implication.
  Circuit c("t");
  const NetId i1 = c.add_input("i1", 1);
  const NetId i2 = c.add_input("i2", 1);
  const NetId o = c.add_and(i1, i2);
  prop::Engine engine(c);
  ASSERT_TRUE(engine.narrow(o, Interval::point(0), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  Justifier justifier(engine);
  EXPECT_EQ(justifier.frontier_size(engine), 1u);
  const auto decision = justifier.pick(engine, nullptr);
  ASSERT_TRUE(decision.has_value());
  EXPECT_TRUE(decision->net == i1 || decision->net == i2);
  EXPECT_FALSE(decision->value);  // controlling value for AND is 0
}

TEST(Justify, AndGateAtOneIsImplied) {
  Circuit c("t");
  const NetId i1 = c.add_input("i1", 1);
  const NetId i2 = c.add_input("i2", 1);
  const NetId o = c.add_and(i1, i2);
  prop::Engine engine(c);
  ASSERT_TRUE(engine.narrow(o, Interval::point(1), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  Justifier justifier(engine);
  EXPECT_EQ(justifier.frontier_size(engine), 0u);  // inputs already forced
  EXPECT_FALSE(justifier.pick(engine, nullptr).has_value());
}

TEST(Justify, OrGateAtOnePicksHighFanoutInput) {
  Circuit c("t");
  const NetId i1 = c.add_input("i1", 1);
  const NetId i2 = c.add_input("i2", 1);
  const NetId o = c.add_or(i1, i2);
  // Give i2 extra fanout so the §4.2 heuristic prefers it.
  c.add_and(i2, c.add_input("other", 1));
  prop::Engine engine(c);
  ASSERT_TRUE(engine.narrow(o, Interval::point(1), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  Justifier justifier(engine);
  const auto decision = justifier.pick(engine, nullptr);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->net, i2);
  EXPECT_TRUE(decision->value);
}

TEST(Justify, MuxConstrainedOutputIsFrontier) {
  // Fig. 3(b): mux with required output interval and free select.
  Circuit c("t");
  const NetId sel = c.add_input("sel", 1);
  const NetId i1 = c.add_input("i1", 8);
  const NetId i2 = c.add_input("i2", 8);
  const NetId o = c.add_mux(sel, i2, i1);
  prop::Engine engine(c);
  ASSERT_TRUE(engine.narrow(i1, Interval(0, 4), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(i2, Interval(10, 14), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(o, Interval(12, 20), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  // ⟨12,20⟩ ∩ i1 = ∅, so propagation already forces sel = 1: the operator
  // justifies itself by implication (Def. 4.1's "uniquely determined").
  EXPECT_EQ(engine.bool_value(sel), 1);
}

TEST(Justify, MuxFreeChoiceDecidesSelect) {
  Circuit c("t");
  const NetId sel = c.add_input("sel", 1);
  const NetId i1 = c.add_input("i1", 8);
  const NetId i2 = c.add_input("i2", 8);
  const NetId o = c.add_mux(sel, i2, i1);
  prop::Engine engine(c);
  ASSERT_TRUE(engine.narrow(i1, Interval(0, 10), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(i2, Interval(5, 14), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(o, Interval(6, 8), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  Justifier justifier(engine);
  EXPECT_GE(justifier.frontier_size(engine), 1u);
  const auto decision = justifier.pick(engine, nullptr);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->net, sel);
}

TEST(Justify, UnconstrainedMuxNotInFrontier) {
  // Output ⊇ hull(branches): any select works, no urgency (Def. 4.1).
  Circuit c("t");
  const NetId sel = c.add_input("sel", 1);
  const NetId i1 = c.add_input("i1", 8);
  const NetId i2 = c.add_input("i2", 8);
  c.add_mux(sel, i2, i1);
  prop::Engine engine(c);
  ASSERT_TRUE(engine.propagate());
  Justifier justifier(engine);
  EXPECT_EQ(justifier.frontier_size(engine), 0u);
}

TEST(Justify, XorWithAssignedOutput) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId x = c.add_xor(a, b);
  prop::Engine engine(c);
  ASSERT_TRUE(engine.narrow(x, Interval::point(1), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  Justifier justifier(engine);
  const auto decision = justifier.pick(engine, nullptr);
  ASSERT_TRUE(decision.has_value());
  EXPECT_TRUE(decision->net == a || decision->net == b);
}

TEST(Justify, DeepestGateFirst) {
  // Frontier scanning starts at the highest level (closest to the goal).
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId d = c.add_input("d", 1);
  const NetId inner = c.add_or(a, b);
  const NetId outer = c.add_and(inner, d);
  prop::Engine engine(c);
  // outer = 0 with d = 1 ⟹ inner = 0 ⟹ a=b=0 by implication: frontier
  // empty. Instead assert outer = 0 only: the AND is the deepest
  // unjustified gate.
  ASSERT_TRUE(engine.narrow(outer, Interval::point(0), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  Justifier justifier(engine);
  const auto decision = justifier.pick(engine, nullptr);
  ASSERT_TRUE(decision.has_value());
  // Justifying the outer AND decides one of its free inputs.
  EXPECT_TRUE(decision->net == inner || decision->net == d);
}

// The frontier is kept incrementally across narrowings and backtracks; a
// Justifier built fresh for the same domains must pick the same gate. A
// random walk of decisions, conflicts and backjumps on a b13 unrolling
// compares the two at every step (the fresh one reads a copy of the
// engine, so it does not consume the long-lived one's trail low water).
TEST(Justify, IncrementalFrontierMatchesFreshScan) {
  const bmc::BmcInstance instance = bmc::unroll(itc99::build("b13"), "5", 20);
  const Circuit& c = instance.circuit;
  prop::Engine engine(c);
  ASSERT_TRUE(engine.narrow(instance.goal, Interval::point(1),
                            prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  Justifier incremental(engine);
  Rng rng(7);
  int decisions = 0;
  for (int step = 0; step < 400; ++step) {
    const auto got = incremental.pick(engine, nullptr);
    prop::Engine snapshot = engine;
    const auto want = Justifier(snapshot).pick(snapshot, nullptr);
    ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
    if (got) {
      ASSERT_EQ(got->net, want->net) << "step " << step;
      ASSERT_EQ(got->value, want->value) << "step " << step;
    }
    if (!got || rng.below(8) == 0) {
      engine.backtrack_to_level(
          static_cast<std::uint32_t>(rng.below(engine.level() + 1)));
      continue;
    }
    engine.push_level();
    ++decisions;
    // Mostly follow the frontier; sometimes take the other value so the
    // walk also meets conflicts.
    const bool value = rng.below(4) == 0 ? !got->value : got->value;
    if (!engine.narrow(got->net, Interval::point(value ? 1 : 0),
                       prop::ReasonKind::kDecision) ||
        !engine.propagate()) {
      engine.backtrack_to_level(engine.level() - 1);
    }
  }
  EXPECT_GT(decisions, 100);
}

// Growing a circuit in several appends and extending one Justifier must
// leave it where a Justifier built fresh over the grown circuit starts:
// same candidate order, same unjustified marks, same frontier and pick —
// with level-0 narrowings on the trail before and after each append.
TEST(Justify, ExtendMatchesFresh) {
  const ir::SeqCircuit seq = itc99::build("b13");
  const Circuit& comb = seq.comb();
  // Append b13's combinational logic in slices: a growing circuit whose
  // old nets gain readers in later slices.
  Circuit c("grow");
  std::vector<NetId> map(comb.num_nets(), ir::kNoNet);
  std::size_t copied = 0;
  const auto append = [&](std::size_t count) {
    for (; copied < comb.num_nets() && count > 0; ++copied, --count) {
      ir::Node n = comb.node(static_cast<NetId>(copied));
      for (NetId& o : n.operands) o = map[o];
      if (n.op == ir::Op::kInput && n.name.empty())
        n.name = "q" + std::to_string(copied);
      map[copied] = c.add_unchecked(std::move(n));
    }
  };
  const std::size_t slice = comb.num_nets() / 6;
  append(slice);
  prop::Engine engine(c);
  Justifier extended(engine);
  Rng rng(3);
  int nonempty_frontiers = 0;
  while (copied < comb.num_nets()) {
    append(slice);
    engine.sync_circuit();
    extended.extend(engine);
    ASSERT_TRUE(engine.propagate());
    // Level-0 facts: drive a few free gate outputs to the value that needs
    // justification (AND at 0, OR at 1), so the frontier carried across
    // the next append is not empty.
    for (int i = 0; i < 12; ++i) {
      const auto net = static_cast<NetId>(rng.below(c.num_nets()));
      const ir::Op op = c.node(net).op;
      if ((op != ir::Op::kAnd && op != ir::Op::kOr) ||
          engine.bool_value(net) >= 0)
        continue;
      const Interval value = Interval::point(op == ir::Op::kOr ? 1 : 0);
      if (!engine.narrow(net, value, prop::ReasonKind::kAssumption) ||
          !engine.propagate()) {
        engine.rollback_to(0);
        engine.enqueue_all_nodes();
        ASSERT_TRUE(engine.propagate());
      }
    }
    prop::Engine snapshot = engine;
    Justifier fresh(snapshot);
    EXPECT_EQ(extended.candidates(), fresh.candidates());
    EXPECT_EQ(extended.frontier_size(engine), fresh.frontier_size(snapshot));
    if (fresh.frontier_size(snapshot) > 0) ++nonempty_frontiers;
    const auto got = extended.pick(engine, nullptr);
    const auto want = fresh.pick(snapshot, nullptr);
    EXPECT_EQ(extended.marked_unjustified(), fresh.marked_unjustified());
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
      EXPECT_EQ(got->net, want->net);
      EXPECT_EQ(got->value, want->value);
    }
  }
  EXPECT_GE(nonempty_frontiers, 3);
}

TEST(RelationSatisfaction, CountsMatchingLearntClauses) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  ClauseDb db(c);
  db.add({{HybridLit::boolean(a, true), HybridLit::boolean(b, false)},
          true, HybridClause::Origin::kPredicateLearning});
  db.add({{HybridLit::boolean(a, true), HybridLit::boolean(b, true)},
          true, HybridClause::Origin::kPredicateLearning});
  db.add({{HybridLit::boolean(a, false)}, false, HybridClause::Origin::kProblem});
  EXPECT_EQ(relation_satisfaction(db, a, true), 2);
  EXPECT_EQ(relation_satisfaction(db, a, false), 0);  // problem clause skipped
  EXPECT_EQ(relation_satisfaction(db, b, false), 1);
}

}  // namespace
}  // namespace rtlsat::core

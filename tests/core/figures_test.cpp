// Reproductions of the paper's worked examples: the Fig. 2 predicate
// learning run on the b04 fragment and the Fig. 4 structural decision
// trace. These tests assert the *published* outcomes (which clauses are
// learned; which values/intervals the search settles on).
#include <gtest/gtest.h>

#include "core/deduce.h"
#include "core/hdpll.h"
#include "core/predicate_learning.h"

namespace rtlsat::core {
namespace {

using ir::Circuit;
using ir::NetId;

// The Fig. 2(a) fragment (from ITC'99 b04): two AND-combined predicate
// pairs feeding OR gates that select two data-path muxes.
struct Figure2Circuit {
  Circuit c{"fig2"};
  NetId w0 = c.add_input("w0", 3);
  NetId w1 = c.add_input("w1", 3);
  NetId w2 = c.add_input("w2", 3);
  NetId w3 = c.add_input("w3", 3);
  NetId w4 = c.add_input("w4", 3);
  NetId b0 = c.add_input("b0", 1);
  // b1 ⊨ w1 ≥ 1 and b2 ⊨ w1 > 0 — semantically equal but structurally
  // distinct comparators, as in the synthesized b04 netlist where the
  // fragment's duplicated comparator logic is what makes the correlation
  // worth learning. Either one false pins w1 = ⟨0⟩.
  NetId b1 = c.add_le(c.add_const(1, 3), w1);
  NetId b2 = c.add_lt(c.add_const(0, 3), w1);
  // b3 ⊨ w2 ≥ 1, b4 ⊨ w2 ≤ 1: together they pin w2 = ⟨1⟩.
  NetId b3 = c.add_le(c.add_const(1, 3), w2);
  NetId b4 = c.add_le(w2, c.add_const(1, 3));
  NetId b5 = c.add_and(b1, b0);
  NetId b6 = c.add_and(b2, b0);
  NetId b7 = c.add_and(b3, b4);
  NetId b8 = c.add_or(b5, b7);
  NetId b9 = c.add_or(b6, b7);
  // The muxes make b8/b9 data-path predicates (selects).
  NetId w5 = c.add_mux(b8, w3, w0);
  NetId w6 = c.add_mux(b9, w4, w0);
};

bool has_binary(const ClauseDb& db, NetId x, bool xv, NetId y, bool yv) {
  for (std::uint32_t id = 0; id < db.size(); ++id) {
    const ClauseView c = db.clause(id);
    if (c.lits.size() != 2) continue;
    bool found_x = false, found_y = false;
    for (const HybridLit& l : c.lits) {
      if (l.is_bool && l.net == x && (l.interval.lo() == 1) == xv)
        found_x = true;
      if (l.is_bool && l.net == y && (l.interval.lo() == 1) == yv)
        found_y = true;
    }
    if (found_x && found_y) return true;
  }
  return false;
}

TEST(Figure2, PredicateLearningLearnsThePaperClauses) {
  Figure2Circuit f;
  prop::Engine engine(f.c);
  ClauseDb db(f.c);
  std::size_t cursor = 0;
  const auto report = run_predicate_learning(engine, db, &cursor, {});
  EXPECT_FALSE(report.proven_unsat);
  EXPECT_GE(report.relations_learned, 4);

  // Step 1: b5 = 0 ⟹ b6 = 0, learned as (b5 ∨ b6̄).
  EXPECT_TRUE(has_binary(db, f.b5, true, f.b6, false));
  // Step 2: b6 = 0 ⟹ b5 = 0, learned as (b6 ∨ b5̄).
  EXPECT_TRUE(has_binary(db, f.b6, true, f.b5, false));
  // Step 3: b8 = 1 ⟹ b9 = 1, learned as (b8̄ ∨ b9).
  EXPECT_TRUE(has_binary(db, f.b8, false, f.b9, true));
  // Step 4: b9 = 1 ⟹ b8 = 1, learned as (b9̄ ∨ b8).
  EXPECT_TRUE(has_binary(db, f.b9, false, f.b8, true));
}

TEST(Figure2, ProbeImplicationsMatchPaperStep1) {
  // Under b5 = 0 with the way b1 = 0: w1 collapses to ⟨0⟩ and b2, b6
  // follow — the first row of Fig. 2(b).
  Figure2Circuit f;
  prop::Engine engine(f.c);
  ASSERT_TRUE(engine.propagate());
  engine.push_level();
  ASSERT_TRUE(engine.narrow(f.b1, Interval::point(0),
                            prop::ReasonKind::kDecision));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(engine.interval(f.w1), Interval::point(0));
  EXPECT_EQ(engine.bool_value(f.b2), 0);
  EXPECT_EQ(engine.bool_value(f.b6), 0);
}

TEST(Figure2, ProbeImplicationsMatchPaperStep3) {
  // Under b8 = 1 with the way b5 = 1: w1 ∈ ⟨1,7⟩ and b0 = 1; with the
  // learned clause (b6 ∨ b5̄) present, also b6 = 1 and b9 = 1.
  Figure2Circuit f;
  prop::Engine engine(f.c);
  ClauseDb db(f.c);
  std::size_t cursor = 0;
  db.add({{HybridLit::boolean(f.b5, false), HybridLit::boolean(f.b6, true)},
          true, HybridClause::Origin::kPredicateLearning});
  ASSERT_TRUE(deduce(engine, db, &cursor));
  engine.push_level();
  ASSERT_TRUE(engine.narrow(f.b5, Interval::point(1),
                            prop::ReasonKind::kDecision));
  ASSERT_TRUE(deduce(engine, db, &cursor));
  EXPECT_EQ(engine.interval(f.w1), Interval(1, 7));
  EXPECT_EQ(engine.bool_value(f.b0), 1);
  EXPECT_EQ(engine.bool_value(f.b6), 1);
  EXPECT_EQ(engine.bool_value(f.b9), 1);
}

// Fig. 4: justification walks the mux chain backwards, pinning w3 and w1
// to ⟨5⟩ and choosing the select values b1 = 0, b2 = 0.
struct Figure4Circuit {
  Circuit c{"fig4"};
  NetId w0 = c.add_input("w0", 3);
  NetId w1 = c.add_input("w1", 3);
  NetId a1 = c.add_input("a1", 3);
  NetId a2 = c.add_input("a2", 3);
  NetId x0 = c.add_input("x0", 1);
  // w2 ∈ ⟨6,7⟩ by construction (high bits pinned to 11).
  NetId w2 = c.add_concat(c.add_const(3, 2), c.add_zext(x0, 1));
  // Comparator-driven selects, as in the figure's "Comp" boxes.
  NetId b1 = c.add_lt(a1, a2);
  NetId b2 = c.add_lt(a2, a1);
  NetId w3 = c.add_mux(b2, w2, w1);
  NetId w4 = c.add_mux(b1, w2, w3);
  // Proposition: b7 ⊨ (w4 ≡ 5).
  NetId b7 = c.add_eq(w4, c.add_const(5, 3));
};

TEST(Figure4, StructuralSearchReachesThePaperAssignment) {
  Figure4Circuit f;
  HdpllOptions options;
  options.structural_decisions = true;
  HdpllSolver solver(f.c, options);
  solver.assume_bool(f.b7, true);
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  // The published end state: both selects at 0 and the data chain pinned
  // to ⟨5⟩ down to w1.
  EXPECT_EQ(solver.engine().bool_value(f.b1), 0);
  EXPECT_EQ(solver.engine().bool_value(f.b2), 0);
  EXPECT_EQ(solver.engine().interval(f.w4), Interval::point(5));
  EXPECT_EQ(solver.engine().interval(f.w3), Interval::point(5));
  EXPECT_EQ(solver.engine().interval(f.w1), Interval::point(5));
  // And the model really does set w1 = 5.
  EXPECT_EQ(result.input_model.at(f.w1), 5);
}

TEST(Figure4, DeadBranchSelectsAreImpliedNotDecided) {
  // Our interval propagation performs the figure's w4 ∩ w2 = ∅ analysis as
  // an implication (rule_mux's dead-branch case), so the selects resolve
  // without consuming decisions.
  Figure4Circuit f;
  HdpllOptions options;
  options.structural_decisions = true;
  HdpllSolver solver(f.c, options);
  solver.assume_bool(f.b7, true);
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  // Only the free Boolean x0 can require a decision.
  EXPECT_LE(solver.stats().get("hdpll.decisions"), 2);
}

TEST(Figure4, JConflictLearnsFromBlockedJustification)  {
  // §4.3's variant: with b2 = 1 pre-asserted, w3 = ⟨6,7⟩ and the
  // justification of w4 = ⟨5⟩ dead-ends; the solver must refute.
  Figure4Circuit f;
  HdpllOptions options;
  options.structural_decisions = true;
  HdpllSolver solver(f.c, options);
  solver.assume_bool(f.b7, true);
  solver.assume_bool(f.b2, true);
  const SolveResult result = solver.solve();
  EXPECT_EQ(result.status, SolveStatus::kUnsat);
}

}  // namespace
}  // namespace rtlsat::core

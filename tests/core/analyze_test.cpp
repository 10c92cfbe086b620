#include "core/analyze.h"

#include <gtest/gtest.h>

#include "bmc/unroll.h"
#include "core/deduce.h"
#include "itc99/itc99.h"
#include "util/rng.h"

namespace rtlsat::core {
namespace {

using ir::Circuit;
using ir::NetId;

TEST(Analyze, DecisionConflictLearnsNegation) {
  // g = a ∧ ¬a-ish structure: deciding a=1 with ¬a already forced conflicts
  // and must learn the unit (¬a).
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId g = c.add_and(a, b);
  prop::Engine engine(c);
  ClauseDb db(c);
  std::size_t cursor = 0;
  // Level 0: g must be 0 and b must be 1 (so a must be 0).
  ASSERT_TRUE(engine.narrow(g, Interval::point(0), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(b, Interval::point(1), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(deduce(engine, db, &cursor));
  EXPECT_EQ(engine.bool_value(a), 0);  // already implied — no decision room
}

TEST(Analyze, OneUipOverBooleanChain) {
  // d (decision) implies x via clause-free circuit logic; x and an
  // assumption together conflict. Learned clause should be unit (¬d)
  // because d is the 1UIP.
  Circuit c("t");
  const NetId d = c.add_input("d", 1);
  const NetId e = c.add_input("e", 1);
  const NetId x = c.add_and(d, e);
  const NetId y = c.add_not(x);
  prop::Engine engine(c);
  ClauseDb db(c);
  std::size_t cursor = 0;
  ASSERT_TRUE(engine.narrow(e, Interval::point(1), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(y, Interval::point(0), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(deduce(engine, db, &cursor));
  // y=0 ⟹ x=1 ⟹ d=1 ∧ e=1 — actually x is already forced; decide d=0 to
  // conflict with the forced d=1.
  if (engine.bool_value(d) == -1) {
    engine.push_level();
    ASSERT_TRUE(engine.narrow(d, Interval::point(0), prop::ReasonKind::kDecision));
    const bool ok = deduce(engine, db, &cursor);
    ASSERT_FALSE(ok);
    const AnalysisResult result = ConflictAnalyzer().analyze(engine);
    ASSERT_FALSE(result.empty_clause);
    ASSERT_EQ(result.clause.lits.size(), 1u);
    EXPECT_EQ(result.clause.lits[0].net, d);
    EXPECT_EQ(result.clause.lits[0].interval, Interval::point(1));  // learn d=1
    EXPECT_EQ(result.backtrack_level, 0u);
  } else {
    // Propagation already pinned d: equally fine (stronger deduction).
    EXPECT_EQ(engine.bool_value(d), 1);
  }
}

TEST(Analyze, LevelZeroConflictYieldsEmptyClause) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId na = c.add_not(a);
  prop::Engine engine(c);
  ASSERT_TRUE(engine.narrow(a, Interval::point(1), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(na, Interval::point(1), prop::ReasonKind::kAssumption));
  ASSERT_FALSE(engine.propagate());
  const AnalysisResult result = ConflictAnalyzer().analyze(engine);
  EXPECT_TRUE(result.empty_clause);
}

TEST(Analyze, BacktrackLevelIsSecondHighest) {
  // Two decisions; conflict depends on both ⟹ clause has literals from
  // both levels and backtracks to level 1.
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId g = c.add_and(a, b);   // g = a∧b
  const NetId ng = c.add_not(g);
  prop::Engine engine(c);
  ClauseDb db(c);
  std::size_t cursor = 0;
  ASSERT_TRUE(engine.narrow(ng, Interval::point(1), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(deduce(engine, db, &cursor));  // g = 0
  engine.push_level();
  ASSERT_TRUE(engine.narrow(a, Interval::point(1), prop::ReasonKind::kDecision));
  ASSERT_TRUE(deduce(engine, db, &cursor));  // forces b = 0
  EXPECT_EQ(engine.bool_value(b), 0);
  engine.push_level();
  const bool ok = engine.narrow(b, Interval::point(1), prop::ReasonKind::kDecision);
  EXPECT_FALSE(ok);  // direct contradiction with the implied b=0
  const AnalysisResult result = ConflictAnalyzer().analyze(engine);
  ASSERT_FALSE(result.empty_clause);
  EXPECT_LE(result.backtrack_level, 1u);
}

TEST(Analyze, WordEventsBecomeNegativeWordLiterals) {
  // A data-path narrowing at a lower level shows up as a negative word
  // literal when hybrid learning is on, and is resolved to Boolean causes
  // when off.
  Circuit c("t");
  const NetId s = c.add_input("s", 1);
  const NetId w = c.add_input("w", 8);
  const NetId t = c.add_const(6, 8);
  const NetId e = c.add_const(2, 8);
  const NetId m = c.add_mux(s, t, e);
  const NetId cmp = c.add_lt(m, w);  // m < w
  prop::Engine engine(c);
  ClauseDb db(c);
  std::size_t cursor = 0;
  ASSERT_TRUE(engine.narrow(cmp, Interval::point(1), prop::ReasonKind::kAssumption));
  ASSERT_TRUE(deduce(engine, db, &cursor));
  engine.push_level();
  ASSERT_TRUE(engine.narrow(s, Interval::point(1), prop::ReasonKind::kDecision));
  ASSERT_TRUE(deduce(engine, db, &cursor));  // m=6 ⟹ w ∈ ⟨7,255⟩
  EXPECT_EQ(engine.interval(w), Interval(7, 255));
  engine.push_level();
  // Decide w's upper region away via a narrowing that contradicts: force a
  // conflict by pinning w below 7 — not a Boolean decision, so do it as an
  // assumption-style narrowing on a second level.
  const bool ok =
      engine.narrow(w, Interval(0, 6), prop::ReasonKind::kDecision);
  EXPECT_FALSE(ok);
  const AnalysisResult with_words =
      ConflictAnalyzer().analyze(engine, {true});
  ASSERT_FALSE(with_words.empty_clause);
  bool has_word_lit = false;
  for (const HybridLit& l : with_words.clause.lits)
    has_word_lit = has_word_lit || !l.is_bool;
  EXPECT_TRUE(has_word_lit);
}

// One analyzer serves every conflict of a solver; its epoch-stamped marks
// and reused heap must give each conflict exactly what a fresh analyzer
// gives: the same clause, backtrack level, resolutions and premises.
TEST(Analyze, ReusedAnalyzerMatchesFresh) {
  const bmc::BmcInstance instance =
      bmc::unroll(itc99::build("b13"), "1", 12);
  const Circuit& c = instance.circuit;
  prop::Engine engine(c);
  ClauseDb db(c);
  std::size_t cursor = 0;
  ASSERT_TRUE(deduce(engine, db, &cursor));
  const AnalyzeOptions options{.record_premises = true};
  ConflictAnalyzer reused;
  Rng rng(5);
  int conflicts = 0;
  for (int step = 0; step < 4000 && conflicts < 60; ++step) {
    std::vector<NetId> free;
    for (NetId id = 0; id < c.num_nets(); ++id)
      if (c.is_bool(id) && engine.bool_value(id) < 0) free.push_back(id);
    if (free.empty()) {
      engine.backtrack_to_level(0);
      continue;
    }
    engine.push_level();
    ASSERT_TRUE(engine.narrow(free[rng.below(free.size())],
                              Interval::point(rng.flip() ? 1 : 0),
                              prop::ReasonKind::kDecision));
    if (deduce(engine, db, &cursor)) continue;
    ++conflicts;
    const AnalysisResult got = reused.analyze(engine, options);
    const AnalysisResult want = ConflictAnalyzer().analyze(engine, options);
    ASSERT_EQ(got.empty_clause, want.empty_clause);
    ASSERT_EQ(got.backtrack_level, want.backtrack_level);
    ASSERT_EQ(got.resolutions, want.resolutions);
    ASSERT_EQ(got.minimized, want.minimized);
    ASSERT_EQ(got.premises, want.premises);
    ASSERT_EQ(got.clause.lits.size(), want.clause.lits.size());
    for (std::size_t i = 0; i < got.clause.lits.size(); ++i) {
      EXPECT_EQ(got.clause.lits[i].net, want.clause.lits[i].net);
      EXPECT_EQ(got.clause.lits[i].interval, want.clause.lits[i].interval);
      EXPECT_EQ(got.clause.lits[i].positive, want.clause.lits[i].positive);
    }
    ASSERT_FALSE(got.empty_clause);
    engine.backtrack_to_level(engine.level() - 1);
    cursor = 0;
  }
  EXPECT_EQ(conflicts, 60);
}

// Minimization, hand-built: w is decided at level 1 and v is implied from
// w alone (a clause reason stands in for any rule). A level-2 decision r
// then conflicts with both.
struct MinimizeFixture {
  Circuit c{"t"};
  NetId w = c.add_input("w", 8);
  NetId v = c.add_input("v", 8);
  NetId r = c.add_input("r", 1);
  NetId x = c.add_input("x", 1);
  prop::Engine engine{c};

  std::int32_t imply(NetId net, const Interval& to, std::int32_t from) {
    const std::int32_t antecedents[] = {from};
    EXPECT_TRUE(
        engine.narrow(net, to, prop::ReasonKind::kClause, 0, antecedents));
    return engine.latest_event(net);
  }
  std::int32_t decide(NetId net, const Interval& to) {
    EXPECT_TRUE(engine.narrow(net, to, prop::ReasonKind::kDecision));
    return engine.latest_event(net);
  }
  AnalysisResult conflict_at_level_2(std::vector<std::int32_t> events) {
    engine.push_level();
    events.push_back(decide(r, Interval::point(1)));
    engine.fail(prop::ReasonKind::kClause, 0, events);
    return ConflictAnalyzer().analyze(engine, {.record_premises = true});
  }
};

TEST(Analyze, CoveredWordLiteralIsDropped) {
  MinimizeFixture f;
  f.engine.push_level();
  const std::int32_t on_w = f.decide(f.w, Interval(0, 10));
  const std::int32_t on_v = f.imply(f.v, Interval(1, 11), on_w);
  const AnalysisResult result = f.conflict_at_level_2({on_v, on_w});
  // v ∈ ⟨1,11⟩ follows from w ∈ ⟨0,10⟩, which the clause keeps:
  // (¬r ∨ {w ∉ ⟨0,10⟩}) is learned, and v's derivation joins the premises.
  ASSERT_EQ(result.clause.lits.size(), 2u);
  EXPECT_EQ(result.clause.lits[0].net, f.r);
  EXPECT_EQ(result.clause.lits[1].net, f.w);
  EXPECT_EQ(result.minimized, 1);
  EXPECT_EQ(result.backtrack_level, 1u);
  EXPECT_EQ(result.premises, std::vector<std::int32_t>{on_v});
}

TEST(Analyze, UncoveredDecisionKeepsItsConsequence) {
  // w's decision is not in the clause. It has no antecedents, so a rule
  // that only asked "are all antecedents justified?" would call it
  // redundant and drop v's literal, learning the invalid unit (¬r).
  MinimizeFixture f;
  f.engine.push_level();
  const std::int32_t on_w = f.decide(f.w, Interval(0, 10));
  const std::int32_t on_v = f.imply(f.v, Interval(1, 11), on_w);
  const AnalysisResult result = f.conflict_at_level_2({on_v});
  ASSERT_EQ(result.clause.lits.size(), 2u);
  EXPECT_EQ(result.clause.lits[1].net, f.v);
  EXPECT_EQ(result.minimized, 0);
  EXPECT_TRUE(result.premises.empty());
}

TEST(Analyze, LiteralsDoNotJustifyEachOther) {
  // x ⟹ w ∈ ⟨0,20⟩ ⟹ v ∈ ⟨1,11⟩ ⟹ w ∈ ⟨0,10⟩. The clause keeps v's event
  // and w's last one. w's first event is covered by its last, and v's
  // event covers w's last event's antecedent, but only c < e makes a
  // covering literal count: otherwise both literals would justify each
  // other and (¬r) would be learned, though it rests on the undecided x.
  MinimizeFixture f;
  f.engine.push_level();
  const std::int32_t on_x = f.decide(f.x, Interval::point(1));
  const std::int32_t wide_w = f.imply(f.w, Interval(0, 20), on_x);
  const std::int32_t on_v = f.imply(f.v, Interval(1, 11), wide_w);
  const std::int32_t tight_w = f.imply(f.w, Interval(0, 10), on_v);
  const AnalysisResult result = f.conflict_at_level_2({on_v, tight_w});
  EXPECT_EQ(result.clause.lits.size(), 3u);
  EXPECT_EQ(result.minimized, 0);
}

// Every minimized clause is a consequence of the circuit and the clause
// database it was learned against: asserting the complement of its
// literals at the root of a fresh engine over copies of both propagates to
// a conflict. The run learns each clause, backjumps and reduces the
// database as the solver does.
TEST(Analyze, MinimizedClauseIsImplied) {
  const bmc::BmcInstance instance =
      bmc::unroll(itc99::build("b13"), "1", 12);
  const Circuit& c = instance.circuit;
  prop::Engine engine(c);
  ClauseDb db(c);
  std::size_t cursor = 0;
  ASSERT_TRUE(deduce(engine, db, &cursor));
  ConflictAnalyzer analyzer;
  Rng rng(7);
  int conflicts = 0;
  int minimized = 0;
  for (int step = 0; step < 20000 && conflicts < 150; ++step) {
    std::vector<NetId> free;
    for (NetId id = 0; id < c.num_nets(); ++id)
      if (c.is_bool(id) && engine.bool_value(id) < 0) free.push_back(id);
    if (free.empty()) {
      engine.backtrack_to_level(0);
      continue;
    }
    engine.push_level();
    ASSERT_TRUE(engine.narrow(free[rng.below(free.size())],
                              Interval::point(rng.flip() ? 1 : 0),
                              prop::ReasonKind::kDecision));
    while (!deduce(engine, db, &cursor)) {
      ASSERT_GT(engine.level(), 0u) << "b13 is satisfiable";
      ++conflicts;
      const AnalysisResult result = analyzer.analyze(engine);
      ASSERT_FALSE(result.empty_clause);
      minimized += result.minimized;

      prop::Engine root(c);
      ClauseDb root_db(c);
      for (std::uint32_t id = 0; id < db.size(); ++id)
        if (!db.clause(id).deleted) root_db.add(db.clause(id).to_clause());
      bool refuted = false;
      for (const HybridLit& l : result.clause.lits) {
        // Analysis emits ¬(net = v) and {net ∉ b}; their complements are
        // (net = v) and net ∈ b.
        ASSERT_TRUE(l.is_bool || !l.positive);
        const Interval held =
            l.is_bool ? Interval::point(1 - l.interval.lo()) : l.interval;
        if (!root.narrow(l.net, held, prop::ReasonKind::kAssumption)) {
          refuted = true;
          break;
        }
      }
      std::size_t root_cursor = 0;
      EXPECT_TRUE(refuted || !deduce(root, root_db, &root_cursor))
          << "conflict " << conflicts << " learned "
          << result.clause.to_string(c);

      engine.backtrack_to_level(result.backtrack_level);
      db.add(result.clause);
      if (conflicts % 25 == 0) db.reduce(engine);
    }
  }
  EXPECT_EQ(conflicts, 150);
  EXPECT_GT(minimized, 0);
}

}  // namespace
}  // namespace rtlsat::core

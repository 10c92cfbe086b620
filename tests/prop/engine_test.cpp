#include "prop/engine.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "fuzz/generator.h"
#include "ir/analysis.h"
#include "util/rng.h"
#include "util/stop_token.h"

namespace rtlsat::prop {
namespace {

using ir::Circuit;
using ir::NetId;

TEST(Engine, InitialDomains) {
  Circuit c("t");
  const NetId a = c.add_input("a", 8);
  const NetId k = c.add_const(7, 4);
  Engine engine(c);
  EXPECT_EQ(engine.interval(a), Interval(0, 255));
  EXPECT_EQ(engine.interval(k), Interval::point(7));
  EXPECT_EQ(engine.bool_value(a), -1);
}

TEST(Engine, PropagatesToFixpoint) {
  // A chain: z = (x + 1) < y, assert z and narrow y.
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId z = c.add_lt(c.add_inc(x), y);
  Engine engine(c);
  ASSERT_TRUE(engine.narrow(z, Interval::point(1), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(y, Interval(0, 10), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  // x+1 < y ≤ 10 ⟹ x+1 ≤ 9... x+1 can wrap, but x ≤ 8 comes from the
  // non-wrapping branch being the only one below 10.
  EXPECT_LE(engine.interval(x).lo(), 8);
  EXPECT_FALSE(engine.interval(x).is_empty());
}

TEST(Engine, DetectsConflict) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_not(a);
  Engine engine(c);
  ASSERT_TRUE(engine.narrow(a, Interval::point(1), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(b, Interval::point(1), ReasonKind::kAssumption));
  EXPECT_FALSE(engine.propagate());
  EXPECT_TRUE(engine.in_conflict());
}

TEST(Engine, TrailRecordsEventsWithReasons) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId g = c.add_and(a, b);
  Engine engine(c);
  ASSERT_TRUE(engine.narrow(g, Interval::point(1), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(engine.bool_value(a), 1);
  EXPECT_EQ(engine.bool_value(b), 1);
  // Implied events carry kNode reasons referencing the AND gate.
  const std::int32_t ea = engine.latest_event(a);
  ASSERT_GE(ea, 0);
  EXPECT_EQ(engine.trail()[ea].kind, ReasonKind::kNode);
  EXPECT_EQ(engine.trail()[ea].reason_id, g);
  // The gate event is among a's antecedents.
  bool found = false;
  for (std::int32_t e : engine.antecedents(static_cast<std::size_t>(ea)))
    found = found || engine.trail()[e].net == g;
  EXPECT_TRUE(found);
}

// The probe cycle of recursive learning and of every backtrack: descend a
// level, narrow, propagate, undo. The antecedent arena is truncated with the
// trail and keeps its capacity, so after the first cycle the implication
// graph needs no more memory, and each cycle rebuilds the same graph.
TEST(Engine, ArenaRollbackKeepsGraphFlat) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId s = c.add_input("s", 1);
  const NetId sum = c.add_add(x, y);
  const NetId m = c.add_mux(s, sum, c.add_inc(x));
  const NetId goal = c.add_and(c.add_lt(m, c.add_const(40, 8)),
                               c.add_lt(c.add_const(10, 8), y));
  Engine engine(c);
  ASSERT_TRUE(engine.narrow(goal, Interval::point(1), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  const std::size_t root_events = engine.trail().size();

  std::int64_t bytes_after_first = 0;
  std::vector<std::vector<std::int32_t>> first_graph;
  for (int cycle = 0; cycle < 200; ++cycle) {
    engine.push_level();
    ASSERT_TRUE(engine.narrow(s, Interval::point(1), ReasonKind::kDecision));
    ASSERT_TRUE(engine.propagate());
    const auto& trail = engine.trail();
    ASSERT_GT(trail.size(), root_events + 1);  // the probe implied more
    std::vector<std::vector<std::int32_t>> graph;
    for (std::size_t i = 0; i < trail.size(); ++i) {
      const auto ants = engine.antecedents(i);
      for (const std::int32_t a : ants) {
        ASSERT_GE(a, 0);
        ASSERT_LT(static_cast<std::size_t>(a), i) << "event " << i;
      }
      ASSERT_LT(trail[i].prev_on_net, static_cast<std::int32_t>(i));
      graph.emplace_back(ants.begin(), ants.end());
    }
    engine.backtrack_to_level(0);
    ASSERT_EQ(engine.trail().size(), root_events);
    if (cycle == 0) {
      bytes_after_first = engine.implication_graph_bytes();
      first_graph = std::move(graph);
    } else {
      EXPECT_EQ(engine.implication_graph_bytes(), bytes_after_first)
          << "cycle " << cycle;
      EXPECT_EQ(graph, first_graph) << "cycle " << cycle;
    }
  }
}

// The reader index is extended over appended nets only; after every
// growth step it must equal a rebuild (ir::fanouts) element for element,
// repeated operands included. Old nets keep gaining readers over 60
// steps, so their slices fill up and move to the arena's end again and
// again.
TEST(Engine, SyncCircuitMatchesFreshFanouts) {
  Circuit c("grow");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  c.add_add(x, x);
  Engine engine(c);
  const auto expect_fresh = [&] {
    EXPECT_TRUE(engine.ops() == OpTable(c));
    const auto fanouts = ir::fanouts(c);
    for (NetId id = 0; id < c.num_nets(); ++id)
      EXPECT_TRUE(std::ranges::equal(engine.readers(id), fanouts[id]))
          << "net " << id;
  };
  expect_fresh();
  EXPECT_EQ(engine.readers(x).size(), 2u);  // add x x reads x twice
  ASSERT_TRUE(engine.narrow(y, Interval(0, 9), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  std::vector<NetId> old_sums;
  for (int step = 0; step < 60; ++step) {
    // Old nets x and y gain readers; s is read twice by one node, and one
    // to three sums of earlier steps gain a reader each.
    const NetId z = c.add_input("z" + std::to_string(step), 8);
    const NetId s = c.add_add(x, z);
    c.add_lt(y, c.add_add(s, s));
    for (std::size_t k = 0;
         k < old_sums.size() && k <= static_cast<std::size_t>(step % 3); ++k)
      c.add_le(old_sums[(step * 7 + k * 13) % old_sums.size()], y);
    old_sums.push_back(s);
    engine.sync_circuit();
    expect_fresh();
    ASSERT_TRUE(engine.propagate());
    EXPECT_EQ(engine.interval(y), Interval(0, 9));
  }
}

// Queue pops so far: rule calls that ran plus pops that ran none.
std::int64_t pops(const Engine& engine) {
  return engine.num_propagations() + engine.num_skipped_wakeups();
}

// A mux whose select is decided never reads its unchosen arm: narrowing
// that arm does not queue the mux (nor the arm's input), so nothing is
// popped.
TEST(Engine, DecidedMuxIgnoresUnchosenArm) {
  Circuit c("t");
  const NetId s = c.add_input("s", 1);
  const NetId a = c.add_input("a", 8);
  const NetId b = c.add_input("b", 8);
  const NetId m = c.add_mux(s, a, b);
  Engine engine(c);
  ASSERT_TRUE(engine.narrow(s, Interval::point(1), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  const std::int64_t ran = engine.num_propagations();
  const std::int64_t popped = pops(engine);
  ASSERT_TRUE(engine.narrow(b, Interval(0, 9), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(pops(engine), popped);
  EXPECT_EQ(engine.interval(m), Interval(0, 255));
  ASSERT_TRUE(engine.narrow(a, Interval(5, 20), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(engine.num_propagations(), ran + 1);
  EXPECT_EQ(engine.interval(m), Interval(5, 20));
}

// A comparator with a free output acts only once its operands decide it;
// until then it is never queued.
TEST(Engine, UndecidedComparatorWakesWhenOrdered) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId z = c.add_lt(x, y);
  Engine engine(c);
  ASSERT_TRUE(engine.propagate());
  const std::int64_t ran = engine.num_propagations();
  const std::int64_t popped = pops(engine);
  ASSERT_TRUE(engine.narrow(x, Interval(0, 100), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(y, Interval(50, 200), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(pops(engine), popped);
  EXPECT_EQ(engine.bool_value(z), -1);
  ASSERT_TRUE(engine.narrow(y, Interval(101, 200), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(engine.num_propagations(), ran + 1);
  EXPECT_EQ(engine.bool_value(z), 1);
}

// A decided x ≤ y reads only x.hi against y.hi and y.lo against x.lo:
// x.hi falling keeps the order and queues nothing, x.lo rising past y.lo
// breaks it.
TEST(Engine, DecidedLeIgnoresFallingHi) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId z = c.add_le(x, y);
  Engine engine(c);
  ASSERT_TRUE(engine.narrow(z, Interval::point(1), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(y, Interval(20, 200), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(engine.interval(x), Interval(0, 200));
  const std::int64_t ran = engine.num_propagations();
  const std::int64_t popped = pops(engine);
  ASSERT_TRUE(engine.narrow(x, Interval(0, 50), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(pops(engine), popped);
  EXPECT_EQ(engine.interval(y), Interval(20, 200));
  ASSERT_TRUE(engine.narrow(x, Interval(30, 50), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(engine.num_propagations(), ran + 1);
  EXPECT_EQ(engine.interval(y), Interval(30, 200));
}

// An idempotent rule reaches its fixpoint in one run, so its own
// narrowings never queue it.
TEST(Engine, IdempotentGateIgnoresOwnNarrowings) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId g = c.add_and(a, b);
  Engine engine(c);
  ASSERT_TRUE(engine.propagate());
  const std::int64_t ran = engine.num_propagations();
  const std::int64_t popped = pops(engine);
  ASSERT_TRUE(engine.narrow(g, Interval::point(1), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(engine.bool_value(a), 1);
  EXPECT_EQ(engine.bool_value(b), 1);
  // g ran once and was the only pop: its narrowings of a and b queued
  // neither g nor the inputs a and b, whose nodes have no rule.
  EXPECT_EQ(engine.num_propagations(), ran + 1);
  EXPECT_EQ(pops(engine), popped + 1);
}

// Wake conditions refuse or skip only nodes whose rule emits nothing, so
// after every completed propagate() no rule can narrow anything. Random walks over
// fuzz-generated circuits decide, propagate, backtrack and probe with
// rollback_to; some rounds run under a fired stop token and are then
// re-seeded with enqueue_all_nodes() at level 0, as the solver does.
TEST(Engine, WakeSkippingKeepsFixpoint) {
  fuzz::GeneratorOptions gen;
  gen.sequential_percent = 30;
  std::int64_t stopped_rounds = 0;
  std::int64_t skipped = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const fuzz::FuzzInstance instance = fuzz::generate(rng, gen);
    const Circuit& c = instance.circuit;
    Engine engine(c);
    std::vector<Interval> dom(c.num_nets());
    std::vector<Narrowing> out;
    const auto at_fixpoint = [&] {
      for (NetId id = 0; id < c.num_nets(); ++id) dom[id] = engine.interval(id);
      for (NetId id = 0; id < c.num_nets(); ++id) {
        out.clear();
        node_rules(engine.ops(), id, dom, out);
        if (!out.empty()) {
          ADD_FAILURE() << "seed " << seed << ": node " << id << " ("
                        << ir::op_name(engine.ops().op(id))
                        << ") can still narrow";
          return false;
        }
      }
      return true;
    };
    // Narrows a random free net to a random part of its interval.
    const auto decide = [&] {
      std::vector<NetId> free;
      for (NetId id = 0; id < c.num_nets(); ++id)
        if (!engine.interval(id).is_point()) free.push_back(id);
      if (free.empty()) return false;
      const NetId net = free[rng.below(free.size())];
      const Interval d = engine.interval(net);
      const std::int64_t lo = rng.range(d.lo(), d.hi());
      const std::int64_t hi = rng.range(lo, std::min(d.hi(), lo + 8));
      return engine.narrow(net, Interval(lo, hi), ReasonKind::kDecision);
    };
    // One decision level; a conflict undoes it.
    const auto descend = [&] {
      engine.push_level();
      if (decide() && engine.propagate()) return true;
      engine.backtrack_to_level(engine.level() - 1);
      return false;
    };
    ASSERT_TRUE(engine.propagate());
    ASSERT_TRUE(at_fixpoint());
    for (int step = 0; step < 150; ++step) {
      switch (rng.below(4)) {
        case 0:
        case 1:
          descend();
          break;
        case 2: {  // probe: narrow, propagate, roll back
          const std::size_t mark = engine.mark();
          if (decide()) engine.propagate();
          engine.rollback_to(mark);
          break;
        }
        case 3:
          engine.backtrack_to_level(
              static_cast<std::uint32_t>(rng.below(engine.level() + 1)));
          break;
      }
      ASSERT_TRUE(at_fixpoint()) << "step " << step;
      if (step % 50 != 49) continue;
      // A round under a fired token: enough pops that a stop poll ran.
      StopSource source;
      source.request_stop();
      const StopToken token = source.token();
      engine.set_stop(&token);
      const std::int64_t before = pops(engine);
      for (int round = 0; round < 2000 && pops(engine) - before <= 4096;
           ++round) {
        if (!descend()) engine.backtrack_to_level(0);
      }
      engine.set_stop(nullptr);
      if (pops(engine) - before > 4096) ++stopped_rounds;
      engine.backtrack_to_level(0);
      engine.enqueue_all_nodes();
      ASSERT_TRUE(engine.propagate());
      ASSERT_TRUE(at_fixpoint()) << "after the stopped round at " << step;
    }
    skipped += engine.num_skipped_wakeups();
  }
  EXPECT_GT(skipped, 0);
  EXPECT_GT(stopped_rounds, 0);
}

TEST(Engine, RollbackRestoresDomains) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_inc(x);
  Engine engine(c);
  const std::size_t mark = engine.mark();
  ASSERT_TRUE(engine.narrow(x, Interval(3, 5), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(engine.interval(y), Interval(4, 6));
  engine.rollback_to(mark);
  EXPECT_EQ(engine.interval(x), Interval(0, 255));
  EXPECT_EQ(engine.interval(y), Interval(0, 255));
  EXPECT_EQ(engine.latest_event(x), -1);
}

TEST(Engine, BacktrackToLevelUndoesDeeperEvents) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  Engine engine(c);
  ASSERT_TRUE(engine.narrow(a, Interval::point(1), ReasonKind::kAssumption));
  engine.push_level();
  ASSERT_TRUE(engine.narrow(b, Interval::point(0), ReasonKind::kDecision));
  EXPECT_EQ(engine.level(), 1u);
  engine.backtrack_to_level(0);
  EXPECT_EQ(engine.level(), 0u);
  EXPECT_EQ(engine.bool_value(a), 1);   // level-0 fact survives
  EXPECT_EQ(engine.bool_value(b), -1);  // decision undone
}

TEST(Engine, ConflictClearsOnRollback) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  Engine engine(c);
  const std::size_t mark = engine.mark();
  ASSERT_TRUE(engine.narrow(a, Interval::point(1), ReasonKind::kAssumption));
  EXPECT_FALSE(engine.narrow(a, Interval::point(0), ReasonKind::kAssumption));
  EXPECT_TRUE(engine.in_conflict());
  engine.rollback_to(mark);
  EXPECT_FALSE(engine.in_conflict());
}

TEST(Engine, NarrowingIsMonotonic) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  Engine engine(c);
  ASSERT_TRUE(engine.narrow(x, Interval(0, 100), ReasonKind::kAssumption));
  // Widening attempts are silent no-ops.
  ASSERT_TRUE(engine.narrow(x, Interval(0, 200), ReasonKind::kAssumption));
  EXPECT_EQ(engine.interval(x), Interval(0, 100));
  EXPECT_EQ(engine.trail().size(), 1u);
}

TEST(Engine, AllBooleansAssigned) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId x = c.add_input("x", 8);
  Engine engine(c);
  EXPECT_FALSE(engine.all_booleans_assigned());
  ASSERT_TRUE(engine.narrow(a, Interval::point(0), ReasonKind::kAssumption));
  EXPECT_TRUE(engine.all_booleans_assigned());  // x is a word net
  (void)x;
}

TEST(Engine, CountsDatapathNarrowings) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId a = c.add_input("a", 1);
  Engine engine(c);
  ASSERT_TRUE(engine.narrow(x, Interval(0, 9), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.narrow(a, Interval::point(1), ReasonKind::kAssumption));
  EXPECT_EQ(engine.num_datapath_narrowings(), 1);
}

// The paper's worked interval example from §2.2: x − z < 0 with both in
// ⟨0,15⟩ narrows to x ∈ ⟨0,14⟩, z ∈ ⟨1,15⟩.
TEST(Engine, PaperSection22Example) {
  Circuit c("t");
  const NetId x = c.add_input("x", 4);
  const NetId z = c.add_input("z", 4);
  const NetId lt = c.add_lt(x, z);
  Engine engine(c);
  ASSERT_TRUE(engine.narrow(lt, Interval::point(1), ReasonKind::kAssumption));
  ASSERT_TRUE(engine.propagate());
  EXPECT_EQ(engine.interval(x), Interval(0, 14));
  EXPECT_EQ(engine.interval(z), Interval(1, 15));
}

}  // namespace
}  // namespace rtlsat::prop

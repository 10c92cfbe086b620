#include "core/hdpll.h"

#include <gtest/gtest.h>

#include "bmc/unroll.h"
#include "itc99/itc99.h"

namespace rtlsat::core {
namespace {

using ir::Circuit;
using ir::NetId;

// All four solver configurations exercised by the paper's tables.
std::vector<HdpllOptions> all_configs() {
  HdpllOptions base;
  HdpllOptions s = base;
  s.structural_decisions = true;
  HdpllOptions sp = s;
  sp.predicate_learning = true;
  HdpllOptions chrono = base;
  chrono.conflict_learning = false;
  return {base, s, sp, chrono};
}

class AllConfigs : public ::testing::TestWithParam<int> {
 protected:
  HdpllOptions options() const { return all_configs()[GetParam()]; }
};

TEST_P(AllConfigs, SimpleSatWitness) {
  // a + b == 100 ∧ a < 20.
  Circuit c("t");
  const NetId a = c.add_input("a", 8);
  const NetId b = c.add_input("b", 8);
  const NetId goal = c.add_and(c.add_eq(c.add_add(a, b), c.add_const(100, 8)),
                               c.add_lt(a, c.add_const(20, 8)));
  HdpllSolver solver(c, options());
  solver.assume_bool(goal, true);
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  const auto values = c.evaluate(result.input_model);
  EXPECT_EQ(values[goal], 1);  // verified independently of the solver
}

TEST_P(AllConfigs, SimpleUnsat) {
  // x < y ∧ y < x.
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId goal = c.add_and(c.add_lt(x, y), c.add_lt(y, x));
  HdpllSolver solver(c, options());
  solver.assume_bool(goal, true);
  EXPECT_EQ(solver.solve().status, SolveStatus::kUnsat);
}

TEST_P(AllConfigs, MuxChainSat) {
  Circuit c("t");
  const NetId s1 = c.add_input("s1", 1);
  const NetId s2 = c.add_input("s2", 1);
  const NetId w = c.add_input("w", 8);
  const NetId m1 = c.add_mux(s1, c.add_const(10, 8), w);
  const NetId m2 = c.add_mux(s2, m1, c.add_const(20, 8));
  const NetId goal = c.add_eq(m2, c.add_const(33, 8));
  HdpllSolver solver(c, options());
  solver.assume_bool(goal, true);
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  EXPECT_EQ(c.evaluate(result.input_model)[goal], 1);
}

TEST_P(AllConfigs, ArithmeticDisequalityUnsat) {
  // (x + 1) == x is unsatisfiable at any width.
  Circuit c("t");
  const NetId x = c.add_input("x", 6);
  const NetId goal = c.add_eq(c.add_inc(x), x);
  HdpllSolver solver(c, options());
  solver.assume_bool(goal, true);
  EXPECT_EQ(solver.solve().status, SolveStatus::kUnsat);
}

TEST_P(AllConfigs, WrapAroundWitnessFound) {
  // x + 200 == 100 needs the adder wrap: x = 156.
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId sum = c.add_add(x, c.add_const(200, 8));
  const NetId goal = c.add_eq(sum, c.add_const(100, 8));
  HdpllSolver solver(c, options());
  solver.assume_bool(goal, true);
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  EXPECT_EQ(result.input_model.at(x), 156);
}

TEST_P(AllConfigs, XorParityChainBothWays) {
  // Parity of 6 free bits must equal 1 — SAT; adding the complement
  // equality makes it UNSAT.
  Circuit c("t");
  std::vector<NetId> bits;
  for (int i = 0; i < 6; ++i)
    bits.push_back(c.add_input("p" + std::to_string(i), 1));
  NetId parity = bits[0];
  for (std::size_t i = 1; i < bits.size(); ++i)
    parity = c.add_xor(parity, bits[i]);
  {
    HdpllSolver solver(c, options());
    solver.assume_bool(parity, true);
    EXPECT_EQ(solver.solve().status, SolveStatus::kSat);
  }
  {
    HdpllSolver solver(c, options());
    solver.assume_bool(parity, true);
    solver.assume_bool(bits[0], false);
    solver.assume_bool(bits[1], false);
    solver.assume_bool(bits[2], false);
    solver.assume_bool(bits[3], false);
    solver.assume_bool(bits[4], false);
    solver.assume_bool(bits[5], false);
    EXPECT_EQ(solver.solve().status, SolveStatus::kUnsat);
  }
}

TEST_P(AllConfigs, AssumeIntervalRestrictsModel) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId goal = c.add_lt(x, y);
  HdpllSolver solver(c, options());
  solver.assume_bool(goal, true);
  solver.assume(y, Interval(0, 9));
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  EXPECT_LT(result.input_model.at(x), result.input_model.at(y));
  EXPECT_LE(result.input_model.at(y), 9);
}

std::string config_case_name(const ::testing::TestParamInfo<int>& info) {
  switch (info.param) {
    case 0: return "base";
    case 1: return "structural";
    case 2: return "structural_pred";
    default: return "chrono";
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, AllConfigs, ::testing::Values(0, 1, 2, 3),
                         config_case_name);

TEST(Hdpll, ContradictoryAssumptionsUnsatAtLevelZero) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  HdpllSolver solver(c);
  solver.assume(x, Interval(0, 10));
  solver.assume(x, Interval(20, 30));
  EXPECT_EQ(solver.solve().status, SolveStatus::kUnsat);
}

TEST(Hdpll, TimeoutReported) {
  // A hard instance with a tiny timeout must come back kTimeout quickly.
  Circuit c("t");
  std::vector<NetId> xs;
  for (int i = 0; i < 6; ++i) xs.push_back(c.add_input("x" + std::to_string(i), 10));
  // Σ pairwise-different via chained comparisons — needs real search.
  std::vector<NetId> constraints;
  for (std::size_t i = 0; i < xs.size(); ++i)
    for (std::size_t j = i + 1; j < xs.size(); ++j)
      constraints.push_back(c.add_ne(
          c.add_mulc(xs[i], 3), c.add_add(c.add_mulc(xs[j], 3), c.add_const(1, 10))));
  const NetId goal = c.add_and(constraints);
  HdpllOptions options;
  options.timeout_seconds = 0.01;
  HdpllSolver solver(c, options);
  solver.assume_bool(goal, true);
  const SolveResult result = solver.solve();
  EXPECT_TRUE(result.status == SolveStatus::kTimeout ||
              result.status == SolveStatus::kSat);  // small chance it's quick
}

TEST(Hdpll, StatsCountersAdvance) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId s1 = c.add_input("s1", 1);
  const NetId m = c.add_mux(s1, x, y);
  const NetId goal = c.add_eq(m, c.add_const(77, 8));
  HdpllSolver solver(c);
  solver.assume_bool(goal, true);
  ASSERT_EQ(solver.solve().status, SolveStatus::kSat);
  EXPECT_GT(solver.stats().get("hdpll.decisions") +
                solver.stats().get("hdpll.arith_checks"),
            0);
}

TEST(Hdpll, LearnsClausesOnUnsatInstances) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId z = c.add_input("z", 8);
  const NetId goal = c.add_and(
      {c.add_lt(x, y), c.add_lt(y, z), c.add_lt(z, x)});
  HdpllSolver solver(c);
  solver.assume_bool(goal, true);
  EXPECT_EQ(solver.solve().status, SolveStatus::kUnsat);
}

TEST(Hdpll, PredicateLearningReportSurfaces) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId w1 = c.add_input("w1", 8);
  const NetId w2 = c.add_input("w2", 8);
  const NetId g = c.add_or(c.add_and(a, b), c.add_and(a, c.add_not(b)));
  const NetId m = c.add_mux(g, w1, w2);
  const NetId goal = c.add_lt(m, c.add_const(10, 8));
  HdpllOptions options;
  options.predicate_learning = true;
  HdpllSolver solver(c, options);
  solver.assume_bool(goal, true);
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  EXPECT_GT(result.learning.probes, 0);
}

TEST(Hdpll, RandomDecisionAblationStillSound) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId goal = c.add_and(c.add_le(x, y), c.add_le(y, x));  // x == y
  HdpllOptions options;
  options.random_decisions = true;
  options.random_seed = 12345;
  HdpllSolver solver(c, options);
  solver.assume_bool(goal, true);
  solver.assume(x, Interval(42, 42));
  const SolveResult result = solver.solve();
  ASSERT_EQ(result.status, SolveStatus::kSat);
  EXPECT_EQ(result.input_model.at(y), 42);
}

// Pins the exact search of two small Table 2 rows. A change to a data
// structure (trail, implication graph, J-frontier, clause database) must
// leave every decision, conflict and propagation queue pop as it was; a
// change that moves these numbers changes the search and needs its own
// justification. A pop either runs its rule or finds its node settled
// since the push, so the pops are the sum of the engine's two counters.
struct PinnedRow {
  const char* circuit;
  const char* property;
  int bound;
  bool structural;
  std::int64_t decisions;
  std::int64_t conflicts;
  std::int64_t pops;
};

// Keeps the test's full name stable (the default prints raw bytes,
// pointers included).
void PrintTo(const PinnedRow& row, std::ostream* os) {
  *os << row.circuit << "_" << row.property << "(" << row.bound << ")"
      << (row.structural ? " HDPLL+S" : " HDPLL");
}

class PinnedSearch : public ::testing::TestWithParam<PinnedRow> {};

TEST_P(PinnedSearch, CountsUnchanged) {
  const PinnedRow row = GetParam();
  const bmc::BmcInstance instance =
      bmc::unroll(itc99::build(row.circuit), row.property, row.bound);
  HdpllOptions options;
  options.structural_decisions = row.structural;
  HdpllSolver solver(instance.circuit, options);
  solver.assume_bool(instance.goal, true);
  ASSERT_NE(solver.solve().status, SolveStatus::kTimeout);
  EXPECT_EQ(solver.stats().get("hdpll.decisions"), row.decisions);
  EXPECT_EQ(solver.stats().get("hdpll.conflicts"), row.conflicts);
  EXPECT_EQ(solver.stats().get("prop.propagations") +
                solver.stats().get("prop.skipped_wakeups"),
            row.pops);
  EXPECT_EQ(solver.stats().get("prop.skipped_wakeups"),
            solver.engine().num_skipped_wakeups());
}

INSTANTIATE_TEST_SUITE_P(
    Rows, PinnedSearch,
    ::testing::Values(PinnedRow{"b13", "5", 40, true, 923, 700, 262385},
                      PinnedRow{"b13", "1", 40, false, 587, 315, 260197}),
    [](const auto& info) {
      return std::string(info.param.circuit) + "_" + info.param.property +
             "_k" + std::to_string(info.param.bound) +
             (info.param.structural ? "_s" : "_base");
    });

}  // namespace
}  // namespace rtlsat::core

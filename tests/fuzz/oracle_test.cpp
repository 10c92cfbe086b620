#include "fuzz/oracle.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bmc/unroll.h"
#include "fuzz/generator.h"
#include "ir/circuit.h"
#include "itc99/itc99.h"
#include "util/rng.h"

namespace rtlsat::fuzz {
namespace {

OracleOptions fast_options() {
  OracleOptions options;
  options.timeout_seconds = 30;
  options.portfolio_jobs = 2;
  return options;
}

TEST(Oracle, AgreesOnSatInstance) {
  ir::Circuit c("sat");
  const ir::NetId x = c.add_input("x", 4);
  const ir::NetId goal = c.add_eq(x, c.add_const(5, 4));
  const OracleReport report = run_oracle(c, goal, fast_options());
  EXPECT_EQ(report.consensus, 'S');
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.brute_ran);
  EXPECT_EQ(report.brute_sat_count, 1);
}

TEST(Oracle, AgreesOnUnsatInstance) {
  ir::Circuit c("unsat");
  const ir::NetId x = c.add_input("x", 3);
  const ir::NetId low = c.add_lt(x, c.add_const(3, 3));
  const ir::NetId high = c.add_lt(c.add_const(5, 3), x);
  const ir::NetId goal = c.add_and({low, high});
  const OracleReport report = run_oracle(c, goal, fast_options());
  EXPECT_EQ(report.consensus, 'U');
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.brute_ran);
  EXPECT_EQ(report.brute_sat_count, 0);
}

TEST(Oracle, BruteForceSkippedPastBitBudget) {
  ir::Circuit c("wide");
  const ir::NetId x = c.add_input("x", 40);
  const ir::NetId goal = c.add_lt(x, c.add_const(7, 40));
  OracleOptions options = fast_options();
  options.run_portfolio = false;
  const OracleReport report = run_oracle(c, goal, options);
  EXPECT_FALSE(report.brute_ran);
  EXPECT_EQ(report.consensus, 'S');
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Oracle, ZeroInputCircuitHandled) {
  // Constant goals are rejected by the generator but the oracle must not
  // choke on a circuit whose only input feeds dead logic.
  ir::Circuit c("zero");
  const ir::NetId x = c.add_input("x", 2);
  const ir::NetId goal = c.add_le(c.add_const(0, 2), x);  // tautology
  const OracleReport report = run_oracle(c, goal, fast_options());
  EXPECT_EQ(report.consensus, 'S');
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.brute_sat_count, 4);  // every width-2 value satisfies
}

// The solvers' "0 = no limit" convention holds through the oracle: a zero
// per-engine timeout runs every engine to a verdict.
TEST(Oracle, ZeroTimeoutMeansNoLimit) {
  ir::Circuit c("unsat");
  const ir::NetId x = c.add_input("x", 3);
  const ir::NetId low = c.add_lt(x, c.add_const(3, 3));
  const ir::NetId high = c.add_lt(c.add_const(5, 3), x);
  const ir::NetId goal = c.add_and({low, high});
  OracleOptions options = fast_options();
  options.timeout_seconds = 0;
  const OracleReport report = run_oracle(c, goal, options);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.consensus, 'U');
  for (const EngineVerdict& v : report.verdicts)
    EXPECT_EQ(v.verdict, 'U') << v.engine;
}

// Past the run's stop every solver engine abstains unrun; only brute force,
// which has no solver budget, still decides.
TEST(Oracle, ExpiredStopAbstainsEverySolver) {
  ir::Circuit c("sat");
  const ir::NetId x = c.add_input("x", 4);
  const ir::NetId goal = c.add_eq(x, c.add_const(5, 4));
  OracleOptions options = fast_options();
  options.stop = StopToken::after(1e-6);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const OracleReport report = run_oracle(c, goal, options);
  EXPECT_TRUE(report.ok()) << report.summary();
  ASSERT_GT(report.verdicts.size(), 1u);
  for (const EngineVerdict& v : report.verdicts)
    EXPECT_EQ(v.verdict, v.engine == "brute" ? 'S' : 'T') << v.engine;
}

// The full matrix on a batch of generated instances: this is the fuzzing
// loop in miniature and the tripwire that keeps the engines agreeing.
TEST(Oracle, GeneratedInstancesAgreeAcrossEngines) {
  GeneratorOptions gen;
  gen.max_width = 8;
  OracleOptions options = fast_options();
  options.run_portfolio = false;  // covered by portfolio_test; keep this fast
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const FuzzInstance inst = generate(rng, gen);
    const OracleReport report = run_oracle(inst.circuit, inst.goal, options);
    ASSERT_TRUE(report.ok()) << "seed " << seed << " (" << inst.description
                             << "): " << report.summary() << "\n  "
                             << (report.mismatches.empty()
                                     ? std::string("-")
                                     : report.mismatches.front());
    ASSERT_NE(report.consensus, '?') << inst.description;
  }
}

TEST(PresolveOracle, CleanOnDecidedSatAndUnsat) {
  // Presolve decides both instances; the differential must confirm the
  // verdicts against the direct solver and audit any model it produced.
  ir::Circuit sat("dec-sat");
  const ir::NetId a = sat.add_input("a", 4);
  const ir::NetId sat_goal =
      sat.add_le(sat.add_zext(a, 8), sat.add_const(20, 8));
  EXPECT_TRUE(compare_presolve(sat, sat_goal, fast_options()).empty());

  ir::Circuit unsat("dec-unsat");
  const ir::NetId b = unsat.add_input("b", 4);
  const ir::NetId unsat_goal =
      unsat.add_eq(unsat.add_zext(b, 8), unsat.add_const(200, 8));
  EXPECT_TRUE(compare_presolve(unsat, unsat_goal, fast_options()).empty());
}

TEST(PresolveOracle, CleanOnUndecidedInstance) {
  // a + b == 100 ∧ a < 20 is interval-undecidable: the oracle solves the
  // simplified circuit, transfers the witness back by input name, and
  // checks net-by-net agreement through the net map.
  ir::Circuit c("undec");
  const ir::NetId a = c.add_input("a", 8);
  const ir::NetId b = c.add_input("b", 8);
  const ir::NetId goal =
      c.add_and(c.add_eq(c.add_add(a, b), c.add_const(100, 8)),
                c.add_lt(a, c.add_const(20, 8)));
  const std::vector<std::string> mismatches =
      compare_presolve(c, goal, fast_options());
  EXPECT_TRUE(mismatches.empty())
      << (mismatches.empty() ? std::string("-") : mismatches.front());

  // The Table 1 smoke rows, unrolled: b01_1(10), b02_1(10), b13_5(10).
  // Presolve decides the last two UNSAT; b01_1(10) is SAT and goes through
  // the simplified solve and the witness transfer.
  for (const auto& [circuit, property] :
       {std::pair{"b01", "1"}, {"b02", "1"}, {"b13", "5"}}) {
    const bmc::BmcInstance row =
        bmc::unroll(itc99::build(circuit), property, 10);
    const std::vector<std::string> row_mismatches =
        compare_presolve(row.circuit, row.goal, fast_options());
    EXPECT_TRUE(row_mismatches.empty())
        << row.name << ": "
        << (row_mismatches.empty() ? std::string("-")
                                   : row_mismatches.front());
  }
}

TEST(PresolveOracle, GeneratedInstancesStayClean) {
  GeneratorOptions gen;
  gen.max_width = 8;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed);
    const FuzzInstance inst = generate(rng, gen);
    const std::vector<std::string> mismatches =
        compare_presolve(inst.circuit, inst.goal, fast_options());
    ASSERT_TRUE(mismatches.empty())
        << "seed " << seed << " (" << inst.description
        << "): " << mismatches.front();
  }
}

}  // namespace
}  // namespace rtlsat::fuzz

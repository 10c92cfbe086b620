// Stress configurations: aggressive clause-database reduction and very
// frequent restarts must not change any verdict. These settings exercise
// the interactions that only show up under load (fresh-clause protection
// in reduce(), watch-list cleanup of deleted clauses, restart at level 0
// with pending asserting clauses).
#include <gtest/gtest.h>

#include "bitblast/bitblast.h"
#include "bmc/unroll.h"
#include "core/hdpll.h"
#include "itc99/itc99.h"

namespace rtlsat::core {
namespace {

// Arrays rather than pointers: gtest lists a parameterised test under a
// byte dump of its parameter, and a pointer's bytes change with every
// process's load address. With no padding the dump is the same each run.
struct StressCase {
  char circuit[8];
  char property[12];
  int bound;
};
static_assert(sizeof(StressCase) == 24, "no padding bytes");

class StressConfig : public ::testing::TestWithParam<StressCase> {};

TEST_P(StressConfig, AggressiveHousekeepingKeepsVerdicts) {
  const auto param = GetParam();
  const ir::SeqCircuit seq = itc99::build(param.circuit);
  const bmc::BmcInstance instance =
      bmc::unroll(seq, param.property, param.bound);
  const auto oracle = bitblast::check_sat(instance.circuit, instance.goal);
  ASSERT_NE(oracle.result, sat::Result::kTimeout);

  HdpllOptions options;
  options.structural_decisions = true;
  options.predicate_learning = true;
  options.learning.word_probing = true;
  options.reduction_base = 8;      // reduce almost every conflict
  options.reduction_grow = 1.01;
  options.restart_interval = 4;    // restart constantly
  options.timeout_seconds = 60;
  HdpllSolver solver(instance.circuit, options);
  solver.assume_bool(instance.goal, true);
  const SolveResult result = solver.solve();
  ASSERT_NE(result.status, SolveStatus::kTimeout);
  EXPECT_EQ(result.status == SolveStatus::kSat,
            oracle.result == sat::Result::kSat)
      << instance.name;
}

INSTANTIATE_TEST_SUITE_P(
    Families, StressConfig,
    ::testing::Values(StressCase{"b01", "1", 10}, StressCase{"b01", "1", 20},
                      StressCase{"b02", "1", 12}, StressCase{"b04", "1", 6},
                      StressCase{"b04", "2", 5}, StressCase{"b06", "2", 10},
                      StressCase{"b10", "1", 9}, StressCase{"b13", "1", 12},
                      StressCase{"b13", "5", 12}, StressCase{"b13", "40", 13}),
    [](const auto& info) {
      return std::string(info.param.circuit) + "_p" + info.param.property +
             "_k" + std::to_string(info.param.bound);
    });

TEST(Stress, ReductionNeverDeletesReasons) {
  // Long UNSAT run with tiny reduction budget: if reduce() ever deleted a
  // clause acting as a reason, conflict analysis would dereference a
  // deleted event source and the internal assertions would fire.
  const ir::SeqCircuit seq = itc99::build("b13");
  const auto instance = bmc::unroll(seq, "5", 25);
  HdpllOptions options;
  options.reduction_base = 4;
  options.reduction_grow = 1.0;
  options.timeout_seconds = 60;
  HdpllSolver solver(instance.circuit, options);
  solver.assume_bool(instance.goal, true);
  EXPECT_EQ(solver.solve().status, SolveStatus::kUnsat);
  EXPECT_GT(solver.stats().get("hdpll.clauses_deleted"), 0);
}

}  // namespace
}  // namespace rtlsat::core

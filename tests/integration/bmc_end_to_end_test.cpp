// End-to-end: ITC'99 models → BMC unrolling → HDPLL in the paper's three
// configurations, cross-checked against the bit-blast oracle at small
// bounds. This is the pipeline every bench row runs through.
#include <gtest/gtest.h>

#include "bitblast/bitblast.h"
#include "bmc/unroll.h"
#include "core/hdpll.h"
#include "itc99/itc99.h"

namespace rtlsat {
namespace {

// Arrays rather than pointers: gtest lists a parameterised test under a
// byte dump of its parameter, and a pointer's bytes change with every
// process's load address. With no padding the dump is the same each run.
struct InstanceCase {
  char circuit[8];
  char property[12];
  int bound;
};
static_assert(sizeof(InstanceCase) == 24, "no padding bytes");

class BmcEndToEnd : public ::testing::TestWithParam<InstanceCase> {};

TEST_P(BmcEndToEnd, ConfigsAgreeWithOracle) {
  const auto param = GetParam();
  const ir::SeqCircuit seq = itc99::build(param.circuit);
  const bmc::BmcInstance instance =
      bmc::unroll(seq, param.property, param.bound);
  const auto oracle = bitblast::check_sat(instance.circuit, instance.goal);
  ASSERT_NE(oracle.result, sat::Result::kTimeout);

  for (int config = 0; config < 3; ++config) {
    core::HdpllOptions options;
    options.structural_decisions = config >= 1;
    options.predicate_learning = config >= 2;
    options.timeout_seconds = 60;
    // Run the invariant verifier during the search in every build, not
    // just -DRTLSAT_SELFCHECK=ON ones — this suite is the self-check
    // layer's end-to-end exercise.
    options.self_check = true;
    core::HdpllSolver solver(instance.circuit, options);
    solver.assume_bool(instance.goal, true);
    const core::SolveResult result = solver.solve();
    ASSERT_NE(result.status, core::SolveStatus::kTimeout)
        << instance.name << " cfg=" << config;
    EXPECT_EQ(result.status == core::SolveStatus::kSat,
              oracle.result == sat::Result::kSat)
        << instance.name << " cfg=" << config;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperFamilies, BmcEndToEnd,
    ::testing::Values(InstanceCase{"b01", "1", 10},   // S in Table 1
                      InstanceCase{"b01", "1", 20},   // U in Table 1
                      InstanceCase{"b01", "2", 6},
                      InstanceCase{"b02", "1", 10},   // U
                      InstanceCase{"b02", "3", 5},    // S
                      InstanceCase{"b03", "1", 6},
                      InstanceCase{"b04", "1", 5},    // S (all-S family)
                      InstanceCase{"b04", "2", 4},
                      InstanceCase{"b13", "1", 5},
                      InstanceCase{"b13", "2", 5},
                      InstanceCase{"b13", "3", 5},
                      InstanceCase{"b13", "5", 5},
                      InstanceCase{"b13", "8", 5},
                      InstanceCase{"b13", "40", 13}),  // S at the paper bound
    [](const auto& info) {
      return std::string(info.param.circuit) + "_p" + info.param.property +
             "_k" + std::to_string(info.param.bound);
    });

TEST(BmcEndToEnd, SatModelDrivesCounterexample) {
  // For a SAT instance, the input model must replay to a property
  // violation through the unrolled circuit's evaluator.
  const ir::SeqCircuit seq = itc99::build("b04");
  const bmc::BmcInstance instance = bmc::unroll(seq, "1", 4);
  core::HdpllOptions options;
  options.structural_decisions = true;
  options.self_check = true;
  core::HdpllSolver solver(instance.circuit, options);
  solver.assume_bool(instance.goal, true);
  const core::SolveResult result = solver.solve();
  ASSERT_EQ(result.status, core::SolveStatus::kSat);
  const auto values = instance.circuit.evaluate(result.input_model);
  EXPECT_EQ(values[instance.goal], 1);
}

}  // namespace
}  // namespace rtlsat

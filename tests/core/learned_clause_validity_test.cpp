// Property test on the learning machinery itself: every clause the solver
// learns — by conflict analysis, predicate learning, or justification —
// must be implied by the circuit plus the level-0 assumptions. On small
// circuits we check this by brute force: enumerate all input assignments,
// keep those satisfying the assumptions, and evaluate every learnt clause.
// This is the test that catches subtly-wrong implication-graph cuts.
#include <gtest/gtest.h>

#include "core/hdpll.h"
#include "util/rng.h"

namespace rtlsat::core {
namespace {

using ir::Circuit;
using ir::NetId;

Circuit small_random_circuit(Rng& rng, NetId* goal) {
  Circuit c("rand");
  std::vector<NetId> words;
  std::vector<NetId> bools;
  words.push_back(c.add_input("w0", 3));
  words.push_back(c.add_input("w1", 3));
  bools.push_back(c.add_input("c0", 1));
  bools.push_back(c.add_input("c1", 1));
  words.push_back(c.add_const(rng.range(0, 7), 3));
  auto word = [&]() { return words[rng.below(words.size())]; };
  auto boolean = [&]() { return bools[rng.below(bools.size())]; };
  for (int step = 0; step < 14; ++step) {
    switch (rng.below(9)) {
      case 0: words.push_back(c.add_add(word(), word())); break;
      case 1: words.push_back(c.add_sub(word(), word())); break;
      case 2: words.push_back(c.add_mux(boolean(), word(), word())); break;
      case 3: bools.push_back(c.add_lt(word(), word())); break;
      case 4: bools.push_back(c.add_le(word(), word())); break;
      case 5: bools.push_back(c.add_and(boolean(), boolean())); break;
      case 6: bools.push_back(c.add_or(boolean(), boolean())); break;
      case 7: bools.push_back(c.add_not(boolean())); break;
      case 8: bools.push_back(c.add_xor(boolean(), boolean())); break;
    }
  }
  std::vector<NetId> conj;
  for (int i = 0; i < 3; ++i) {
    const NetId b = boolean();
    conj.push_back(rng.flip() ? b : c.add_not(b));
  }
  *goal = c.add_and(std::move(conj));
  return c;
}

bool lit_holds(const HybridLit& l, const std::vector<std::int64_t>& values) {
  const std::int64_t v = values[l.net];
  const bool inside = l.interval.contains(v);
  return l.positive ? inside : !inside;
}

class LearnedClauseValidity : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(LearnedClauseValidity, EveryLearntClauseIsImplied) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 10; ++iter) {
    NetId goal = ir::kNoNet;
    const Circuit c = small_random_circuit(rng, &goal);
    if (c.node(goal).op == ir::Op::kConst) continue;

    // Configurations that exercise all three clause origins.
    for (int config = 0; config < 3; ++config) {
      HdpllOptions options;
      options.structural_decisions = config >= 1;
      options.predicate_learning = config >= 2;
      options.analyze.hybrid_word_literals = config != 1;
      options.timeout_seconds = 20;
      HdpllSolver solver(c, options);
      solver.assume_bool(goal, true);
      const SolveResult result = solver.solve();
      ASSERT_NE(result.status, SolveStatus::kTimeout);
      if (solver.clauses().size() == 0) continue;

      // Enumerate all input assignments (2 word inputs × 3 bits + 2 bools).
      std::vector<NetId> inputs = c.inputs();
      std::vector<std::int64_t> limits;
      for (const NetId in : inputs) limits.push_back(c.domain(in).hi() + 1);
      std::vector<std::int64_t> assignment(inputs.size(), 0);
      bool carry = false;
      while (!carry) {
        std::unordered_map<NetId, std::int64_t> input_map;
        for (std::size_t i = 0; i < inputs.size(); ++i)
          input_map[inputs[i]] = assignment[i];
        const auto values = c.evaluate(input_map);
        if (values[goal] == 1) {
          // Under the assumption, every learnt clause must hold.
          for (std::uint32_t id = 0; id < solver.clauses().size(); ++id) {
            const ClauseView clause = solver.clauses().clause(id);
            bool holds = false;
            for (const HybridLit& l : clause.lits)
              holds = holds || lit_holds(l, values);
            ASSERT_TRUE(holds)
                << "seed " << GetParam() << " iter " << iter << " cfg "
                << config << " invalid clause " << clause.to_string(c);
          }
        }
        // Increment the mixed-radix assignment vector.
        carry = true;
        for (std::size_t i = 0; i < assignment.size() && carry; ++i) {
          if (++assignment[i] < limits[i]) {
            carry = false;
          } else {
            assignment[i] = 0;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LearnedClauseValidity,
                         ::testing::Values(201, 202, 203, 204, 205, 206));

}  // namespace
}  // namespace rtlsat::core

// DRAT round trip for the Boolean CDCL core: a refutation logged by
// sat::Solver must be accepted by the independent RUP checker, in both the
// text and binary encodings — and corrupted or truncated proofs must be
// rejected with a step-indexed diagnostic.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "proof/drat.h"
#include "proof/drat_check.h"
#include "sat/solver.h"

namespace rtlsat::sat {
namespace {

// Pigeonhole PHP(holes+1, holes): UNSAT, and small instances already force
// real search with learned clauses.
void add_pigeonhole(Solver& solver, proof::DratWriter& drat, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<Var>> var(pigeons, std::vector<Var>(holes));
  for (int p = 0; p < pigeons; ++p)
    for (int h = 0; h < holes; ++h) var[p][h] = solver.new_var();
  const auto dimacs = [&](int p, int h, bool positive) {
    const int v = static_cast<int>(var[p][h]) + 1;
    return positive ? v : -v;
  };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<Lit> clause;
    std::vector<int> ints;
    for (int h = 0; h < holes; ++h) {
      clause.emplace_back(var[p][h], true);
      ints.push_back(dimacs(p, h, true));
    }
    drat.original(ints);
    solver.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h) {
    for (int p = 0; p < pigeons; ++p) {
      for (int q = p + 1; q < pigeons; ++q) {
        drat.original({dimacs(p, h, false), dimacs(q, h, false)});
        solver.add_clause({Lit(var[p][h], false), Lit(var[q][h], false)});
      }
    }
  }
}

proof::DratWriter refute_pigeonhole(int holes, bool binary) {
  proof::DratWriter::Options drat_options;
  drat_options.binary = binary;
  proof::DratWriter drat(drat_options);
  SolverOptions options;
  options.drat = &drat;
  Solver solver(options);
  add_pigeonhole(solver, drat, holes);
  EXPECT_EQ(solver.solve(), Result::kUnsat);
  EXPECT_TRUE(drat.concluded());
  EXPECT_GT(drat.proof_steps(), 0);
  return drat;
}

TEST(DratRoundTrip, TextProofAccepted) {
  const proof::DratWriter drat = refute_pigeonhole(4, /*binary=*/false);
  const proof::DratCheckResult check =
      proof::drat_check(drat.dimacs(), drat.proof(), /*binary=*/false);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.steps_checked, 0);
}

TEST(DratRoundTrip, BinaryProofAccepted) {
  const proof::DratWriter drat = refute_pigeonhole(4, /*binary=*/true);
  const proof::DratCheckResult check =
      proof::drat_check(drat.dimacs(), drat.proof(), /*binary=*/true);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(check.steps_checked, 0);
}

TEST(DratRoundTrip, NonRupStepRejected) {
  // Splice a clause that is not a unit-propagation consequence in front of
  // the real proof: RUP on its negation must fail at step 1.
  const proof::DratWriter drat = refute_pigeonhole(3, /*binary=*/false);
  const std::string corrupted = "1 0\n" + drat.proof();
  const proof::DratCheckResult check =
      proof::drat_check(drat.dimacs(), corrupted, /*binary=*/false);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("step 1"), std::string::npos) << check.error;
}

TEST(DratRoundTrip, TruncatedProofRejected) {
  // Keep only the first proof step: every step is still RUP, but no
  // refutation is concluded. (Dropping just the final empty clause is not
  // enough — by then the accepted steps already propagate to a root
  // conflict, which the checker rightly accepts as a refutation.)
  const proof::DratWriter drat = refute_pigeonhole(3, /*binary=*/false);
  const std::string& proof = drat.proof();
  const std::size_t cut = proof.find('\n');
  ASSERT_NE(cut, std::string::npos);
  const proof::DratCheckResult check = proof::drat_check(
      drat.dimacs(), proof.substr(0, cut + 1), /*binary=*/false);
  EXPECT_FALSE(check.ok);
}

TEST(DratRoundTrip, DeletionsRoundTrip) {
  // A larger instance with an aggressive learnt cap exercises DB
  // reduction, so the proof carries 'd' lines the checker must honor.
  const proof::DratWriter drat = refute_pigeonhole(5, /*binary=*/false);
  const proof::DratCheckResult check =
      proof::drat_check(drat.dimacs(), drat.proof(), /*binary=*/false);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(DratRoundTrip, RepeatedLiteralAccepted) {
  // "1 1" is the unit clause 1 (the bit-blaster writes such clauses, e.g.
  // enc_xor(a, a)). Under x1 the other four clauses are every 2-clause
  // over x2/x3, so "2" is RUP only once x1 propagates at the root.
  const std::string dimacs =
      "p cnf 3 5\n1 1 0\n-1 2 3 0\n-1 2 -3 0\n-1 -2 3 0\n-1 -2 -3 0\n";
  const proof::DratCheckResult check =
      proof::drat_check(dimacs, "2 0\n0\n", /*binary=*/false);
  EXPECT_TRUE(check.ok) << check.error;
}

}  // namespace
}  // namespace rtlsat::sat

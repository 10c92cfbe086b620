// Edge cases for the Fourier–Motzkin solver beyond the main suite: large
// coefficients, long equality chains, tight boxes, and the splintering
// paths.
#include <gtest/gtest.h>

#include "fme/fme.h"

namespace rtlsat::fme {
namespace {

TEST(FmeEdge, PointBoxJustEvaluates) {
  System s;
  const Var x = s.add_var(Interval::point(7));
  const Var y = s.add_var(Interval::point(3));
  s.add_le({{x, 1}, {y, 1}}, 10);  // 7+3 ≤ 10 holds with equality
  Solver solver;
  std::vector<std::int64_t> model;
  EXPECT_EQ(solver.solve(s, &model), Result::kSat);
  EXPECT_EQ(model[x], 7);
  s.add_le({{x, 1}, {y, 1}}, 9);
  Solver solver2;
  EXPECT_EQ(solver2.solve(s, nullptr), Result::kUnsat);
}

TEST(FmeEdge, LongEqualityChain) {
  // x0 = x1 + 1 = x2 + 2 = … — a BMC-like substitution chain.
  System s;
  constexpr int kLen = 40;
  std::vector<Var> vars;
  for (int i = 0; i < kLen; ++i) vars.push_back(s.add_var(Interval(0, 1000)));
  for (int i = 0; i + 1 < kLen; ++i)
    s.add_eq({{vars[i], 1}, {vars[i + 1], -1}}, 1);  // x_i − x_{i+1} = 1
  s.add_eq({{vars[kLen - 1], 1}}, 5);
  Solver solver;
  std::vector<std::int64_t> model;
  ASSERT_EQ(solver.solve(s, &model), Result::kSat);
  EXPECT_EQ(model[vars[0]], 5 + kLen - 1);
}

TEST(FmeEdge, PowerOfTwoCoefficients) {
  // The concat/extract encodings: x = a·2^8 + b with field bounds.
  System s;
  const Var x = s.add_var(Interval(0, (1 << 16) - 1));
  const Var a = s.add_var(Interval(0, 255));
  const Var b = s.add_var(Interval(0, 255));
  s.add_eq({{x, 1}, {a, -256}, {b, -1}}, 0);
  s.add_eq({{a, 1}}, 0x12);
  s.add_eq({{b, 1}}, 0x34);
  Solver solver;
  std::vector<std::int64_t> model;
  ASSERT_EQ(solver.solve(s, &model), Result::kSat);
  EXPECT_EQ(model[x], 0x1234);
}

TEST(FmeEdge, LatticeGapRequiresDarkShadowOrSplinter) {
  // 6x ≡ 3 (mod 9) style: 6x − 9y = 3 is solvable (x=2,y=1), but
  // 6x − 9y = 1 is not (gcd 3 ∤ 1).
  {
    System s;
    const Var x = s.add_var(Interval(0, 50));
    const Var y = s.add_var(Interval(0, 50));
    s.add_eq({{x, 6}, {y, -9}}, 3);
    Solver solver;
    std::vector<std::int64_t> model;
    ASSERT_EQ(solver.solve(s, &model), Result::kSat);
    EXPECT_EQ(6 * model[x] - 9 * model[y], 3);
  }
  {
    System s;
    const Var x = s.add_var(Interval(0, 50));
    const Var y = s.add_var(Interval(0, 50));
    s.add_eq({{x, 6}, {y, -9}}, 1);
    Solver solver;
    EXPECT_EQ(solver.solve(s, nullptr), Result::kUnsat);
  }
}

TEST(FmeEdge, ManySmallComponents) {
  System s;
  std::vector<Var> vars;
  for (int i = 0; i < 30; ++i) {
    const Var a = s.add_var(Interval(0, 9));
    const Var b = s.add_var(Interval(0, 9));
    s.add_eq({{a, 1}, {b, -1}}, i % 5);  // a = b + (i mod 5)
    vars.push_back(a);
    vars.push_back(b);
  }
  Solver solver;
  std::vector<std::int64_t> model;
  ASSERT_EQ(solver.solve(s, &model), Result::kSat);
  for (int i = 0; i < 30; ++i)
    EXPECT_EQ(model[vars[2 * i]] - model[vars[2 * i + 1]], i % 5);
}

TEST(FmeEdge, NegativeBoundsWork) {
  // The solver is not restricted to circuit domains.
  System s;
  const Var x = s.add_var(Interval(-50, 50));
  const Var y = s.add_var(Interval(-50, 50));
  s.add_le({{x, 1}, {y, 1}}, -60);  // forces both deep negative
  Solver solver;
  std::vector<std::int64_t> model;
  ASSERT_EQ(solver.solve(s, &model), Result::kSat);
  EXPECT_LE(model[x] + model[y], -60);
}

TEST(FmeEdge, StatsExported) {
  System s;
  const Var x = s.add_var(Interval(0, 10));
  s.add_le({{x, 2}}, 7);
  Solver solver;
  ASSERT_EQ(solver.solve(s, nullptr), Result::kSat);
  EXPECT_EQ(solver.stats().get("fme.calls"), 1);
}

}  // namespace
}  // namespace rtlsat::fme

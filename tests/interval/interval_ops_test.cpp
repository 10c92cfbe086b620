#include "interval/interval_ops.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace rtlsat::iops {
namespace {

// ------------------------------------------------------------- forward

TEST(Forward, Add) {
  EXPECT_EQ(fwd_add(Interval(1, 3), Interval(10, 20)), Interval(11, 23));
  EXPECT_TRUE(fwd_add(Interval::empty(), Interval(0, 1)).is_empty());
}

TEST(Forward, Sub) {
  EXPECT_EQ(fwd_sub(Interval(5, 9), Interval(1, 3)), Interval(2, 8));
}

TEST(Forward, Neg) {
  EXPECT_EQ(fwd_neg(Interval(2, 5)), Interval(-5, -2));
}

TEST(Forward, MulConst) {
  EXPECT_EQ(fwd_mul_const(Interval(1, 4), 3), Interval(3, 12));
  EXPECT_EQ(fwd_mul_const(Interval(1, 4), -2), Interval(-8, -2));
  EXPECT_EQ(fwd_mul_const(Interval(1, 4), 0), Interval::point(0));
}

TEST(Forward, NotComplementsWithinWidth) {
  EXPECT_EQ(fwd_not(Interval(0, 0), 1), Interval::point(1));
  EXPECT_EQ(fwd_not(Interval(3, 10), 4), Interval(5, 12));
}

TEST(Forward, ModExactWhenNoWrap) {
  EXPECT_EQ(fwd_mod(Interval(17, 19), 16), Interval(1, 3));
  EXPECT_EQ(fwd_mod(Interval(3, 5), 16), Interval(3, 5));
}

TEST(Forward, ModFullWhenWrapping) {
  EXPECT_EQ(fwd_mod(Interval(14, 18), 16), Interval(0, 15));
  EXPECT_EQ(fwd_mod(Interval(0, 100), 16), Interval(0, 15));
}

TEST(Forward, Lshr) {
  EXPECT_EQ(fwd_lshr(Interval(8, 23), 2), Interval(2, 5));
  EXPECT_EQ(fwd_lshr(Interval(0, 3), 2), Interval(0, 0));
}

TEST(Forward, ShlWrapsAtWidth) {
  EXPECT_EQ(fwd_shl(Interval(1, 3), 2, 8), Interval(4, 12));
  // 3 << 2 = 12 within width 4 is fine, but 7 << 2 = 28 wraps.
  EXPECT_EQ(fwd_shl(Interval(7, 7), 2, 4), Interval::point(12));
}

TEST(Forward, ConcatComposesValues) {
  // hi=⟨2⟩, lo=⟨1,3⟩, low width 4 ⟹ z ∈ ⟨33,35⟩.
  EXPECT_EQ(fwd_concat(Interval::point(2), Interval(1, 3), 4),
            Interval(33, 35));
}

TEST(Forward, Extract) {
  // bits [3:2] of 0b1101 (13) = 0b11 = 3.
  EXPECT_EQ(fwd_extract(Interval::point(13), 3, 2), Interval::point(3));
  // Wide operand covers all field values.
  EXPECT_EQ(fwd_extract(Interval(0, 255), 3, 2), Interval(0, 3));
}

TEST(Forward, MinMax) {
  EXPECT_EQ(fwd_min(Interval(2, 9), Interval(4, 6)), Interval(2, 6));
  EXPECT_EQ(fwd_max(Interval(2, 9), Interval(4, 6)), Interval(4, 9));
}

TEST(Forward, AddWrap) {
  EXPECT_EQ(fwd_add_wrap(Interval(250, 252), Interval(10, 10), 8),
            Interval(4, 6));
  EXPECT_EQ(fwd_add_wrap(Interval(0, 200), Interval(0, 200), 8),
            Interval(0, 255));
}

TEST(Forward, SubWrap) {
  EXPECT_EQ(fwd_sub_wrap(Interval(2, 4), Interval(10, 10), 8),
            Interval(248, 250));
}

TEST(Forward, ComparisonsThreeValued) {
  EXPECT_EQ(fwd_lt(Interval(0, 3), Interval(4, 9)), Interval::point(1));
  EXPECT_EQ(fwd_lt(Interval(4, 9), Interval(0, 4)), Interval::point(0));
  EXPECT_EQ(fwd_lt(Interval(0, 5), Interval(3, 9)), Interval::booleans());
  EXPECT_EQ(fwd_le(Interval(0, 3), Interval(3, 9)), Interval::point(1));
  EXPECT_EQ(fwd_eq(Interval::point(3), Interval::point(3)), Interval::point(1));
  EXPECT_EQ(fwd_eq(Interval(0, 2), Interval(3, 5)), Interval::point(0));
  EXPECT_EQ(fwd_eq(Interval(0, 3), Interval(3, 5)), Interval::booleans());
}

// ------------------------------------------------------------- backward

TEST(Backward, AddInverse) {
  // z = x + y, z ∈ ⟨10,12⟩, y ∈ ⟨4,5⟩ ⟹ x ∈ ⟨5,8⟩.
  EXPECT_EQ(back_add_x(Interval(10, 12), Interval(4, 5)), Interval(5, 8));
}

TEST(Backward, SubInverse) {
  // z = x − y: x ⊇ z + y; y ⊇ x − z.
  EXPECT_EQ(back_sub_x(Interval(2, 3), Interval(1, 1)), Interval(3, 4));
  EXPECT_EQ(back_sub_y(Interval(2, 3), Interval(10, 10)), Interval(7, 8));
}

TEST(Backward, MulConstRoundsInward) {
  // 3x ∈ ⟨7,11⟩ ⟹ x ∈ ⟨3,3⟩ (only 9 is a multiple of 3 in range).
  EXPECT_EQ(back_mul_const(Interval(7, 11), 3), Interval(3, 3));
  EXPECT_EQ(back_mul_const(Interval(6, 12), 3), Interval(2, 4));
  // Negative k: −2x ∈ ⟨−8,−4⟩ ⟹ x ∈ ⟨2,4⟩.
  EXPECT_EQ(back_mul_const(Interval(-8, -4), -2), Interval(2, 4));
}

TEST(Backward, Lshr) {
  // floor(x/4) ∈ ⟨2,3⟩ ⟹ x ∈ ⟨8,15⟩.
  EXPECT_EQ(back_lshr(Interval(2, 3), 2), Interval(8, 15));
}

TEST(Backward, AddWrapBranches) {
  // 8-bit: z = x + y (mod 256), z=⟨5⟩, y=⟨10⟩ ⟹ x = −5 or 251 ⟹ 251.
  EXPECT_EQ(back_add_wrap_x(Interval::point(5), Interval::point(10),
                            Interval(0, 255), 8),
            Interval::point(251));
  // No wrap case: z=⟨30⟩, y=⟨10⟩ ⟹ x=20.
  EXPECT_EQ(back_add_wrap_x(Interval::point(30), Interval::point(10),
                            Interval(0, 255), 8),
            Interval::point(20));
}

TEST(Backward, SubWrapBranches) {
  // z = x − y mod 256, z=⟨250⟩, y=⟨10⟩ ⟹ x = 260 or 4 ⟹ 4.
  EXPECT_EQ(back_sub_wrap_x(Interval::point(250), Interval::point(10),
                            Interval(0, 255), 8),
            Interval::point(4));
  // y side: z=⟨250⟩, x=⟨4⟩ ⟹ y = −246 or 10 ⟹ 10.
  EXPECT_EQ(back_sub_wrap_y(Interval::point(250), Interval::point(4),
                            Interval(0, 255), 8),
            Interval::point(10));
}

TEST(Backward, ConcatParts) {
  // z = hi·16 + lo, z ∈ ⟨33,35⟩ ⟹ hi ∈ ⟨2,2⟩ and (hi=2) lo ∈ ⟨1,3⟩.
  EXPECT_EQ(back_concat_hi(Interval(33, 35), 4), Interval(2, 2));
  EXPECT_EQ(back_concat_lo(Interval(33, 35), Interval::point(2),
                           Interval(0, 15), 4),
            Interval(1, 3));
}

TEST(Backward, ExtractExactWhenOuterBitsFixed) {
  // x ∈ ⟨12,15⟩ = 0b11xx: field [1:0] ∈ ⟨1,2⟩ ⟹ x ∈ ⟨13,14⟩.
  EXPECT_EQ(back_extract(Interval(1, 2), Interval(12, 15), 1, 0),
            Interval(13, 14));
}

TEST(Backward, ExtractConflictDetected) {
  // x ∈ ⟨0,3⟩ has bits [3:2] = 0 always; requiring the field = 2 is empty.
  EXPECT_TRUE(back_extract(Interval::point(2), Interval(0, 3), 3, 2).is_empty());
}

TEST(Backward, ExtractSoundNoOpWhenAmbiguous) {
  const Interval x(0, 255);
  EXPECT_EQ(back_extract(Interval::point(1), x, 3, 2), x);
}

TEST(Backward, MinNarrows) {
  // z = min(x,y) = ⟨5,6⟩ with y ∈ ⟨9,12⟩ (cannot reach 6) ⟹ x ∈ ⟨5,6⟩.
  EXPECT_EQ(back_min_x(Interval(5, 6), Interval(9, 12), Interval(0, 255)),
            Interval(5, 6));
  // If y could supply the minimum, x is only bounded below.
  EXPECT_EQ(back_min_x(Interval(5, 6), Interval(5, 12), Interval(0, 255)),
            Interval(5, 255));
}

TEST(Backward, MaxNarrows) {
  EXPECT_EQ(back_max_x(Interval(5, 6), Interval(0, 3), Interval(0, 255)),
            Interval(5, 6));
}

// -------------------------------------------------- comparator narrowing

TEST(Narrow, LtMatchesPaperEquation3) {
  // Paper example: x − z < 0, x ∈ ⟨0,15⟩, z ∈ ⟨0,15⟩ ⟹ x ∈ ⟨0,14⟩, z ∈ ⟨1,15⟩.
  const Pair p = narrow_lt(Interval(0, 15), Interval(0, 15));
  EXPECT_EQ(p.x, Interval(0, 14));
  EXPECT_EQ(p.y, Interval(1, 15));
}

TEST(Narrow, LtEmptyWhenImpossible) {
  const Pair p = narrow_lt(Interval(9, 12), Interval(0, 5));
  EXPECT_TRUE(p.x.is_empty());
  EXPECT_TRUE(p.y.is_empty());
}

TEST(Narrow, Le) {
  const Pair p = narrow_le(Interval(0, 15), Interval(3, 7));
  EXPECT_EQ(p.x, Interval(0, 7));
  EXPECT_EQ(p.y, Interval(3, 7));
}

TEST(Narrow, EqIntersectsBoth) {
  const Pair p = narrow_eq(Interval(0, 8), Interval(5, 20));
  EXPECT_EQ(p.x, Interval(5, 8));
  EXPECT_EQ(p.y, Interval(5, 8));
}

TEST(Narrow, NeTrimsPointAtBoundary) {
  const Pair p = narrow_ne(Interval(3, 8), Interval::point(3));
  EXPECT_EQ(p.x, Interval(4, 8));
  EXPECT_EQ(p.y, Interval::point(3));
}

// ------------------------------------------- randomized soundness sweeps

// Both fields are 64-bit so the struct has no padding: gtest prints the
// parameter as raw bytes into the test name, and uninitialised padding would
// make that name change from build to build.
struct WrapCase {
  std::int64_t width;
  std::uint64_t seed;
};

class WrapSoundness : public ::testing::TestWithParam<WrapCase> {};

// Forward wrap rules must cover every concrete outcome; backward rules must
// never exclude a participating value.
TEST_P(WrapSoundness, AddSubRandomized) {
  const int width = static_cast<int>(GetParam().width);
  Rng rng(GetParam().seed);
  const std::int64_t m = std::int64_t{1} << width;
  for (int iter = 0; iter < 300; ++iter) {
    auto rand_iv = [&]() {
      std::int64_t a = rng.range(0, m - 1);
      std::int64_t b = rng.range(0, m - 1);
      if (a > b) std::swap(a, b);
      return Interval(a, b);
    };
    const Interval x = rand_iv(), y = rand_iv();
    const Interval zs = fwd_add_wrap(x, y, width);
    const Interval zd = fwd_sub_wrap(x, y, width);
    // Sample concrete points and check membership.
    for (int s = 0; s < 10; ++s) {
      const std::int64_t xv = rng.range(x.lo(), x.hi());
      const std::int64_t yv = rng.range(y.lo(), y.hi());
      ASSERT_TRUE(zs.contains((xv + yv) % m));
      ASSERT_TRUE(zd.contains(((xv - yv) % m + m) % m));
      // Backward soundness: xv must survive narrowing by (z=exact sum).
      const Interval back = back_add_wrap_x(Interval::point((xv + yv) % m),
                                            Interval::point(yv), x, width);
      ASSERT_TRUE(back.contains(xv));
    }
  }
}

// Widths ≤ 5 are covered exhaustively (every interval pair, every value) in
// interval_exhaustive_test.cpp; the randomized sweep only earns its keep at
// widths the enumeration cannot reach.
INSTANTIATE_TEST_SUITE_P(Widths, WrapSoundness,
                         ::testing::Values(WrapCase{8, 33}, WrapCase{10, 44},
                                           WrapCase{24, 55}, WrapCase{52, 66}));

}  // namespace
}  // namespace rtlsat::iops

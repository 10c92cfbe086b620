// Forward evaluation and backward (inverse) narrowing rules for interval
// constraint propagation (paper §2.2, Eq. (1)–(3)).
//
// Forward rules compute the tightest interval for an operator's result from
// its operand intervals. Backward rules narrow an operand given the result
// interval — e.g. Eq. (3): from x − z < 0, x ∈ ⟨x̲, min(x̄, z̄−1)⟩ and
// z ∈ ⟨max(z̲, x̲+1), z̄⟩. All rules are sound over-approximations and
// monotonic (they only ever shrink intervals), which is what guarantees the
// propagation fixpoint terminates on finite domains.
//
// Wrapping (modular) variants model RTL adders/subtractors of width w,
// where the mathematical sum is reduced mod m = 2^w.
//
// Every rule is defined inline here: the propagation rules of prop/rules.h
// call several per operator on every rule call, and inlined they compile to
// straight-line code.
#pragma once

#include <algorithm>

#include "interval/interval.h"

namespace rtlsat::iops {

using V = Interval::Value;

namespace detail {

inline V pow2(int k) {
  RTLSAT_ASSERT(k >= 0 && k <= 60);
  return V{1} << k;
}

// Floor/ceil division for signed operands, divisor > 0.
inline V div_floor(V a, V b) {
  RTLSAT_ASSERT(b > 0);
  V q = a / b;
  if (a % b != 0 && a < 0) --q;
  return q;
}
inline V div_ceil(V a, V b) {
  RTLSAT_ASSERT(b > 0);
  V q = a / b;
  if (a % b != 0 && a > 0) ++q;
  return q;
}

inline V mod_floor(V a, V m) {
  RTLSAT_ASSERT(m > 0);
  V r = a % m;
  if (r < 0) r += m;
  return r;
}

}  // namespace detail

// ---------------------------------------------------------------- forward

inline Interval fwd_add(const Interval& x, const Interval& y) {
  if (x.is_empty() || y.is_empty()) return Interval::empty();
  return Interval(sat_add(x.lo(), y.lo()), sat_add(x.hi(), y.hi()));
}

inline Interval fwd_sub(const Interval& x, const Interval& y) {
  if (x.is_empty() || y.is_empty()) return Interval::empty();
  return Interval(sat_sub(x.lo(), y.hi()), sat_sub(x.hi(), y.lo()));
}

inline Interval fwd_neg(const Interval& x) {
  if (x.is_empty()) return Interval::empty();
  return Interval(sat_sub(0, x.hi()), sat_sub(0, x.lo()));
}

inline Interval fwd_mul_const(const Interval& x, V k) {
  if (x.is_empty()) return Interval::empty();
  if (k == 0) return Interval::point(0);
  const V a = sat_mul(x.lo(), k);
  const V b = sat_mul(x.hi(), k);
  return k > 0 ? Interval(a, b) : Interval(b, a);
}

// Bitwise complement of an unsigned w-bit value: 2^w − 1 − x.
inline Interval fwd_not(const Interval& x, int width) {
  if (x.is_empty()) return Interval::empty();
  const V top = detail::pow2(width) - 1;
  return Interval(top - x.hi(), top - x.lo());
}

// z = x mod m for m ≥ 1 (x may be any interval; handles negatives). An x
// endpoint on a saturation rail (see endpoint_saturated) yields the full
// ⟨0, m−1⟩: a saturated interval's length is unreliable — distinct true
// values collapsed onto the rail can make x look like a point — so the
// exact same-residue fast path must not fire.
inline Interval fwd_mod(const Interval& x, V m) {
  RTLSAT_ASSERT(m >= 1);
  if (x.is_empty()) return Interval::empty();
  if (endpoint_saturated(x.lo()) || endpoint_saturated(x.hi()))
    return Interval(0, m - 1);
  if (x.count() >= static_cast<std::uint64_t>(m)) return Interval(0, m - 1);
  const V rlo = detail::mod_floor(x.lo(), m);
  const V rhi = detail::mod_floor(x.hi(), m);
  // Same residue block and no wrap → exact; otherwise the value set wraps
  // past m−1 and the tightest single interval is the full range.
  if (rlo <= rhi && rhi - rlo == x.hi() - x.lo()) return Interval(rlo, rhi);
  return Interval(0, m - 1);
}

// z = floor(x / 2^k) for x ≥ 0.
inline Interval fwd_lshr(const Interval& x, int k) {
  if (x.is_empty()) return Interval::empty();
  RTLSAT_ASSERT(x.lo() >= 0);
  const V m = detail::pow2(k);
  return Interval(detail::div_floor(x.lo(), m), detail::div_floor(x.hi(), m));
}

// z = (x · 2^k) mod 2^width — a left shift that drops overflowing bits.
inline Interval fwd_shl(const Interval& x, int k, int width) {
  return fwd_mod(fwd_mul_const(x, detail::pow2(k)), detail::pow2(width));
}

// z = hi-part · 2^low_width + lo-part.
inline Interval fwd_concat(const Interval& hi_part, const Interval& lo_part,
                           int low_width) {
  const Interval sum =
      fwd_add(fwd_mul_const(hi_part, detail::pow2(low_width)), lo_part);
  // If the shift-and-add saturated, the lower endpoint may have been pushed
  // *up* onto the rail — an unsound lower bound. Give up on precision and
  // return the whole representable range (callers intersect with the net's
  // domain anyway). Unreachable for in-width circuit operands
  // (hi·2^lw + lo < 2^60); this guards direct API use.
  if (!sum.is_empty() &&
      (endpoint_saturated(sum.lo()) || endpoint_saturated(sum.hi())))
    return Interval(kSatMin, kSatMax);
  return sum;
}

// z = bits [hi_bit : lo_bit] of x (x ≥ 0).
inline Interval fwd_extract(const Interval& x, int hi_bit, int lo_bit) {
  RTLSAT_ASSERT(hi_bit >= lo_bit && lo_bit >= 0);
  return fwd_mod(fwd_lshr(x, lo_bit), detail::pow2(hi_bit - lo_bit + 1));
}

inline Interval fwd_min(const Interval& x, const Interval& y) {
  if (x.is_empty() || y.is_empty()) return Interval::empty();
  return Interval(std::min(x.lo(), y.lo()), std::min(x.hi(), y.hi()));
}

inline Interval fwd_max(const Interval& x, const Interval& y) {
  if (x.is_empty() || y.is_empty()) return Interval::empty();
  return Interval(std::max(x.lo(), y.lo()), std::max(x.hi(), y.hi()));
}

// Wrapping add/sub of unsigned w-bit operands.
inline Interval fwd_add_wrap(const Interval& x, const Interval& y, int width) {
  return fwd_mod(fwd_add(x, y), detail::pow2(width));
}

inline Interval fwd_sub_wrap(const Interval& x, const Interval& y, int width) {
  return fwd_mod(fwd_sub(x, y), detail::pow2(width));
}

// Three-valued result of comparing two intervals: ⟨1,1⟩ definitely true,
// ⟨0,0⟩ definitely false, ⟨0,1⟩ unknown.
inline Interval fwd_eq(const Interval& x, const Interval& y) {
  if (x.is_empty() || y.is_empty()) return Interval::empty();
  if (!x.intersects(y)) return Interval::point(0);
  if (x.is_point() && x == y) return Interval::point(1);
  return Interval::booleans();
}

inline Interval fwd_lt(const Interval& x, const Interval& y) {
  if (x.is_empty() || y.is_empty()) return Interval::empty();
  if (x.hi() < y.lo()) return Interval::point(1);
  if (x.lo() >= y.hi()) return Interval::point(0);
  return Interval::booleans();
}

inline Interval fwd_le(const Interval& x, const Interval& y) {
  if (x.is_empty() || y.is_empty()) return Interval::empty();
  if (x.hi() <= y.lo()) return Interval::point(1);
  if (x.lo() > y.hi()) return Interval::point(0);
  return Interval::booleans();
}

// --------------------------------------------------------------- backward
//
// Each back_* narrows the named operand given the result interval z and the
// other operand's current interval; the return value must be intersected
// with the operand's current interval by the caller (the rules already do
// that where it is free). An empty result signals a conflict.

// z = x + y (exact): x ⊇ z − y.
inline Interval back_add_x(const Interval& z, const Interval& y) {
  return fwd_sub(z, y);
}

// z = x − y (exact): x ⊇ z + y, y ⊇ x − z.
inline Interval back_sub_x(const Interval& z, const Interval& y) {
  return fwd_add(z, y);
}
inline Interval back_sub_y(const Interval& z, const Interval& x) {
  return fwd_sub(x, z);
}

// z = −x.
inline Interval back_neg(const Interval& z) { return fwd_neg(z); }

// z = k·x, k ≠ 0: x ⊇ { v : k·v ∈ z }.
inline Interval back_mul_const(const Interval& z, V k) {
  RTLSAT_ASSERT(k != 0);
  if (z.is_empty()) return Interval::empty();
  if (k > 0)
    return Interval(detail::div_ceil(z.lo(), k), detail::div_floor(z.hi(), k));
  // k < 0: k·x ∈ z ⟺ (−k)·(−x) ∈ z ⟺ −x ∈ back_mul_const(z, −k).
  return fwd_neg(back_mul_const(z, -k));
}

// z = 2^w − 1 − x.
inline Interval back_not(const Interval& z, int width) {
  return fwd_not(z, width);
}

// z = floor(x / 2^k): x ⊇ [z̲·2^k, z̄·2^k + 2^k − 1].
inline Interval back_lshr(const Interval& z, int k) {
  if (z.is_empty()) return Interval::empty();
  const V m = detail::pow2(k);
  return Interval(sat_mul(z.lo(), m), sat_add(sat_mul(z.hi(), m), m - 1));
}

namespace detail {
// x ⊇ (base ∪ base±m) ∩ x_cur, as a hull of the candidate branches — the
// standard sound treatment for modular arithmetic over a single interval.
inline Interval wrap_candidates(const Interval& base, const Interval& x_cur,
                                V m) {
  const Interval c0 = base.intersect(x_cur);
  const Interval c1 = fwd_add(base, Interval::point(m)).intersect(x_cur);
  const Interval c2 = fwd_sub(base, Interval::point(m)).intersect(x_cur);
  return c0.hull(c1).hull(c2);
}
}  // namespace detail

// z = (x + y) mod 2^width with x, y in-width: narrows x (x + y = z or
// z + 2^w; in-width operands make larger multiples impossible).
inline Interval back_add_wrap_x(const Interval& z, const Interval& y,
                                const Interval& x_cur, int width) {
  return detail::wrap_candidates(fwd_sub(z, y), x_cur, detail::pow2(width));
}

// z = (x − y) mod 2^width: narrows x (x ⊇ z + y possibly − 2^w).
inline Interval back_sub_wrap_x(const Interval& z, const Interval& y,
                                const Interval& x_cur, int width) {
  return detail::wrap_candidates(fwd_add(z, y), x_cur, detail::pow2(width));
}

// z = (x − y) mod 2^width: narrows y (y ⊇ x − z possibly + 2^w).
inline Interval back_sub_wrap_y(const Interval& z, const Interval& x,
                                const Interval& y_cur, int width) {
  return detail::wrap_candidates(fwd_sub(x, z), y_cur, detail::pow2(width));
}

// z = concat(hi, lo): narrow the parts.
inline Interval back_concat_hi(const Interval& z, int low_width) {
  return fwd_lshr(z, low_width);
}

// lo = z − hi·2^lw; exact when hi is a point, else bound by the extremes.
inline Interval back_concat_lo(const Interval& z, const Interval& hi_cur,
                               const Interval& lo_cur, int low_width) {
  const Interval shifted = fwd_mul_const(hi_cur, detail::pow2(low_width));
  return fwd_sub(z, shifted).intersect(lo_cur);
}

// z = extract(x, hi_bit, lo_bit): narrows x only when the untouched bits of
// x are already fixed; otherwise returns x_cur (sound no-op). Well-defined
// for any lo_bit ≤ 60 and field width ≤ 60 even when lo_bit + field width
// exceeds 62 (the window arithmetic saturates instead of overflowing).
inline Interval back_extract(const Interval& z, const Interval& x_cur,
                             int hi_bit, int lo_bit) {
  if (z.is_empty() || x_cur.is_empty()) return Interval::empty();
  const V block = detail::pow2(lo_bit);
  const V span = detail::pow2(hi_bit - lo_bit + 1);
  // window = 2^(hi_bit+1) overflows a raw signed multiply once
  // lo_bit + field_width > 62; saturate instead. A saturated window exceeds
  // every representable x, so the whole axis is one base-0 window and the
  // divisions below still answer 0 — the recomposition just must not
  // multiply or add through the rail unguarded.
  const V window = sat_mul(block, span);
  // Exact inversion when the field is the low end of the word (lo_bit = 0)
  // and x_cur stays inside one aligned window (fixed high bits): then
  // x = base + field, contiguous in the field value.
  if (lo_bit == 0 && detail::div_floor(x_cur.lo(), window) ==
                         detail::div_floor(x_cur.hi(), window)) {
    const V base = sat_mul(detail::div_floor(x_cur.lo(), window), window);
    return Interval(sat_add(base, z.lo()), sat_add(base, z.hi()))
        .intersect(x_cur);
  }
  // General sound bound: x must contain *some* value whose field is in z.
  // If even the loosest containment fails, conflict; else keep x_cur.
  const Interval field = fwd_extract(x_cur, hi_bit, lo_bit);
  if (!field.intersects(z)) return Interval::empty();
  return x_cur;
}

// z = min(x,y): narrows x. x ≥ z̲ always; and if y cannot reach down to z̄
// then x must itself produce the minimum, so x ≤ z̄.
inline Interval back_min_x(const Interval& z, const Interval& y,
                           const Interval& x_cur) {
  if (z.is_empty()) return Interval::empty();
  Interval x = x_cur.at_least(z.lo());
  if (y.lo() > z.hi()) x = x.at_most(z.hi());
  return x;
}

// z = max(x,y): narrows x (the mirror image of back_min_x).
inline Interval back_max_x(const Interval& z, const Interval& y,
                           const Interval& x_cur) {
  if (z.is_empty()) return Interval::empty();
  Interval x = x_cur.at_most(z.hi());
  if (y.hi() < z.lo()) x = x.at_least(z.lo());
  return x;
}

// ------------------------------------------------- comparator narrowings
//
// Apply a now-known comparison outcome to both operands (Eq. (3) family).
// Results are the narrowed (x, y) pair.

struct Pair {
  Interval x, y;
};

// Assert x < y. Eq. (3): x ∈ ⟨x̲, min(x̄, ȳ−1)⟩, y ∈ ⟨max(y̲, x̲+1), ȳ⟩.
inline Pair narrow_lt(const Interval& x, const Interval& y) {
  if (x.is_empty() || y.is_empty()) return {Interval::empty(), Interval::empty()};
  return {x.at_most(sat_sub(y.hi(), 1)), y.at_least(sat_add(x.lo(), 1))};
}

// Assert x ≤ y.
inline Pair narrow_le(const Interval& x, const Interval& y) {
  return {x.at_most(y.hi()), y.at_least(x.lo())};
}

// Assert x = y.
inline Pair narrow_eq(const Interval& x, const Interval& y) {
  const Interval both = x.intersect(y);
  return {both, both};
}

// Assert x ≠ y: only a point on the other side can trim an interval end.
inline Pair narrow_ne(const Interval& x, const Interval& y) {
  Interval nx = x, ny = y;
  if (y.is_point()) nx = nx.minus(y);
  if (x.is_point()) ny = ny.minus(x);
  return {nx, ny};
}

}  // namespace rtlsat::iops

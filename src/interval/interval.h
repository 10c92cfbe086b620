// Closed integer intervals ⟨lo,hi⟩ (paper §2.1/§2.2).
//
// A domain D(v) maps a variable to a finite set of integers represented as
// one closed interval. A Boolean variable has domain ⟨0,1⟩; a word variable
// of bit-width w has domain ⟨0, 2^w − 1⟩. The empty interval is the
// canonical ⟨1,0⟩ so that equality comparison is structural.
//
// All arithmetic saturates at the int64 representable range via __int128
// intermediates; circuit widths are capped (ir::kMaxWidth = 60) well below
// that, so saturation never occurs for in-range circuit values — it only
// keeps intermediate expressions defined.
//
// Everything but to_string() is constexpr and defined here, like the rules
// of interval_ops.h built on it: propagation calls them on every rule call.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "util/assert.h"

namespace rtlsat {

class Interval {
 public:
  using Value = std::int64_t;

  // Default: the empty interval.
  constexpr Interval() : lo_(1), hi_(0) {}
  constexpr Interval(Value lo, Value hi) : lo_(lo), hi_(hi) {
    if (lo_ > hi_) {  // canonicalize every empty form to ⟨1,0⟩
      lo_ = 1;
      hi_ = 0;
    }
  }

  static constexpr Interval empty() { return Interval(); }
  static constexpr Interval point(Value v) { return Interval(v, v); }
  static constexpr Interval booleans() { return Interval(0, 1); }

  // Full domain of an unsigned bit-width w (w in [1,60]).
  static Interval full_width(int width) {
    RTLSAT_ASSERT(width >= 1 && width <= 60);
    return Interval(0, (Value{1} << width) - 1);
  }

  constexpr Value lo() const { return lo_; }
  constexpr Value hi() const { return hi_; }

  constexpr bool is_empty() const { return lo_ > hi_; }
  constexpr bool is_point() const { return lo_ == hi_; }
  // Number of integers contained; 0 for empty.
  constexpr std::uint64_t count() const {
    return is_empty() ? 0
                      : static_cast<std::uint64_t>(hi_) -
                            static_cast<std::uint64_t>(lo_) + 1;
  }

  constexpr bool contains(Value v) const { return lo_ <= v && v <= hi_; }
  constexpr bool contains(const Interval& other) const {
    return other.is_empty() || (lo_ <= other.lo_ && other.hi_ <= hi_);
  }
  constexpr bool intersects(const Interval& other) const {
    return !is_empty() && !other.is_empty() && lo_ <= other.hi_ &&
           other.lo_ <= hi_;
  }

  constexpr Interval intersect(const Interval& other) const {
    if (is_empty() || other.is_empty()) return empty();
    return Interval(lo_ > other.lo_ ? lo_ : other.lo_,
                    hi_ < other.hi_ ? hi_ : other.hi_);
  }

  // Smallest interval containing both (interval union hull).
  constexpr Interval hull(const Interval& other) const {
    if (is_empty()) return other;
    if (other.is_empty()) return *this;
    return Interval(lo_ < other.lo_ ? lo_ : other.lo_,
                    hi_ > other.hi_ ? hi_ : other.hi_);
  }

  // The part of *this strictly below/above v (used by comparator rules).
  constexpr Interval below(Value v) const {  // ∩ (−∞, v)
    if (is_empty() || lo_ >= v) return empty();
    return Interval(lo_, hi_ < v - 1 ? hi_ : v - 1);
  }
  constexpr Interval above(Value v) const {  // ∩ (v, ∞)
    if (is_empty() || hi_ <= v) return empty();
    return Interval(lo_ > v + 1 ? lo_ : v + 1, hi_);
  }
  // Direct forms, not below(v+1)/above(v−1): v can sit on a saturation
  // rail (INT64_MIN/MAX), where the ±1 would be signed overflow.
  constexpr Interval at_most(Value v) const {  // ∩ (−∞, v]
    if (is_empty() || lo_ > v) return empty();
    return Interval(lo_, hi_ < v ? hi_ : v);
  }
  constexpr Interval at_least(Value v) const {  // ∩ [v, ∞)
    if (is_empty() || hi_ < v) return empty();
    return Interval(lo_ > v ? lo_ : v, hi_);
  }

  // Set difference *this \ other when the result is a single interval.
  // If `other` splits *this in the middle, returns *this unchanged (a sound
  // over-approximation; the standard treatment for interval domains).
  constexpr Interval minus(const Interval& other) const {
    if (!intersects(other)) return *this;
    const bool cuts_low = other.lo_ <= lo_;
    const bool cuts_high = other.hi_ >= hi_;
    if (cuts_low && cuts_high) return empty();
    if (cuts_low) return Interval(other.hi_ + 1, hi_);
    if (cuts_high) return Interval(lo_, other.lo_ - 1);
    return *this;  // hole strictly inside: not representable, keep as-is
  }

  friend constexpr bool operator==(const Interval& a, const Interval& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_;
  }
  friend constexpr bool operator!=(const Interval& a, const Interval& b) {
    return !(a == b);
  }

  // "⟨lo,hi⟩", "⟨v⟩" for points, "∅" for empty — matching the paper's style.
  std::string to_string() const;

 private:
  Value lo_;
  Value hi_;
};

// The saturation rails of the helpers below. An endpoint sitting on a rail
// means "the true value did not fit in int64": the interval's *length* can
// no longer be trusted (two distinct true values may have collapsed onto
// the same rail), so range-arithmetic fast paths that reason from
// hi − lo — e.g. fwd_mod's same-residue-block test — must treat such
// intervals conservatively. A genuine value equal to the rail is
// indistinguishable from a saturated one; treating it as saturated only
// costs precision, never soundness.
inline constexpr Interval::Value kSatMin =
    std::numeric_limits<Interval::Value>::min();
inline constexpr Interval::Value kSatMax =
    std::numeric_limits<Interval::Value>::max();
constexpr bool endpoint_saturated(Interval::Value v) {
  return v == kSatMin || v == kSatMax;
}

// Saturating int64 helpers shared by interval_ops, through __int128.
constexpr Interval::Value sat_clamp(__int128 x) {
  if (x < static_cast<__int128>(kSatMin)) return kSatMin;
  if (x > static_cast<__int128>(kSatMax)) return kSatMax;
  return static_cast<Interval::Value>(x);
}
constexpr Interval::Value sat_add(Interval::Value a, Interval::Value b) {
  return sat_clamp(static_cast<__int128>(a) + b);
}
constexpr Interval::Value sat_sub(Interval::Value a, Interval::Value b) {
  return sat_clamp(static_cast<__int128>(a) - b);
}
constexpr Interval::Value sat_mul(Interval::Value a, Interval::Value b) {
  return sat_clamp(static_cast<__int128>(a) * b);
}

}  // namespace rtlsat

#include "prop/rules.h"

#include "interval/interval_ops.h"

namespace rtlsat::prop {

using ir::NetId;
using ir::Op;
namespace io = iops;

namespace {

constexpr Interval kTrue = Interval(1, 1);
constexpr Interval kFalse = Interval(0, 0);

// Emit helper: intersects with the current domain and records only real
// shrinkage (or emptiness, which the engine treats as a conflict).
class Emitter {
 public:
  Emitter(const std::vector<Interval>& domain, std::vector<Narrowing>& out)
      : domain_(domain), out_(out) {}

  void narrow(NetId net, const Interval& to) {
    const Interval next = domain_[net].intersect(to);
    if (next != domain_[net]) out_.push_back({net, next});
  }

  const Interval& dom(NetId net) const { return domain_[net]; }

 private:
  const std::vector<Interval>& domain_;
  std::vector<Narrowing>& out_;
};

// Three-valued view of a Boolean net.
enum class Tri { kFalse, kTrue, kUnknown };

Tri tri(const Interval& iv) {
  if (iv == kTrue) return Tri::kTrue;
  if (iv == kFalse) return Tri::kFalse;
  return Tri::kUnknown;
}

void rule_and(const OpTable& c, NetId id, Emitter& em) {
  const Tri out = tri(em.dom(id));
  int unknown = 0;
  NetId last_unknown = ir::kNoNet;
  bool any_false = false;
  for (NetId o : c.operands(id)) {
    switch (tri(em.dom(o))) {
      case Tri::kFalse: any_false = true; break;
      case Tri::kUnknown: ++unknown; last_unknown = o; break;
      case Tri::kTrue: break;
    }
  }
  if (any_false) {
    em.narrow(id, kFalse);
    return;
  }
  if (unknown == 0) {
    em.narrow(id, kTrue);  // all operands true
    return;
  }
  if (out == Tri::kTrue) {
    for (NetId o : c.operands(id)) em.narrow(o, kTrue);
  } else if (out == Tri::kFalse && unknown == 1) {
    em.narrow(last_unknown, kFalse);  // the only free operand must be 0
  }
}

void rule_or(const OpTable& c, NetId id, Emitter& em) {
  const Tri out = tri(em.dom(id));
  int unknown = 0;
  NetId last_unknown = ir::kNoNet;
  bool any_true = false;
  for (NetId o : c.operands(id)) {
    switch (tri(em.dom(o))) {
      case Tri::kTrue: any_true = true; break;
      case Tri::kUnknown: ++unknown; last_unknown = o; break;
      case Tri::kFalse: break;
    }
  }
  if (any_true) {
    em.narrow(id, kTrue);
    return;
  }
  if (unknown == 0) {
    em.narrow(id, kFalse);
    return;
  }
  if (out == Tri::kFalse) {
    for (NetId o : c.operands(id)) em.narrow(o, kFalse);
  } else if (out == Tri::kTrue && unknown == 1) {
    em.narrow(last_unknown, kTrue);
  }
}

void rule_not(const OpTable& c, NetId id, Emitter& em) {
  const NetId a = c.operands(id)[0];
  em.narrow(id, io::fwd_not(em.dom(a), 1));
  em.narrow(a, io::back_not(em.dom(id), 1));
}

void rule_xor(const OpTable& c, NetId id, Emitter& em) {
  const auto ops = c.operands(id);
  const Tri a = tri(em.dom(ops[0]));
  const Tri b = tri(em.dom(ops[1]));
  const Tri z = tri(em.dom(id));
  auto as_iv = [](bool v) { return v ? kTrue : kFalse; };
  auto known = [](Tri t) { return t != Tri::kUnknown; };
  auto val = [](Tri t) { return t == Tri::kTrue; };
  if (known(a) && known(b)) em.narrow(id, as_iv(val(a) != val(b)));
  if (known(z) && known(a)) em.narrow(ops[1], as_iv(val(z) != val(a)));
  if (known(z) && known(b)) em.narrow(ops[0], as_iv(val(z) != val(b)));
}

void rule_mux(const OpTable& c, NetId id, Emitter& em) {
  const auto ops = c.operands(id);
  const NetId sel = ops[0];
  const NetId t = ops[1];
  const NetId e = ops[2];
  switch (tri(em.dom(sel))) {
    case Tri::kTrue:
      em.narrow(id, em.dom(t));
      em.narrow(t, em.dom(id));
      return;
    case Tri::kFalse:
      em.narrow(id, em.dom(e));
      em.narrow(e, em.dom(id));
      return;
    case Tri::kUnknown:
      break;
  }
  // Select undecided: the output can only come from one of the branches.
  em.narrow(id, em.dom(t).hull(em.dom(e)));
  // Branch incompatible with the required output ⟹ select is forced
  // (this is exactly the §4.2 example: w4∩w2 = ∅ implies the other branch).
  const bool t_possible = em.dom(t).intersects(em.dom(id));
  const bool e_possible = em.dom(e).intersects(em.dom(id));
  if (!t_possible && !e_possible) {
    em.narrow(id, Interval::empty());
  } else if (!t_possible) {
    em.narrow(sel, kFalse);
  } else if (!e_possible) {
    em.narrow(sel, kTrue);
  }
}

void rule_add(const OpTable& c, NetId id, Emitter& em) {
  const auto ops = c.operands(id);
  const NetId a = ops[0];
  const NetId b = ops[1];
  const int w = c.width(id);
  em.narrow(id, io::fwd_add_wrap(em.dom(a), em.dom(b), w));
  em.narrow(a, io::back_add_wrap_x(em.dom(id), em.dom(b), em.dom(a), w));
  em.narrow(b, io::back_add_wrap_x(em.dom(id), em.dom(a), em.dom(b), w));
}

void rule_sub(const OpTable& c, NetId id, Emitter& em) {
  const auto ops = c.operands(id);
  const NetId a = ops[0];
  const NetId b = ops[1];
  const int w = c.width(id);
  em.narrow(id, io::fwd_sub_wrap(em.dom(a), em.dom(b), w));
  em.narrow(a, io::back_sub_wrap_x(em.dom(id), em.dom(b), em.dom(a), w));
  em.narrow(b, io::back_sub_wrap_y(em.dom(id), em.dom(a), em.dom(b), w));
}

void rule_mulc(const OpTable& c, NetId id, Emitter& em) {
  const NetId a = c.operands(id)[0];
  const Interval::Value m = Interval::Value{1} << c.width(id);
  const Interval product = io::fwd_mul_const(em.dom(a), c.imm(id));
  em.narrow(id, io::fwd_mod(product, m));
  // Backward only when the product provably does not wrap.
  if (product.hi() < m)
    em.narrow(a, io::back_mul_const(em.dom(id), c.imm(id)));
}

void rule_shl(const OpTable& c, NetId id, Emitter& em) {
  const NetId a = c.operands(id)[0];
  const int k = static_cast<int>(c.imm(id));
  em.narrow(id, io::fwd_shl(em.dom(a), k, c.width(id)));
  const Interval product =
      io::fwd_mul_const(em.dom(a), Interval::Value{1} << k);
  if (product.hi() < (Interval::Value{1} << c.width(id)))
    em.narrow(a, io::back_mul_const(em.dom(id), Interval::Value{1} << k));
}

void rule_shr(const OpTable& c, NetId id, Emitter& em) {
  const NetId a = c.operands(id)[0];
  const int k = static_cast<int>(c.imm(id));
  em.narrow(id, io::fwd_lshr(em.dom(a), k));
  em.narrow(a, io::back_lshr(em.dom(id), k));
}

void rule_notw(const OpTable& c, NetId id, Emitter& em) {
  const NetId a = c.operands(id)[0];
  em.narrow(id, io::fwd_not(em.dom(a), c.width(id)));
  em.narrow(a, io::back_not(em.dom(id), c.width(id)));
}

void rule_concat(const OpTable& c, NetId id, Emitter& em) {
  const auto ops = c.operands(id);
  const NetId hi = ops[0];
  const NetId lo = ops[1];
  const int lw = c.width(lo);
  em.narrow(id, io::fwd_concat(em.dom(hi), em.dom(lo), lw));
  em.narrow(hi, io::back_concat_hi(em.dom(id), lw));
  em.narrow(lo, io::back_concat_lo(em.dom(id), em.dom(hi), em.dom(lo), lw));
}

void rule_extract(const OpTable& c, NetId id, Emitter& em) {
  const NetId a = c.operands(id)[0];
  const int hi_bit = static_cast<int>(c.imm(id));
  const int lo_bit = c.imm2(id);
  em.narrow(id, io::fwd_extract(em.dom(a), hi_bit, lo_bit));
  em.narrow(a, io::back_extract(em.dom(id), em.dom(a), hi_bit, lo_bit));
}

void rule_zext(const OpTable& c, NetId id, Emitter& em) {
  const NetId a = c.operands(id)[0];
  em.narrow(id, em.dom(a));
  em.narrow(a, em.dom(id));
}

void rule_min(const OpTable& c, NetId id, Emitter& em) {
  const auto ops = c.operands(id);
  const NetId a = ops[0];
  const NetId b = ops[1];
  em.narrow(id, io::fwd_min(em.dom(a), em.dom(b)));
  em.narrow(a, io::back_min_x(em.dom(id), em.dom(b), em.dom(a)));
  em.narrow(b, io::back_min_x(em.dom(id), em.dom(a), em.dom(b)));
}

void rule_max(const OpTable& c, NetId id, Emitter& em) {
  const auto ops = c.operands(id);
  const NetId a = ops[0];
  const NetId b = ops[1];
  em.narrow(id, io::fwd_max(em.dom(a), em.dom(b)));
  em.narrow(a, io::back_max_x(em.dom(id), em.dom(b), em.dom(a)));
  em.narrow(b, io::back_max_x(em.dom(id), em.dom(a), em.dom(b)));
}

// The forward value of comparator `op` on the operand intervals.
Interval fwd_cmp(Op op, const Interval& dx, const Interval& dy) {
  switch (op) {
    case Op::kEq: return io::fwd_eq(dx, dy);
    case Op::kNe: return io::fwd_not(io::fwd_eq(dx, dy), 1);
    case Op::kLt: return io::fwd_lt(dx, dy);
    case Op::kLe: return io::fwd_le(dx, dy);
    default: RTLSAT_UNREACHABLE("not a comparator");
  }
}

void rule_cmp(const OpTable& c, NetId id, Emitter& em) {
  const Op op = c.op(id);
  const auto ops = c.operands(id);
  const NetId x = ops[0];
  const NetId y = ops[1];
  const Interval dx = em.dom(x);
  const Interval dy = em.dom(y);

  // Forward: decide the predicate from the operand intervals when possible.
  em.narrow(id, fwd_cmp(op, dx, dy));

  // Backward: a decided predicate narrows both operands (Eq. (3) family).
  const Tri out = tri(em.dom(id));
  if (out == Tri::kUnknown) return;
  const bool v = out == Tri::kTrue;
  io::Pair p;
  switch (op) {
    case Op::kEq: p = v ? io::narrow_eq(dx, dy) : io::narrow_ne(dx, dy); break;
    case Op::kNe: p = v ? io::narrow_ne(dx, dy) : io::narrow_eq(dx, dy); break;
    case Op::kLt:
      if (v) {
        p = io::narrow_lt(dx, dy);
      } else {  // ¬(x<y) ⟺ y ≤ x
        auto q = io::narrow_le(dy, dx);
        p = {q.y, q.x};
      }
      break;
    case Op::kLe:
      if (v) {
        p = io::narrow_le(dx, dy);
      } else {  // ¬(x≤y) ⟺ y < x
        auto q = io::narrow_lt(dy, dx);
        p = {q.y, q.x};
      }
      break;
    default: RTLSAT_UNREACHABLE("not a comparator");
  }
  em.narrow(x, p.x);
  em.narrow(y, p.y);
}

}  // namespace

void OpTable::extend(const ir::Circuit& circuit) {
  static_assert(sizeof(Entry) == 16);
  for (auto id = static_cast<NetId>(size()); id < circuit.num_nets(); ++id) {
    const ir::Node& n = circuit.node(id);
    RTLSAT_ASSERT(n.width >= 1 && n.width <= ir::kMaxWidth);
    RTLSAT_ASSERT(n.imm2 >= 0 && n.imm2 < ir::kMaxWidth);
    // The end sentinel becomes this net's entry.
    Entry& e = entries_.back();
    e.op = n.op;
    e.width = static_cast<std::uint8_t>(n.width);
    e.imm2 = static_cast<std::uint8_t>(n.imm2);
    e.imm = n.imm;
    operands_.insert(operands_.end(), n.operands.begin(), n.operands.end());
    entries_.push_back({.first = static_cast<std::uint32_t>(operands_.size())});
  }
}

void node_rules(const OpTable& ops, NetId id,
                const std::vector<Interval>& domain,
                std::vector<Narrowing>& out) {
  Emitter em(domain, out);
  switch (ops.op(id)) {
    case Op::kInput: return;
    case Op::kConst: return;  // pinned at initialization
    case Op::kAnd: return rule_and(ops, id, em);
    case Op::kOr: return rule_or(ops, id, em);
    case Op::kNot: return rule_not(ops, id, em);
    case Op::kXor: return rule_xor(ops, id, em);
    case Op::kMux: return rule_mux(ops, id, em);
    case Op::kAdd: return rule_add(ops, id, em);
    case Op::kSub: return rule_sub(ops, id, em);
    case Op::kMulC: return rule_mulc(ops, id, em);
    case Op::kShlC: return rule_shl(ops, id, em);
    case Op::kShrC: return rule_shr(ops, id, em);
    case Op::kNotW: return rule_notw(ops, id, em);
    case Op::kConcat: return rule_concat(ops, id, em);
    case Op::kExtract: return rule_extract(ops, id, em);
    case Op::kZext: return rule_zext(ops, id, em);
    case Op::kMin: return rule_min(ops, id, em);
    case Op::kMax: return rule_max(ops, id, em);
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe: return rule_cmp(ops, id, em);
  }
}

// rule_mux emits nothing iff this is false.
bool mux_may_act(const OpTable& c, NetId id,
                 const std::vector<Interval>& dom) {
  const auto ops = c.operands(id);
  const Interval& out = dom[id];
  switch (tri(dom[ops[0]])) {
    case Tri::kTrue: return out != dom[ops[1]];
    case Tri::kFalse: return out != dom[ops[2]];
    case Tri::kUnknown: break;
  }
  const Interval& t = dom[ops[1]];
  const Interval& e = dom[ops[2]];
  return !t.hull(e).contains(out) || !t.intersects(out) || !e.intersects(out);
}

// rule_cmp emits nothing iff this is false. A decided comparator asserts
// a < b or a ≤ b on its operands (swapped when it is false), and narrow_lt
// / narrow_le move only a.hi (down to b.hi) and b.lo (up to a.lo); a
// forward contradiction always violates the same bounds.
bool cmp_may_act(const OpTable& c, NetId id,
                 const std::vector<Interval>& dom) {
  const Op op = c.op(id);
  const auto ops = c.operands(id);
  const Interval& x = dom[ops[0]];
  const Interval& y = dom[ops[1]];
  const Tri out = tri(dom[id]);
  if (out == Tri::kUnknown) return fwd_cmp(op, x, y).is_point();
  const bool v = out == Tri::kTrue;
  const auto ordered_violated = [](const Interval& a, const Interval& b,
                                   bool strict) {
    return strict ? a.hi() >= b.hi() || a.lo() >= b.lo()
                  : a.hi() > b.hi() || a.lo() > b.lo();
  };
  switch (op) {
    case Op::kLt: return v ? ordered_violated(x, y, true)
                           : ordered_violated(y, x, false);
    case Op::kLe: return v ? ordered_violated(x, y, false)
                           : ordered_violated(y, x, true);
    default: break;
  }
  if (v == (op == Op::kEq)) return x != y;  // narrow_eq: both become x ∩ y
  // narrow_ne trims a point off the other side's ends.
  return (y.is_point() && (y.lo() == x.lo() || y.lo() == x.hi())) ||
         (x.is_point() && (x.lo() == y.lo() || x.lo() == y.hi()));
}

}  // namespace rtlsat::prop

#include "prop/rules.h"

#include <gtest/gtest.h>

namespace rtlsat::prop {
namespace {

using ir::Circuit;
using ir::NetId;

// Applies node_rules for one node against explicit domains and returns the
// narrowings as a map-like vector.
std::vector<Narrowing> run(const Circuit& c, NetId node,
                           std::vector<Interval> dom) {
  std::vector<Narrowing> out;
  node_rules(OpTable(c), node, dom, out);
  return out;
}

Interval narrowed(const std::vector<Narrowing>& out, NetId net,
                  const Interval& fallback) {
  for (const auto& nw : out) {
    if (nw.net == net) return nw.interval;
  }
  return fallback;
}

std::vector<Interval> full_domains(const Circuit& c) {
  std::vector<Interval> dom;
  for (NetId id = 0; id < c.num_nets(); ++id) {
    dom.push_back(c.node(id).op == ir::Op::kConst
                      ? Interval::point(c.node(id).imm)
                      : c.domain(id));
  }
  return dom;
}

TEST(RuleAnd, ForwardFalseDominates) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId g = c.add_and(a, b);
  auto dom = full_domains(c);
  dom[a] = Interval::point(0);
  const auto out = run(c, g, dom);
  EXPECT_EQ(narrowed(out, g, dom[g]), Interval::point(0));
}

TEST(RuleAnd, BackwardOutputTrueForcesInputs) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId g = c.add_and(a, b);
  auto dom = full_domains(c);
  dom[g] = Interval::point(1);
  const auto out = run(c, g, dom);
  EXPECT_EQ(narrowed(out, a, dom[a]), Interval::point(1));
  EXPECT_EQ(narrowed(out, b, dom[b]), Interval::point(1));
}

TEST(RuleAnd, LastFreeInputForcedOnZeroOutput) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId g = c.add_and(a, b);
  auto dom = full_domains(c);
  dom[g] = Interval::point(0);
  dom[a] = Interval::point(1);
  const auto out = run(c, g, dom);
  EXPECT_EQ(narrowed(out, b, dom[b]), Interval::point(0));
}

TEST(RuleOr, UnitPropagation) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId g = c.add_or(a, b);
  auto dom = full_domains(c);
  dom[g] = Interval::point(1);
  dom[a] = Interval::point(0);
  const auto out = run(c, g, dom);
  EXPECT_EQ(narrowed(out, b, dom[b]), Interval::point(1));
}

TEST(RuleXor, InfersThirdFromTwo) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId g = c.add_xor(a, b);
  auto dom = full_domains(c);
  dom[g] = Interval::point(1);
  dom[a] = Interval::point(1);
  const auto out = run(c, g, dom);
  EXPECT_EQ(narrowed(out, b, dom[b]), Interval::point(0));
}

TEST(RuleMux, SelectKnownBindsBranch) {
  Circuit c("t");
  const NetId s = c.add_input("s", 1);
  const NetId t = c.add_input("t", 8);
  const NetId e = c.add_input("e", 8);
  const NetId m = c.add_mux(s, t, e);
  auto dom = full_domains(c);
  dom[s] = Interval::point(1);
  dom[t] = Interval(3, 9);
  dom[m] = Interval(0, 5);
  const auto out = run(c, m, dom);
  EXPECT_EQ(narrowed(out, m, dom[m]), Interval(3, 5));
  EXPECT_EQ(narrowed(out, t, dom[t]), Interval(3, 5));
}

TEST(RuleMux, OutputHullWhenSelectFree) {
  Circuit c("t");
  const NetId s = c.add_input("s", 1);
  const NetId t = c.add_input("t", 8);
  const NetId e = c.add_input("e", 8);
  const NetId m = c.add_mux(s, t, e);
  auto dom = full_domains(c);
  dom[t] = Interval(1, 3);
  dom[e] = Interval(7, 9);
  const auto out = run(c, m, dom);
  EXPECT_EQ(narrowed(out, m, dom[m]), Interval(1, 9));
}

TEST(RuleMux, DeadBranchForcesSelect) {
  // The §4.2 situation: the required output excludes one branch entirely.
  Circuit c("t");
  const NetId s = c.add_input("s", 1);
  const NetId t = c.add_input("t", 8);
  const NetId e = c.add_input("e", 8);
  const NetId m = c.add_mux(s, t, e);
  auto dom = full_domains(c);
  dom[t] = Interval(6, 7);   // w2-like
  dom[e] = Interval(0, 7);   // w3-like
  dom[m] = Interval::point(5);
  const auto out = run(c, m, dom);
  EXPECT_EQ(narrowed(out, s, dom[s]), Interval::point(0));
}

TEST(RuleMux, BothBranchesDeadIsConflict) {
  Circuit c("t");
  const NetId s = c.add_input("s", 1);
  const NetId t = c.add_input("t", 8);
  const NetId e = c.add_input("e", 8);
  const NetId m = c.add_mux(s, t, e);
  auto dom = full_domains(c);
  dom[t] = Interval(6, 7);
  dom[e] = Interval(6, 6);
  dom[m] = Interval::point(5);
  const auto out = run(c, m, dom);
  EXPECT_TRUE(narrowed(out, m, dom[m]).is_empty());
}

TEST(RuleAdd, BidirectionalWrap) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId z = c.add_add(x, y);
  auto dom = full_domains(c);
  dom[x] = Interval(10, 12);
  dom[y] = Interval(1, 2);
  auto out = run(c, z, dom);
  EXPECT_EQ(narrowed(out, z, dom[z]), Interval(11, 14));
  // Backward: pin z and one operand.
  dom = full_domains(c);
  dom[z] = Interval::point(5);
  dom[y] = Interval::point(250);
  out = run(c, z, dom);
  EXPECT_EQ(narrowed(out, x, dom[x]), Interval::point(11));  // 261 mod 256
}

TEST(RuleComparator, ForwardDecides) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId b = c.add_lt(x, y);
  auto dom = full_domains(c);
  dom[x] = Interval(0, 3);
  dom[y] = Interval(10, 20);
  const auto out = run(c, b, dom);
  EXPECT_EQ(narrowed(out, b, dom[b]), Interval::point(1));
}

TEST(RuleComparator, BackwardNarrowsOperands) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId b = c.add_lt(x, y);
  auto dom = full_domains(c);
  dom[b] = Interval::point(1);
  auto out = run(c, b, dom);
  EXPECT_EQ(narrowed(out, x, dom[x]), Interval(0, 254));
  EXPECT_EQ(narrowed(out, y, dom[y]), Interval(1, 255));
  // Negated: ¬(x<y) ⟺ y ≤ x.
  dom = full_domains(c);
  dom[b] = Interval::point(0);
  dom[y] = Interval(100, 255);
  out = run(c, b, dom);
  EXPECT_EQ(narrowed(out, x, dom[x]), Interval(100, 255));
}

TEST(RuleShift, RoundTrips) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId z = c.add_shr(x, 2);
  auto dom = full_domains(c);
  dom[z] = Interval(2, 3);
  const auto out = run(c, z, dom);
  EXPECT_EQ(narrowed(out, x, dom[x]), Interval(8, 15));
}

TEST(RuleConcat, SplitsThroughParts) {
  Circuit c("t");
  const NetId hi = c.add_input("hi", 4);
  const NetId lo = c.add_input("lo", 4);
  const NetId z = c.add_concat(hi, lo);
  auto dom = full_domains(c);
  dom[z] = Interval(33, 35);
  const auto out = run(c, z, dom);
  EXPECT_EQ(narrowed(out, hi, dom[hi]), Interval::point(2));
}

TEST(RuleZext, Bidirectional) {
  Circuit c("t");
  const NetId x = c.add_input("x", 4);
  const NetId z = c.add_zext(x, 8);
  auto dom = full_domains(c);
  dom[z] = Interval(3, 40);
  const auto out = run(c, z, dom);
  EXPECT_EQ(narrowed(out, z, dom[z]), Interval(3, 15));  // x is only 4 bits
}

TEST(RuleMinMax, RawNodes) {
  Circuit c("t");
  const NetId x = c.add_input("x", 8);
  const NetId y = c.add_input("y", 8);
  const NetId mn = c.add_min_raw(x, y);
  auto dom = full_domains(c);
  dom[x] = Interval(2, 9);
  dom[y] = Interval(4, 6);
  const auto out = run(c, mn, dom);
  EXPECT_EQ(narrowed(out, mn, dom[mn]), Interval(2, 6));
}

// A 1-bit node appended verbatim (no folding, no lowering).
NetId add_raw(Circuit& c, ir::Op op, std::vector<NetId> operands) {
  ir::Node n;
  n.op = op;
  n.operands = std::move(operands);
  return c.add_unchecked(std::move(n));
}

// Every non-empty interval inside the full domain of `width`.
std::vector<Interval> all_intervals(int width) {
  std::vector<Interval> out;
  const Interval::Value top = (Interval::Value{1} << width) - 1;
  for (Interval::Value lo = 0; lo <= top; ++lo)
    for (Interval::Value hi = lo; hi <= top; ++hi) out.emplace_back(lo, hi);
  return out;
}

// The wake predicates are exact for muxes and all four comparators: over
// every domain combination at width 2, rule_may_act is false iff the rule
// emits nothing.
TEST(WakePredicates, ExactOnSmallDomains) {
  const auto words = all_intervals(2);
  const auto bools = all_intervals(1);
  {
    Circuit c("mux");
    const NetId s = c.add_input("s", 1);
    const NetId t = c.add_input("t", 2);
    const NetId e = c.add_input("e", 2);
    const NetId m = c.add_mux(s, t, e);
    const OpTable ops(c);
    auto dom = full_domains(c);
    for (const Interval& ds : bools)
      for (const Interval& dt : words)
        for (const Interval& de : words)
          for (const Interval& dm : words) {
            dom[s] = ds, dom[t] = dt, dom[e] = de, dom[m] = dm;
            std::vector<Narrowing> out;
            node_rules(ops, m, dom, out);
            ASSERT_EQ(rule_may_act(ops, m, dom), !out.empty())
                << "s " << ds.to_string() << " t " << dt.to_string() << " e "
                << de.to_string() << " m " << dm.to_string();
          }
  }
  for (const ir::Op op : {ir::Op::kEq, ir::Op::kNe, ir::Op::kLt, ir::Op::kLe}) {
    Circuit c("cmp");
    const NetId x = c.add_input("x", 2);
    const NetId y = c.add_input("y", 2);
    const NetId z = add_raw(c, op, {x, y});
    const OpTable ops(c);
    auto dom = full_domains(c);
    for (const Interval& dz : bools)
      for (const Interval& dx : words)
        for (const Interval& dy : words) {
          dom[x] = dx, dom[y] = dy, dom[z] = dz;
          std::vector<Narrowing> out;
          node_rules(ops, z, dom, out);
          ASSERT_EQ(rule_may_act(ops, z, dom), !out.empty())
              << ir::op_name(op) << " x " << dx.to_string() << " y "
              << dy.to_string() << " z " << dz.to_string();
        }
  }
}

// rule_is_idempotent's operators reach their local fixpoint in one run:
// applying one run's narrowings the way the engine does (in order, each
// re-intersected) leaves nothing for a second run, repeated operands
// included.
TEST(WakePredicates, IdempotentRulesReachFixpointInOneRun) {
  Circuit c("t");
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  const NetId w = c.add_input("w", 2);
  const std::vector<NetId> nodes = {
      add_raw(c, ir::Op::kAnd, {a, b, a}), add_raw(c, ir::Op::kOr, {a, b, a}),
      c.add_not(a), c.add_xor(a, b), c.add_zext(w, 3)};
  const OpTable ops(c);
  for (const NetId node : nodes) {
    ASSERT_TRUE(rule_is_idempotent(ops.op(node)));
    const auto operands = ops.operands(node);
    const NetId in = operands[0];
    const NetId other = operands.size() > 1 ? operands[1] : in;
    for (const Interval& dout : all_intervals(ops.width(node)))
      for (const Interval& din : all_intervals(ops.width(in)))
        for (const Interval& dother : all_intervals(ops.width(other))) {
          auto dom = full_domains(c);
          dom[in] = din, dom[other] = dother, dom[node] = dout;
          if (other == in && din != dother) continue;
          std::vector<Narrowing> out;
          node_rules(ops, node, dom, out);
          bool conflict = false;
          for (const Narrowing& nw : out) {
            dom[nw.net] = dom[nw.net].intersect(nw.interval);
            conflict = conflict || dom[nw.net].is_empty();
          }
          if (conflict) continue;
          out.clear();
          node_rules(ops, node, dom, out);
          EXPECT_TRUE(out.empty()) << ir::op_name(ops.op(node)) << " in "
                                   << din.to_string() << " out "
                                   << dout.to_string();
        }
  }
}

}  // namespace
}  // namespace rtlsat::prop

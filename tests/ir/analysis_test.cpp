#include "ir/analysis.h"

#include <gtest/gtest.h>

namespace rtlsat::ir {
namespace {

// Small circuit with one mux and one comparator for predicate extraction.
struct Fixture {
  Circuit c{"t"};
  NetId a = c.add_input("a", 8);
  NetId b = c.add_input("b", 8);
  NetId sel = c.add_input("sel", 1);
  NetId lt = c.add_lt(a, b);
  NetId g = c.add_and(sel, lt);
  NetId m = c.add_mux(g, a, b);
};

TEST(Levelize, DistanceFromInputs) {
  Fixture f;
  const auto level = levelize(f.c);
  EXPECT_EQ(level[f.a], 0);
  EXPECT_EQ(level[f.sel], 0);
  EXPECT_EQ(level[f.lt], 1);
  EXPECT_EQ(level[f.g], 2);
  EXPECT_EQ(level[f.m], 3);
}

TEST(Fanouts, ListsReaders) {
  Fixture f;
  const auto fo = fanouts(f.c);
  // `a` feeds the comparator and the mux.
  EXPECT_EQ(fo[f.a], (std::vector<NetId>{f.lt, f.m}));
  EXPECT_EQ(fo[f.g], std::vector<NetId>{f.m});
  EXPECT_TRUE(fo[f.m].empty());
}

TEST(FaninCone, Transitive) {
  Fixture f;
  const auto cone = fanin_cone(f.c, f.g);
  EXPECT_TRUE(cone.mask[f.g]);
  EXPECT_TRUE(cone.mask[f.lt]);
  EXPECT_TRUE(cone.mask[f.sel]);
  EXPECT_TRUE(cone.mask[f.a]);
  EXPECT_FALSE(cone.mask[f.m]);  // downstream of the root
  // `members` agrees with the mask and is in ascending (topological) order.
  std::size_t n_masked = 0;
  for (const auto b : cone.mask) n_masked += b ? 1 : 0;
  EXPECT_EQ(cone.members.size(), n_masked);
  for (std::size_t i = 0; i + 1 < cone.members.size(); ++i)
    EXPECT_LT(cone.members[i], cone.members[i + 1]);
}

TEST(Predicates, ComparatorOutputsAndMuxSelects) {
  Fixture f;
  const auto preds = extract_predicates(f.c);
  bool found_lt = false, found_sel_g = false;
  for (const auto& p : preds) {
    if (p.net == f.lt) {
      found_lt = true;
      EXPECT_TRUE(p.is_comparator_output);
    }
    if (p.net == f.g) {
      found_sel_g = true;
      EXPECT_TRUE(p.is_mux_select);
    }
  }
  EXPECT_TRUE(found_lt);
  EXPECT_TRUE(found_sel_g);
}

TEST(Predicates, SortedByLevel) {
  Fixture f;
  const auto preds = extract_predicates(f.c);
  for (std::size_t i = 1; i < preds.size(); ++i)
    EXPECT_LE(preds[i - 1].level, preds[i].level);
}

TEST(Predicates, BooleanMuxIsNotPredicate) {
  Circuit c("t");
  const NetId s = c.add_input("s", 1);
  const NetId a = c.add_input("a", 1);
  const NetId b = c.add_input("b", 1);
  c.add_mux(s, a, b);  // 1-bit mux: control logic, not a data-path predicate
  EXPECT_TRUE(extract_predicates(c).empty());
}

TEST(PredicateCone, IncludesUpstreamBooleans) {
  Fixture f;
  const auto cone = predicate_logic_cone(f.c);
  // sel, lt, and g are all 1-bit and upstream of (or equal to) a predicate.
  EXPECT_NE(std::find(cone.begin(), cone.end(), f.sel), cone.end());
  EXPECT_NE(std::find(cone.begin(), cone.end(), f.lt), cone.end());
  EXPECT_NE(std::find(cone.begin(), cone.end(), f.g), cone.end());
}

}  // namespace
}  // namespace rtlsat::ir

#include "serve/cache.h"

#include <gtest/gtest.h>

#include <string>

#include "ir/circuit.h"
#include "ir/cone.h"
#include "serve/bank.h"

namespace rtlsat::serve {
namespace {

// a + b == k ∧ a < 20, an 8-bit SAT shape; `k` varies the cone text.
ir::CanonicalCone cone_for(std::int64_t k) {
  ir::Circuit c("c");
  const ir::NetId a = c.add_input("a", 8);
  const ir::NetId b = c.add_input("b", 8);
  const ir::NetId goal = c.add_and(
      c.add_eq(c.add_add(a, b), c.add_const(k, 8)),
      c.add_lt(a, c.add_const(20, 8)));
  return ir::canonical_cone(c, goal);
}

CachedResult sat_result(std::int64_t a, std::int64_t b) {
  CachedResult r;
  r.status = core::SolveStatus::kSat;
  r.model = {a, b};
  r.solve_seconds = 0.5;
  r.winner = "w";
  return r;
}

TEST(ResultCache, HitReturnsStoredVerdictAndModel) {
  ResultCache cache(8);
  const ir::CanonicalCone cone = cone_for(100);
  EXPECT_FALSE(cache.lookup(cone, true).has_value());
  EXPECT_EQ(cache.misses(), 1);

  cache.insert(cone, true, sat_result(4, 96));
  const auto hit = cache.lookup(cone, true);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->status, core::SolveStatus::kSat);
  EXPECT_EQ(hit->model, (std::vector<std::int64_t>{4, 96}));
  EXPECT_DOUBLE_EQ(hit->solve_seconds, 0.5);
  EXPECT_EQ(hit->winner, "w");
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, GoalValueIsPartOfTheKey) {
  ResultCache cache(8);
  const ir::CanonicalCone cone = cone_for(100);
  cache.insert(cone, true, sat_result(4, 96));
  EXPECT_FALSE(cache.lookup(cone, false).has_value());
  EXPECT_TRUE(cache.lookup(cone, true).has_value());
}

TEST(ResultCache, UndecidedVerdictsAreNeverStored) {
  ResultCache cache(8);
  const ir::CanonicalCone cone = cone_for(100);
  CachedResult timeout;
  timeout.status = core::SolveStatus::kTimeout;
  cache.insert(cone, true, timeout);
  CachedResult cancelled;
  cancelled.status = core::SolveStatus::kCancelled;
  cache.insert(cone, true, cancelled);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(cone, true).has_value());
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  const ir::CanonicalCone a = cone_for(10);
  const ir::CanonicalCone b = cone_for(20);
  const ir::CanonicalCone c = cone_for(30);
  cache.insert(a, true, sat_result(1, 9));
  cache.insert(b, true, sat_result(2, 18));
  // Touch `a` so `b` becomes the eviction victim.
  ASSERT_TRUE(cache.lookup(a, true).has_value());
  cache.insert(c, true, sat_result(3, 27));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_TRUE(cache.lookup(a, true).has_value());
  EXPECT_FALSE(cache.lookup(b, true).has_value());
  EXPECT_TRUE(cache.lookup(c, true).has_value());
}

TEST(ResultCache, ReinsertRefreshesRecencyWithoutReplacing) {
  ResultCache cache(2);
  const ir::CanonicalCone a = cone_for(10);
  const ir::CanonicalCone b = cone_for(20);
  cache.insert(a, true, sat_result(1, 9));
  cache.insert(b, true, sat_result(2, 18));
  cache.insert(a, true, sat_result(5, 5));  // refresh only; model kept
  cache.insert(cone_for(30), true, sat_result(3, 27));
  const auto hit = cache.lookup(a, true);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->model, (std::vector<std::int64_t>{1, 9}));
  EXPECT_FALSE(cache.lookup(b, true).has_value());
}

TEST(ExactCache, ServesStoredResultForIdenticalKey) {
  ExactCache cache(4);
  const std::string key = exact_request_key("(circuit c ...)", "g", true);
  EXPECT_FALSE(cache.lookup(key).has_value());
  ResultMsg msg;
  msg.verdict = "sat";
  msg.cache_hit = true;
  msg.model.emplace_back("a", 4);
  cache.insert(key, msg);
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, "sat");
  EXPECT_TRUE(hit->cache_hit);
  ASSERT_EQ(hit->model.size(), 1u);
  EXPECT_EQ(hit->model[0].first, "a");
  EXPECT_EQ(cache.hits(), 1);
  // The goal value bit keys a different entry.
  EXPECT_FALSE(
      cache.lookup(exact_request_key("(circuit c ...)", "g", false))
          .has_value());
}

TEST(ExactCache, BoundedLru) {
  ExactCache cache(2);
  ResultMsg msg;
  msg.verdict = "unsat";
  cache.insert(exact_request_key("a", "g", true), msg);
  cache.insert(exact_request_key("b", "g", true), msg);
  ASSERT_TRUE(cache.lookup(exact_request_key("a", "g", true)).has_value());
  cache.insert(exact_request_key("c", "g", true), msg);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.lookup(exact_request_key("a", "g", true)).has_value());
  EXPECT_FALSE(cache.lookup(exact_request_key("b", "g", true)).has_value());
}

TEST(ExactCache, ReinsertRefreshesRecencyWithoutReplacing) {
  ExactCache cache(2);
  ResultMsg sat;
  sat.verdict = "sat";
  ResultMsg unsat;
  unsat.verdict = "unsat";
  const std::string a = exact_request_key("a", "g", true);
  const std::string b = exact_request_key("b", "g", true);
  cache.insert(a, sat);
  cache.insert(b, sat);
  cache.insert(a, unsat);  // refresh only; the stored result is kept
  cache.insert(exact_request_key("c", "g", true), sat);
  const auto hit = cache.lookup(a);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->verdict, "sat");
  EXPECT_FALSE(cache.lookup(b).has_value());
}

TEST(ExactCache, ZeroCapacityStoresNothing) {
  ExactCache cache(0);
  ResultMsg msg;
  msg.verdict = "unsat";
  const std::string key = exact_request_key("a", "g", true);
  cache.insert(key, msg);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.hits(), 0);
}

// ---------------------------------------------------------------------------
// Clause bank

TEST(ClauseBank, SharesPoolOnlyForByteIdenticalInstances) {
  ClauseBank bank(8);
  const BankCheckout first = bank.checkout("(circuit c1)", "g", true, 2);
  const BankCheckout same = bank.checkout("(circuit c1)", "g", true, 2);
  ASSERT_NE(first.pool, nullptr);
  EXPECT_EQ(first.pool, same.pool);
  // Different text, goal, or value each start a fresh pool — the bank must
  // never treat merely isomorphic circuits as shareable (NetIds differ).
  EXPECT_NE(bank.checkout("(circuit c2)", "g", true, 2).pool, first.pool);
  EXPECT_NE(bank.checkout("(circuit c1)", "h", true, 2).pool, first.pool);
  EXPECT_NE(bank.checkout("(circuit c1)", "g", false, 2).pool, first.pool);
  EXPECT_EQ(bank.size(), 4u);
}

TEST(ClauseBank, CheckoutsReserveDisjointWorkerIdRanges) {
  ClauseBank bank(8);
  const BankCheckout a = bank.checkout("(circuit c)", "g", true, 4);
  const BankCheckout b = bank.checkout("(circuit c)", "g", true, 2);
  const BankCheckout c = bank.checkout("(circuit c)", "g", true, 3);
  EXPECT_EQ(a.worker_id_base, 0);
  EXPECT_EQ(b.worker_id_base, 4);
  EXPECT_EQ(c.worker_id_base, 6);
}

TEST(ClauseBank, ZeroCapacityHandsOutFreshUnsharedPools) {
  ClauseBank bank(0);
  const BankCheckout a = bank.checkout("(circuit c)", "g", true, 2);
  const BankCheckout b = bank.checkout("(circuit c)", "g", true, 2);
  ASSERT_NE(a.pool, nullptr);
  ASSERT_NE(b.pool, nullptr);
  EXPECT_NE(a.pool, b.pool);
  EXPECT_EQ(bank.size(), 0u);
}

TEST(ClauseBank, EvictedEntryStaysAliveForItsCheckout) {
  ClauseBank bank(1);
  const BankCheckout a = bank.checkout("(circuit c1)", "g", true, 2);
  const BankCheckout evictor = bank.checkout("(circuit c2)", "g", true, 2);
  (void)evictor;
  // c1 was evicted from the index; the held checkout still works and a new
  // checkout of c1 starts over with a fresh pool and id range.
  const BankCheckout again = bank.checkout("(circuit c1)", "g", true, 2);
  EXPECT_NE(again.pool, a.pool);
  EXPECT_EQ(again.worker_id_base, 0);
  EXPECT_EQ(a.pool->size(), 0u);  // usable, just no longer shared
}

TEST(ClauseBank, CheckoutRefreshesRecency) {
  ClauseBank bank(2);
  const BankCheckout a = bank.checkout("(circuit c1)", "g", true, 2);
  const BankCheckout b = bank.checkout("(circuit c2)", "g", true, 2);
  // Touch c1 so c2 is the victim when c3 arrives.
  EXPECT_EQ(bank.checkout("(circuit c1)", "g", true, 2).pool, a.pool);
  bank.checkout("(circuit c3)", "g", true, 2);
  EXPECT_EQ(bank.size(), 2u);
  EXPECT_EQ(bank.checkout("(circuit c1)", "g", true, 2).pool, a.pool);
  EXPECT_NE(bank.checkout("(circuit c2)", "g", true, 2).pool, b.pool);
}

// ---------------------------------------------------------------------------
// BMC session bank

TEST(BmcSessionBank, SameKeyReturnsTheSameSession) {
  BmcSessionBank bank(8);
  const auto first = bank.checkout("(seq-circuit s)", "p", false);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(bank.checkout("(seq-circuit s)", "p", false), first);
  // Different text, property, or goal shape each get their own session.
  EXPECT_NE(bank.checkout("(seq-circuit t)", "p", false), first);
  EXPECT_NE(bank.checkout("(seq-circuit s)", "q", false), first);
  EXPECT_NE(bank.checkout("(seq-circuit s)", "p", true), first);
  EXPECT_EQ(bank.size(), 4u);
}

TEST(BmcSessionBank, EvictedSessionStaysAliveForItsHolder) {
  BmcSessionBank bank(1);
  const auto held = bank.checkout("(seq-circuit s1)", "p", false);
  held->bounds_solved = 7;
  bank.checkout("(seq-circuit s2)", "p", false);  // evicts s1
  EXPECT_EQ(bank.size(), 1u);
  EXPECT_EQ(held->bounds_solved, 7);  // the holder's session is intact
  // A new checkout of s1 starts over with a fresh session.
  const auto again = bank.checkout("(seq-circuit s1)", "p", false);
  EXPECT_NE(again, held);
  EXPECT_EQ(again->bounds_solved, 0);
}

TEST(BmcSessionBank, ZeroCapacityHandsOutFreshUnsharedSessions) {
  BmcSessionBank bank(0);
  const auto a = bank.checkout("(seq-circuit s)", "p", false);
  const auto b = bank.checkout("(seq-circuit s)", "p", false);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  EXPECT_EQ(bank.size(), 0u);
}

}  // namespace
}  // namespace rtlsat::serve

// Structural-hash result cache: verdicts keyed by the canonical form of
// the property cone (ir/cone.h), so a repeat query — or any *isomorphic*
// query: renamed nets, renumbered ids, permuted commutative operands,
// extra logic outside the cone — returns in microseconds instead of
// re-running the portfolio.
//
// Soundness: the full canonical text is the key, never the 64-bit digest
// alone. Equal canonical text means the cones are literally the same
// circuit up to renaming (ir/cone.h proves the quotient), so a cached
// verdict for (cone, goal_value) transfers exactly. The digest only picks
// the hash bucket; a collision costs a string compare, not a wrong answer.
//
// Model transfer: a SAT verdict's witness is stored by *canonical input
// index* — position in CanonicalCone::inputs, which the canonicalization
// orders identically for isomorphic cones. On a hit the caller maps those
// positions through its own cone's `inputs` vector back to concrete
// NetIds. Inputs outside the cone cannot affect the goal (that is what a
// cone is), so the caller reports 0 for them.
//
// Concurrency: one mutex around serve/lru.h's bounded LRU. Lookups are a
// string hash + compare — nanoseconds against the seconds a solve costs —
// so a sharded design would be complexity without a measurable win; the
// loadgen p50 numbers in docs/serve.md back this up.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/hdpll.h"
#include "ir/cone.h"
#include "serve/lru.h"
#include "serve/protocol.h"

namespace rtlsat::serve {

// Exact-text front tier (L1): complete result messages keyed by the
// byte-identical (rtl, goal, value) request (serve/lru.h's
// exact_request_key). A hit skips the parse and the canonicalization
// entirely — this is what makes an *identical* repeat query microseconds,
// while the canonical tier below handles merely *isomorphic* repeats.
// Sound because identical text parses to the identical circuit: verdict,
// witness, and input names all transfer as-is.
class ExactCache {
 public:
  explicit ExactCache(std::size_t capacity) : lru_(capacity) {}

  std::optional<ResultMsg> lookup(const std::string& key);
  // Only decisive verdicts belong here; the caller filters.
  void insert(const std::string& key, ResultMsg result);

  std::size_t size() const;
  std::int64_t hits() const;

 private:
  mutable std::mutex mu_;
  Lru<ResultMsg> lru_;
  std::int64_t hits_ = 0;
};

struct CachedResult {
  core::SolveStatus status = core::SolveStatus::kTimeout;
  // kSat only: witness value per canonical cone input, indexed in
  // CanonicalCone::inputs order.
  std::vector<std::int64_t> model;
  double solve_seconds = 0;   // wall time of the original solve
  std::string winner;         // portfolio worker that produced the verdict
  // presolve.* counters of the original solve (empty when presolve was
  // off); served back verbatim on a hit so the client's counters don't
  // depend on who populated the cache.
  std::vector<std::pair<std::string, std::int64_t>> presolve;
};

class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity) : lru_(capacity) {}

  // Looks up the (cone, value) pair and, on a hit, bumps it to
  // most-recently-used. Undecided statuses are never stored, so a hit is
  // always a decisive verdict.
  std::optional<CachedResult> lookup(const ir::CanonicalCone& cone,
                                     bool value);

  // Stores a decisive verdict; kTimeout/kCancelled are dropped (a budget
  // miss under one load says nothing about the next query's budget).
  // `model` must be in canonical-input order (see file comment); pass empty
  // for kUnsat. Re-inserting an existing key refreshes recency only — the
  // verdicts cannot differ unless a solver is unsound, and the fuzz cache
  // oracle (tests/serve/cache_fuzz_test.cpp) checks exactly that.
  void insert(const ir::CanonicalCone& cone, bool value, CachedResult result);

  std::size_t size() const;
  std::int64_t hits() const;
  std::int64_t misses() const;
  std::int64_t evictions() const;

 private:
  static std::string make_key(const ir::CanonicalCone& cone, bool value) {
    // The value bit cannot collide with text: canonical text starts with
    // its "cone v1" header, so a one-byte prefix keeps keys distinct.
    return (value ? "1" : "0") + cone.text;
  }

  mutable std::mutex mu_;
  Lru<CachedResult> lru_;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
};

}  // namespace rtlsat::serve

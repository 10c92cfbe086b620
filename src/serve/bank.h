// Cross-job clause bank: keeps a portfolio::ClausePool alive per *exact*
// solve instance so a later job on the same instance starts with the
// earlier jobs' learned clauses (and concurrent jobs on the same instance
// share as they go).
//
// Keying is deliberately stricter than the result cache's: learned clauses
// reference concrete NetIds and HDPLL applies the goal as a level-0
// assumption, so a clause bank entry is only sound for a byte-identical
// (rtl text, goal name, goal value) triple (serve/lru.h's
// exact_request_key) — the parse then assigns the same NetIds and the
// clauses are consequences of the same assumed formula.
// Isomorphic-but-renumbered circuits must NOT share a pool; translating
// clauses through the canonical form is future work tracked in ROADMAP
// item 1 (incremental solving).
//
// Each checkout also reserves a disjoint worker-id range in the pool's
// namespace (PortfolioOptions::worker_id_base): ClausePool::fetch skips a
// worker's own ids, so two concurrent jobs reusing ids 0..N-1 would
// silently refuse each other's clauses.
//
// Capacity is a bounded LRU over *idle* pools; an entry checked out by a
// running job is pinned by shared ownership and simply drops out of the
// bank's index when evicted, the checkout keeps working, and later jobs on
// that key start a fresh pool.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "bmc/incremental.h"
#include "ir/seq.h"
#include "portfolio/clause_pool.h"
#include "serve/lru.h"

namespace rtlsat::serve {

struct BankCheckout {
  std::shared_ptr<portfolio::ClausePool> pool;
  int worker_id_base = 0;
};

class ClauseBank {
 public:
  explicit ClauseBank(std::size_t capacity) : lru_(capacity) {}

  // Returns the pool for this exact instance (creating it on first use)
  // plus a worker-id base no other checkout of the same pool received.
  // `workers` is how many ids the caller's portfolio will occupy.
  BankCheckout checkout(const std::string& rtl, const std::string& goal,
                        bool value, int workers);

  std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<portfolio::ClausePool> pool;
    int next_worker_id = 0;
  };

  mutable std::mutex mu_;
  Lru<Entry> lru_;
};

// One warm incremental-BMC solver, shared across jobs. The clause bank
// above shares learned *clauses* between fresh solvers; a BMC session goes
// further and shares the whole solver — the growing unrolling, the learned
// hybrid clauses, predicate relations, activities, and phases all persist,
// so a client sweeping bounds k = 1, 2, 3… pays unrolling and clause
// discovery once (bmc/incremental.h).
//
// The session mutex serializes solves: HdpllSolver is single-threaded and
// its state *is* the asset being shared, so concurrent jobs on one session
// queue up rather than fork. `bmc` is constructed lazily by the first job,
// under `mu`, from that job's parsed circuit (`seq` lives here because
// IncrementalBmc borrows its SeqCircuit).
struct BmcSession {
  std::mutex mu;
  ir::SeqCircuit seq{""};                    // guarded by mu until bmc is set
  std::unique_ptr<bmc::IncrementalBmc> bmc;  // guarded by mu
  std::int64_t bounds_solved = 0;            // guarded by mu
};

// Bounded LRU of BmcSessions, keyed — like ClauseBank, and for the same
// NetId-identity reason — by the byte-identical (seq_rtl, property,
// cumulative) triple. Eviction drops the index entry; running jobs keep
// their session alive through shared ownership.
class BmcSessionBank {
 public:
  explicit BmcSessionBank(std::size_t capacity) : lru_(capacity) {}

  // Returns the session for this exact instance, creating it (empty — the
  // caller constructs the IncrementalBmc under the session mutex) on first
  // use. capacity 0 ⟹ a fresh unshared session per call.
  std::shared_ptr<BmcSession> checkout(const std::string& seq_rtl,
                                       const std::string& property,
                                       bool cumulative);

  std::size_t size() const;

 private:
  mutable std::mutex mu_;
  Lru<std::shared_ptr<BmcSession>> lru_;
};

}  // namespace rtlsat::serve

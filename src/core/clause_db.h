// Database of hybrid clauses with two-watched-literal unit propagation
// over interval domains.
//
// Each clause watches two of its literals; a clause is re-examined only
// when an engine event narrows the net under a watch. The classic watch
// invariant carries over to interval literals because literal truth is
// monotone along the trail (narrowing can only move a literal
// unknown→false or unknown→true; backtracking only reverses that), so —
// exactly as in a Boolean CDCL solver — a clause can never *become* unit
// or conflicting without an event on a watched net, provided events are
// processed in trail order.
//
// A clause whose literals are all false raises a conflict; a clause with
// one non-false literal left implies it (for word literals, by narrowing
// the net to the literal's implied interval — a negative literal whose
// complement is not interval-representable stays pending, which is sound,
// merely lazier). Implications are pushed into the prop::Engine with
// ReasonKind::kClause so they participate in the hybrid implication graph
// like any circuit implication (paper §2.4).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/hybrid_clause.h"
#include "prop/engine.h"

namespace rtlsat::core {

// A stored clause: its literals (a slice of the database's arena) and its
// bookkeeping. Valid until the next ClauseDb::add() or reduce().
struct ClauseView {
  std::span<const HybridLit> lits;
  bool learnt = false;
  bool deleted = false;
  HybridClause::Origin origin = HybridClause::Origin::kProblem;

  HybridClause to_clause() const {
    return {{lits.begin(), lits.end()}, learnt, origin};
  }
  std::string to_string(const ir::Circuit& circuit) const {
    return clause_to_string(lits, circuit);
  }
};

class ClauseDb {
 public:
  explicit ClauseDb(const ir::Circuit& circuit)
      : watchers_(circuit.num_nets()),
        net_weight_(circuit.num_nets(), 0),
        literal_weight_(circuit.num_nets(), {0, 0}) {}

  std::uint32_t add(const HybridClause& clause);

  // Adopts nets appended to the circuit since construction: extends the
  // per-net watch and weight tables. Existing clauses and watches
  // are untouched (the circuit is append-only, so old ids keep meaning).
  void sync_circuit(const ir::Circuit& circuit) {
    watchers_.resize(circuit.num_nets());
    net_weight_.resize(circuit.num_nets(), 0);
    literal_weight_.resize(circuit.num_nets(), {0, 0});
  }

  // Ids are dense and stable: reduce() marks clauses deleted (leaving them
  // no literals) but never renumbers, because trail reasons and
  // certificate records name clauses by id.
  ClauseView clause(std::uint32_t id) const {
    const Header& h = headers_[id];
    return {lits_of(h), h.learnt, h.deleted, h.origin};
  }
  std::size_t size() const { return headers_.size(); }
  std::size_t learnt_count() const { return learnt_count_; }

  // Runs clause unit propagation against the engine's current domains.
  // `cursor` tracks how much of the engine trail this db has already
  // processed; rollbacks are rewound via the engine's trail low-water
  // mark. Newly added clauses are checked on their first propagate().
  // Returns false when a conflict was raised.
  bool propagate(prop::Engine& engine, std::size_t* cursor);

  // Number of clauses each net occurs in — the decision heuristic's
  // learned-clause weight (§2.4, §3 step 5).
  int net_weight(ir::NetId net) const { return net_weight_[net]; }

  // Number of learnt clauses containing the Boolean literal (net = value) —
  // the §4.4 value-choice weight. Maintained incrementally so the decision
  // loop reads it in O(1).
  int bool_literal_weight(ir::NetId net, bool value) const {
    return literal_weight_[net][value ? 1 : 0];
  }

  // Introspection for the invariant verifier (core/selfcheck.h): the two
  // watched literal indices of a clause, the (lazily pruned, so possibly
  // stale-containing) watcher list of a net, and whether clauses are still
  // awaiting their first propagate().
  const std::array<std::uint32_t, 2>& watch_pair(std::uint32_t id) const {
    return headers_[id].watch;
  }
  const std::vector<std::uint32_t>& watch_list(ir::NetId net) const {
    return watchers_[net];
  }
  bool fresh_pending() const { return !fresh_.empty(); }

  // Learnt-clause database reduction: deletes the least-active half of the
  // long (> 2 literal) learnt clauses, keeping any clause that is the
  // reason of a current trail implication, then compacts the literal arena
  // over the survivors. Deleted clauses are dropped lazily from the watch
  // lists. Returns the number deleted.
  std::size_t reduce(const prop::Engine& engine);

  // Age-based activity: bumped whenever a clause implies or conflicts;
  // the solver decays the increment once per conflict (EVSIDS-style).
  void decay_clause_activity(double factor) { activity_increment_ /= factor; }

  // Heap held by the clauses (O(1) read, for the progress heartbeat): the
  // literal arena's capacity plus the clause headers. The watch lists are
  // deliberately excluded — they are index vectors proportional to the
  // clause count and would double-count the trend without changing its
  // shape.
  std::int64_t memory_bytes() const {
    return static_cast<std::int64_t>(lits_.capacity() * sizeof(HybridLit) +
                                     headers_.capacity() * sizeof(Header));
  }

 private:
  struct Header {
    std::uint32_t begin = 0;  // first literal in lits_
    std::uint32_t size = 0;
    // Two watched literal indices (equal for unit clauses).
    std::array<std::uint32_t, 2> watch{0, 0};
    double activity = 0;  // learnt clauses only
    HybridClause::Origin origin = HybridClause::Origin::kProblem;
    bool learnt = false;
    bool deleted = false;
  };

  std::span<const HybridLit> lits_of(const Header& h) const {
    return {lits_.data() + h.begin, h.size};
  }

  // Full (non-watched) examination used for fresh clauses and as the slow
  // path: finds a satisfied literal or implies/conflicts. Returns false on
  // conflict.
  bool apply_clause_full(std::uint32_t id, prop::Engine& engine);
  // Watched-path handler for one clause triggered by an event on `net`.
  // Returns false on conflict. Sets *keep_watch when the clause should stay
  // in net's watcher list.
  bool on_watched_event(std::uint32_t id, ir::NetId net, prop::Engine& engine,
                        bool* keep_watch);
  bool imply_or_conflict(std::uint32_t id, std::size_t unit_index,
                         bool conflicting, prop::Engine& engine);
  void watch(std::uint32_t id, std::size_t lit_index);
  // Slides the live clauses' literals down over the deleted ones' and
  // releases the arena's spare capacity.
  void compact();

  std::vector<HybridLit> lits_;  // every clause's literals, by Header slice
  std::vector<Header> headers_;  // by clause id
  std::vector<std::vector<std::uint32_t>> watchers_;  // by net
  std::vector<int> net_weight_;
  std::vector<std::array<int, 2>> literal_weight_;
  std::vector<std::uint32_t> fresh_;  // added but not yet propagated
  std::vector<std::int32_t> antecedents_;  // imply_or_conflict scratch
  std::size_t learnt_count_ = 0;
  double activity_increment_ = 1.0;
};

}  // namespace rtlsat::core

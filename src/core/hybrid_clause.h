// Hybrid clauses (paper §2.1): disjunctions of Boolean literals and word
// literals.
//
// A Boolean literal (net, polarity) is true when the 1-bit net is assigned
// `polarity`. A word literal pairs a word net with an interval b:
//   positive {w, b}:  true when w's values all lie in b,
//   negative {w, b}̄:  true when w's values all lie in D(w)\b.
// Under a partial assignment (the net's current interval I) a literal can
// also be *unknown*; the clause propagation rules in clause_db.cpp exploit
// the usual watched/unit structure over this three-valued evaluation.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "interval/interval.h"
#include "ir/circuit.h"
#include "prop/engine.h"

namespace rtlsat::core {

enum class LitValue { kTrue, kFalse, kUnknown };

// Field order keeps the literal at 24 bytes: the clause database stores
// learned clauses as one arena of these.
struct HybridLit {
  // For a Boolean literal `interval` is the satisfying point ⟨v,v⟩ with
  // positive == true; word literals use the paper's positive/negative pair
  // semantics.
  Interval interval;
  ir::NetId net = ir::kNoNet;
  bool positive = true;
  bool is_bool = false;

  static HybridLit boolean(ir::NetId net, bool value) {
    HybridLit l;
    l.net = net;
    l.interval = Interval::point(value ? 1 : 0);
    l.positive = true;
    l.is_bool = true;
    return l;
  }
  static HybridLit word_in(ir::NetId net, const Interval& b) {
    HybridLit l;
    l.net = net;
    l.interval = b;
    l.positive = true;
    return l;
  }
  static HybridLit word_not_in(ir::NetId net, const Interval& b) {
    HybridLit l = word_in(net, b);
    l.positive = false;
    return l;
  }

  // Evaluate against the net's current interval.
  LitValue value(const Interval& current) const;

  // The interval to impose on the net when this literal is implied by unit
  // propagation (intersection target for positive; subtraction for
  // negative — Interval::minus handles the representable cases).
  Interval implied_interval(const Interval& current) const;

  std::string to_string(const ir::Circuit& circuit) const;
};
static_assert(sizeof(HybridLit) <= 24);

// "(l1 | l2 | …)" in the circuit's net names.
std::string clause_to_string(std::span<const HybridLit> lits,
                             const ir::Circuit& circuit);

struct HybridClause {
  std::vector<HybridLit> lits;
  bool learnt = false;
  // Where the clause came from — for the experiment reporting. kShared
  // marks clauses imported from a portfolio peer's export stream.
  enum class Origin {
    kProblem,
    kConflict,
    kPredicateLearning,
    kJustification,
    kShared
  };
  Origin origin = Origin::kProblem;
  // Portfolio provenance, stamped by the clause pool at publish time: the
  // exporting worker's id and its position in the pool's publication order.
  // −1 until the clause passes through the pool. Certificates and the
  // portfolio report use these to attribute kShared imports to their
  // exporter.
  int shared_from = -1;
  std::int64_t shared_seq = -1;

  std::string to_string(const ir::Circuit& circuit) const {
    return clause_to_string(lits, circuit);
  }
};

}  // namespace rtlsat::core

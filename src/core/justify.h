// Structural decision-making by RTL justification (paper §4, Algorithm 2).
//
// The J-frontier is the set of operators whose required output cannot yet
// be produced by implication alone:
//   * Boolean gates with an assigned output that no current input value
//     explains (AND at 0 with no 0-input, OR at 1 with no 1-input, XOR with
//     both inputs free),
//   * word-level muxes whose select is free and whose required output
//     interval genuinely constrains the branch choice (Def. 4.1 rule 2).
// Pure arithmetic operators (+, −, shifts, …) are never justified — their
// consistency is the propagation engine's and FME's job.
//
// justify() returns the next Boolean decision (net, value) that satisfies
// some frontier gate, preferring — per §4.4 — the value that satisfies the
// most learned predicate relations when static learning ran.
#pragma once

#include <optional>

#include "core/clause_db.h"
#include "prop/engine.h"

namespace rtlsat::core {

struct JustifyDecision {
  ir::NetId net = ir::kNoNet;
  bool value = false;
};

class Justifier {
 public:
  explicit Justifier(const ir::Circuit& circuit);

  // Returns a decision for the first unjustified gate of the J-frontier in
  // rank order (highest level first — justification flows from the
  // constrained outputs back towards the inputs), or nullopt when the
  // frontier is empty. The frontier is kept incrementally: a call re-checks
  // only the gates next to nets narrowed or undone since the previous call
  // (found through the engine's kFrontier trail low water), so a Justifier
  // serves a single engine. `db` may be null; when present, free value
  // choices are weighted by learned-relation satisfaction. `scanned`, when
  // non-null, accumulates the number of gate checks (observability).
  std::optional<JustifyDecision> pick(prop::Engine& engine, const ClauseDb* db,
                                      std::int64_t* scanned = nullptr);

  // Diagnostic: the frontier size under the current assignment.
  std::size_t frontier_size(const prop::Engine& engine) const;

 private:
  bool unjustified(const prop::Engine& engine, ir::NetId id) const;
  // Folds the trail changes since the previous call into unjustified_;
  // returns the number of gates re-checked.
  std::int64_t sync(prop::Engine& engine);
  std::int64_t recheck(const prop::Engine& engine, ir::NetId net);
  std::optional<JustifyDecision> justify_gate(const prop::Engine& engine,
                                              ir::NetId id,
                                              const ClauseDb* db) const;

  const ir::Circuit& circuit_;
  // Candidate gates sorted by level, deepest first; a gate's rank is its
  // index here.
  std::vector<ir::NetId> candidates_;
  // Per net, the ranks of the candidates whose status reads it (the net's
  // own gate and the gates it feeds): watch_[watch_begin_[n] ..
  // watch_begin_[n + 1]).
  std::vector<std::uint32_t> watch_begin_;
  std::vector<std::uint32_t> watch_;
  std::vector<std::uint64_t> unjustified_;  // one bit per rank
  std::vector<ir::NetId> seen_;  // nets of the trail prefix folded in
  bool primed_ = false;          // unjustified_ reflects seen_
  std::vector<int> fanout_count_;
  std::vector<int> level_;
};

// §4.4 helper, shared with the base heuristic under +P: how many learned
// clauses contain the literal (net = value)?
int relation_satisfaction(const ClauseDb& db, ir::NetId net, bool value);

}  // namespace rtlsat::core

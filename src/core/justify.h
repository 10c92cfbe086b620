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
  // Builds the frontier over the engine's circuit: extend() from no nets.
  explicit Justifier(prop::Engine& engine);

  // Adopts nets appended to the engine's circuit since the last call (after
  // Engine::sync_circuit). The circuit is append-only, so old nets keep
  // their levels: the trail changes since the previous pick are folded in
  // first, then only the new nets are levelled and the new candidates
  // sorted, checked against the current domains and merged into the
  // existing order. The frontier stays current — the next pick() re-checks
  // only what changed since this call.
  void extend(prop::Engine& engine);

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

  // Candidate gates in rank order: level descending, then net id
  // descending.
  const std::vector<ir::NetId>& candidates() const { return candidates_; }
  // The candidates whose unjustified bit is set, in rank order — as of the
  // last extend() or pick(), not re-checked against the engine.
  std::vector<ir::NetId> marked_unjustified() const;

 private:
  static constexpr std::uint32_t kNoRank = ~std::uint32_t{0};

  bool unjustified(const prop::Engine& engine, ir::NetId id) const;
  // Folds the trail changes since the previous call into unjustified_;
  // returns the number of gates re-checked.
  std::int64_t sync(prop::Engine& engine);
  std::int64_t recheck(const prop::Engine& engine, ir::NetId net);
  std::optional<JustifyDecision> justify_gate(const prop::Engine& engine,
                                              ir::NetId id,
                                              const ClauseDb* db) const;

  const ir::Circuit& circuit_;
  std::vector<int> level_;  // per net: distance from the sources
  // Candidate gates sorted by level, deepest first; a gate's rank is its
  // index here, rank_ maps it back (kNoRank for other nets). A net's
  // watchers — the candidates whose status reads it — are its own gate and
  // its readers (prop::Engine::readers) that have a rank.
  std::vector<ir::NetId> candidates_;
  std::vector<std::uint32_t> rank_;
  std::vector<std::uint64_t> unjustified_;  // one bit per rank
  std::vector<ir::NetId> seen_;  // nets of the trail prefix folded in
};

// §4.4 helper, shared with the base heuristic under +P: how many learned
// clauses contain the literal (net = value)?
int relation_satisfaction(const ClauseDb& db, ir::NetId net, bool value);

}  // namespace rtlsat::core

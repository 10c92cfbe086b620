// Conflict analysis on the hybrid implication graph (paper §2.4).
//
// Given the engine's recorded conflict, walks the trail backwards from the
// conflicting antecedents, resolving implication events into their own
// antecedents until a cut of the implication graph remains: Boolean
// assignments and (optionally) word narrowings whose conjunction was
// sufficient for the conflict. The negation of that cut is the learned
// hybrid clause (Σ of Boolean literals and negative word literals), plus
// the non-chronological backtrack level that makes the clause asserting.
//
// The cut construction is first-UIP: events at the conflicting decision
// level are resolved until a single one remains, which becomes the
// asserting literal.
#pragma once

#include <cstdint>
#include <vector>

#include "core/hybrid_clause.h"
#include "prop/engine.h"

namespace rtlsat::core {

struct AnalyzeOptions {
  // Emit negative word literals for data-path narrowings below the current
  // decision level instead of resolving them away into Boolean causes —
  // the hybrid-clause learning of [9]. Off ⟹ learned clauses are purely
  // Boolean (ablation).
  bool hybrid_word_literals = true;
  // Record the trail indices of every event resolved into its antecedents
  // (AnalysisResult::premises) — the interior of the implication-graph cut.
  // Proof logging replays exactly these events, in trail order, to justify
  // the learned clause; off by default so analysis stays allocation-lean.
  bool record_premises = false;
};

struct AnalysisResult {
  // True when the conflict does not depend on any decision: the instance
  // is UNSAT.
  bool empty_clause = false;
  // lits[0] is the asserting literal.
  HybridClause clause;
  std::uint32_t backtrack_level = 0;
  // Implication-graph events resolved into their antecedents while building
  // the cut — a proxy for analysis effort, fed to the observability layer.
  int resolutions = 0;
  // When AnalyzeOptions::record_premises: the resolved events' trail
  // indices in ascending (replay) order. Assuming the learned clause false
  // and re-deriving these events bottom-up reproduces the conflict.
  std::vector<std::int32_t> premises;
};

// One per solver: analyze() keeps its marks and heap across conflicts
// (MiniSat's persistent `seen`), so a conflict costs what it resolves, not
// O(trail + nets) of setup. Event and net marks are stamped with a
// per-call epoch, so starting a call clears them in O(1).
class ConflictAnalyzer {
 public:
  AnalysisResult analyze(const prop::Engine& engine,
                         const AnalyzeOptions& options = {});

 private:
  // A literal pending inclusion, tagged with the level of the event that
  // produced it so the backtrack level can be computed.
  struct TaggedLit {
    HybridLit lit;
    std::uint32_t level = 0;
  };

  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> event_epoch_;  // by trail index: queued
  std::vector<std::uint32_t> net_epoch_;    // by net: literal emitted
  std::vector<std::int32_t> pending_;       // max-heap of trail indices
  std::vector<TaggedLit> collected_;
};

}  // namespace rtlsat::core

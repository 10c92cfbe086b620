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
// asserting literal. The cut is then minimized (Sörensson & Biere,
// "Minimizing Learned Clauses", SAT 2009, lifted to interval events): a
// non-asserting literal is dropped when its event is implied by level-0
// facts and the clause's other literals (see redundant()).
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
  // Literals of the cut that minimization dropped as redundant.
  int minimized = 0;
  // When AnalyzeOptions::record_premises: the trail indices, in ascending
  // (replay) order, of the resolved events and of the events that
  // minimization proved redundant. Assuming the learned clause false and
  // re-deriving these events bottom-up reproduces the conflict.
  std::vector<std::int32_t> premises;
};

// One per solver: analyze() keeps its marks and queue across conflicts
// (MiniSat's persistent `seen`), so a conflict costs what it resolves, not
// O(trail + nets) of setup. Event and net marks are stamped with a
// per-call epoch, so starting a call clears them in O(1).
class ConflictAnalyzer {
 public:
  AnalysisResult analyze(const prop::Engine& engine,
                         const AnalyzeOptions& options = {});

 private:
  // Whether the event at trail index `e` follows from level-0 events and
  // the cut's literals: each antecedent of `e`, and its prev_on_net, is a
  // level-0 event, is covered by the cut's event c on the same net with
  // a ≤ c < e (nested intervals make c imply a), or is itself redundant.
  // The strict c < e keeps the justification well-founded: two literals
  // never justify each other. Decision and assumption events have no
  // antecedents and are never redundant. Results are memoised per call;
  // recursion deeper than kMaxDepth gives up (not redundant). With
  // `premises`, every event proved redundant is appended to it.
  bool redundant(const prop::Engine& engine, std::int32_t e, int depth,
                 std::vector<std::int32_t>* premises);

  static constexpr int kMaxDepth = 40;
  static constexpr std::uint32_t kEpochLimit = std::uint32_t{1} << 31;

  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> event_epoch_;  // by trail index: queued
  // By trail index: 2 · epoch_ + 1 when redundant(), 2 · epoch_ when not.
  std::vector<std::uint32_t> memo_;
  std::vector<std::uint32_t> net_epoch_;  // by net: literal emitted
  std::vector<std::int32_t> net_event_;  // by net: the literal's event
  // By trail index: event queued for the cut. Every bit is cleared again
  // before analyze() returns.
  std::vector<std::uint64_t> pending_;
  std::vector<std::int32_t> collected_;  // the cut: one event per literal
};

}  // namespace rtlsat::core

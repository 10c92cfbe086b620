#include "core/analyze.h"

#include <algorithm>
#include <queue>

#include "util/assert.h"

namespace rtlsat::core {

namespace {

// A literal pending inclusion, tagged with the level of the event that
// produced it so the backtrack level can be computed.
struct TaggedLit {
  HybridLit lit;
  std::uint32_t level = 0;
};

HybridLit negate_event(const prop::Event& ev, bool is_bool_net) {
  if (is_bool_net && ev.cur.is_point()) {
    return HybridLit::boolean(ev.net, ev.cur.lo() == 0);  // ¬(net = v)
  }
  // The event asserted net ∈ cur; its negation is the negative word
  // literal {net, cur}̄ of §2.1.
  return HybridLit::word_not_in(ev.net, ev.cur);
}

}  // namespace

AnalysisResult analyze_conflict(const prop::Engine& engine,
                                const AnalyzeOptions& options) {
  RTLSAT_ASSERT(engine.in_conflict());
  const auto& trail = engine.trail();
  const std::uint32_t current = engine.level();
  const ir::Circuit& circuit = engine.circuit();

  std::priority_queue<std::int32_t> pending;
  std::vector<bool> enqueued(trail.size(), false);
  auto push = [&](std::int32_t e) {
    if (e >= 0 && !enqueued[static_cast<std::size_t>(e)]) {
      enqueued[static_cast<std::size_t>(e)] = true;
      pending.push(e);
    }
  };
  int resolutions = 0;
  std::vector<std::int32_t> premises;
  auto expand = [&](std::int32_t e) {
    ++resolutions;
    if (options.record_premises) premises.push_back(e);
    for (std::int32_t a : engine.antecedents(static_cast<std::size_t>(e)))
      push(a);
    push(trail[static_cast<std::size_t>(e)].prev_on_net);
  };

  for (std::int32_t e : engine.conflict().antecedents) push(e);

  std::vector<TaggedLit> collected;
  // Per-net dedup: events on one net are nested along the trail, so the
  // first literal emitted for a net (highest trail index ⟹ tightest
  // interval) subsumes the rest of that net's chain.
  std::vector<bool> net_done(circuit.num_nets(), false);
  auto emit = [&](const prop::Event& ev) {
    if (net_done[ev.net]) return;
    net_done[ev.net] = true;
    collected.push_back({negate_event(ev, circuit.is_bool(ev.net)), ev.level});
  };

  bool asserting_found = false;
  while (!pending.empty()) {
    const std::int32_t e = pending.top();
    pending.pop();
    const prop::Event& ev = trail[static_cast<std::size_t>(e)];
    if (ev.level == 0) continue;  // universal facts drop out of the cut

    if (ev.level == current && !asserting_found) {
      const bool more_at_current =
          !pending.empty() &&
          trail[static_cast<std::size_t>(pending.top())].level == current;
      const bool bool_point = circuit.is_bool(ev.net) && ev.cur.is_point();
      if (more_at_current || !bool_point) {
        // Resolve towards the unique implication point. Data-path events
        // are always resolved here: the asserting literal must be Boolean
        // so the learned clause is guaranteed to flip something after
        // backtracking (a negative word literal may have an
        // unrepresentable complement). Resolution terminates at the
        // decision event, which is Boolean.
        expand(e);
      } else {
        emit(ev);  // first UIP: the lone remaining current-level event
        asserting_found = true;
      }
      continue;
    }

    // Below the current level (or trailing current-level events reached
    // after the UIP, which can only happen for redundant chains): keep
    // Boolean assignments as literals; data-path narrowings become word
    // literals when hybrid learning is on, else resolve them away.
    const bool is_bool = circuit.is_bool(ev.net);
    if (is_bool && ev.cur.is_point()) {
      emit(ev);
    } else if (options.hybrid_word_literals) {
      emit(ev);
    } else if (ev.kind == prop::ReasonKind::kDecision ||
               ev.kind == prop::ReasonKind::kAssumption) {
      emit(ev);  // nothing upstream to resolve into
    } else {
      expand(e);
    }
  }

  AnalysisResult result;
  result.resolutions = resolutions;
  if (options.record_premises) {
    // The max-heap pops descending; replay wants trail order.
    std::sort(premises.begin(), premises.end());
    result.premises = std::move(premises);
  }
  if (collected.empty()) {
    result.empty_clause = true;
    return result;
  }

  // Asserting literal = the one from the highest level; backtrack level =
  // the highest level among the rest.
  std::size_t top = 0;
  for (std::size_t i = 1; i < collected.size(); ++i) {
    if (collected[i].level > collected[top].level) top = i;
  }
  std::swap(collected[0], collected[top]);
  std::uint32_t bt = 0;
  for (std::size_t i = 1; i < collected.size(); ++i)
    bt = std::max(bt, collected[i].level);

  result.clause.learnt = true;
  result.clause.origin = HybridClause::Origin::kConflict;
  for (const TaggedLit& tl : collected) result.clause.lits.push_back(tl.lit);
  result.backtrack_level = bt;
  return result;
}

}  // namespace rtlsat::core

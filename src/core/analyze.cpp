#include "core/analyze.h"

#include <algorithm>

#include "util/assert.h"

namespace rtlsat::core {

namespace {

HybridLit negate_event(const prop::Event& ev, bool is_bool_net) {
  if (is_bool_net && ev.cur.is_point()) {
    return HybridLit::boolean(ev.net, ev.cur.lo() == 0);  // ¬(net = v)
  }
  // The event asserted net ∈ cur; its negation is the negative word
  // literal {net, cur}̄ of §2.1.
  return HybridLit::word_not_in(ev.net, ev.cur);
}

}  // namespace

AnalysisResult ConflictAnalyzer::analyze(const prop::Engine& engine,
                                         const AnalyzeOptions& options) {
  RTLSAT_ASSERT(engine.in_conflict());
  const auto& trail = engine.trail();
  const std::uint32_t current = engine.level();
  const prop::OpTable& ops = engine.ops();

  if (++epoch_ == 0) {  // wrapped: stale stamps could alias the new epoch
    std::fill(event_epoch_.begin(), event_epoch_.end(), 0);
    std::fill(net_epoch_.begin(), net_epoch_.end(), 0);
    epoch_ = 1;
  }
  if (event_epoch_.size() < trail.size()) event_epoch_.resize(trail.size());
  if (net_epoch_.size() < ops.size()) net_epoch_.resize(ops.size());
  pending_.clear();
  collected_.clear();

  auto push = [&](std::int32_t e) {
    if (e < 0) return;
    std::uint32_t& stamp = event_epoch_[static_cast<std::size_t>(e)];
    if (stamp == epoch_) return;
    stamp = epoch_;
    pending_.push_back(e);
    std::push_heap(pending_.begin(), pending_.end());
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

  // Per-net dedup: events on one net are nested along the trail, so the
  // first literal emitted for a net (highest trail index ⟹ tightest
  // interval) subsumes the rest of that net's chain.
  auto emit = [&](const prop::Event& ev) {
    std::uint32_t& stamp = net_epoch_[ev.net];
    if (stamp == epoch_) return;
    stamp = epoch_;
    collected_.push_back({negate_event(ev, ops.is_bool(ev.net)), ev.level});
  };

  bool asserting_found = false;
  while (!pending_.empty()) {
    std::pop_heap(pending_.begin(), pending_.end());
    const std::int32_t e = pending_.back();
    pending_.pop_back();
    const prop::Event& ev = trail[static_cast<std::size_t>(e)];
    if (ev.level == 0) continue;  // universal facts drop out of the cut

    if (ev.level == current && !asserting_found) {
      const bool more_at_current =
          !pending_.empty() &&
          trail[static_cast<std::size_t>(pending_.front())].level == current;
      const bool bool_point = ops.is_bool(ev.net) && ev.cur.is_point();
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
    const bool is_bool = ops.is_bool(ev.net);
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
  if (collected_.empty()) {
    result.empty_clause = true;
    return result;
  }

  // Asserting literal = the one from the highest level; backtrack level =
  // the highest level among the rest.
  std::size_t top = 0;
  for (std::size_t i = 1; i < collected_.size(); ++i) {
    if (collected_[i].level > collected_[top].level) top = i;
  }
  std::swap(collected_[0], collected_[top]);
  std::uint32_t bt = 0;
  for (std::size_t i = 1; i < collected_.size(); ++i)
    bt = std::max(bt, collected_[i].level);

  result.clause.learnt = true;
  result.clause.origin = HybridClause::Origin::kConflict;
  result.clause.lits.reserve(collected_.size());
  for (const TaggedLit& tl : collected_) result.clause.lits.push_back(tl.lit);
  result.backtrack_level = bt;
  return result;
}

}  // namespace rtlsat::core

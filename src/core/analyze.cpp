#include "core/analyze.h"

#include <algorithm>
#include <bit>

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

  // Wrapped (memo_ holds 2 · epoch_ + 1): stale stamps could alias the
  // new epoch.
  if (++epoch_ == kEpochLimit) {
    for (auto* stamps : {&event_epoch_, &memo_, &net_epoch_})
      std::fill(stamps->begin(), stamps->end(), 0);
    epoch_ = 1;
  }
  if (event_epoch_.size() < trail.size()) {
    event_epoch_.resize(trail.size());
    memo_.resize(trail.size());
  }
  if (net_epoch_.size() < ops.size()) {
    net_epoch_.resize(ops.size());
    net_event_.resize(ops.size());
  }
  collected_.clear();

  // Pending events, as bits by trail index. Antecedents precede the events
  // they imply, so a scan from the top of the trail only ever moves down,
  // visits events latest first, and clears every bit it visits.
  if (pending_.size() * 64 < trail.size())
    pending_.resize((trail.size() + 63) / 64);
  std::size_t queued = 0;      // set bits in pending_
  std::size_t at_current = 0;  // of which at the current level
  std::size_t word = 0;        // no set bit above this word

  auto push = [&](std::int32_t e) {
    if (e < 0) return;
    const auto i = static_cast<std::size_t>(e);
    if (event_epoch_[i] == epoch_) return;
    event_epoch_[i] = epoch_;
    const std::uint32_t level = trail[i].level;
    if (level == 0) return;  // universal facts drop out of the cut
    pending_[i / 64] |= std::uint64_t{1} << (i % 64);
    ++queued;
    if (level == current) ++at_current;
    word = std::max(word, i / 64);
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
  auto emit = [&](std::int32_t e) {
    const ir::NetId net = trail[static_cast<std::size_t>(e)].net;
    std::uint32_t& stamp = net_epoch_[net];
    if (stamp == epoch_) return;
    stamp = epoch_;
    net_event_[net] = e;
    collected_.push_back(e);
  };

  while (queued > 0) {
    while (pending_[word] == 0) --word;
    const int bit = 63 - std::countl_zero(pending_[word]);
    pending_[word] &= ~(std::uint64_t{1} << bit);
    --queued;
    const auto e = static_cast<std::int32_t>(word * 64 + bit);
    const prop::Event& ev = trail[static_cast<std::size_t>(e)];
    const bool boolean = ops.is_bool(ev.net) && ev.cur.is_point();
    if (ev.level == current) {
      // The current level lies on top of the trail, so its events all come
      // first. Resolve towards the unique implication point. Data-path
      // events are always resolved here: the asserting literal must be
      // Boolean so the learned clause is guaranteed to flip something
      // after backtracking (a negative word literal may have an
      // unrepresentable complement). Resolution terminates at the decision
      // event, which is Boolean.
      if (--at_current > 0 || !boolean) {
        expand(e);
      } else {
        emit(e);  // first UIP: the lone remaining current-level event
      }
    } else if (boolean || options.hybrid_word_literals) {
      // Below the current level: keep Boolean assignments as literals;
      // data-path narrowings become word literals when hybrid learning is
      // on, else resolve them away.
      emit(e);
    } else if (ev.kind == prop::ReasonKind::kDecision ||
               ev.kind == prop::ReasonKind::kAssumption) {
      emit(e);  // nothing upstream to resolve into
    } else {
      expand(e);
    }
  }

  AnalysisResult result;
  result.resolutions = resolutions;
  result.empty_clause = collected_.empty();
  if (!result.empty_clause) {
    // Asserting literal = the one from the highest level; backtrack level
    // = the highest level among the kept rest.
    auto level_of = [&](std::int32_t e) {
      return trail[static_cast<std::size_t>(e)].level;
    };
    std::size_t top = 0;
    for (std::size_t i = 1; i < collected_.size(); ++i) {
      if (level_of(collected_[i]) > level_of(collected_[top])) top = i;
    }
    std::swap(collected_[0], collected_[top]);
    std::vector<std::int32_t>* derivations =
        options.record_premises ? &premises : nullptr;
    std::size_t kept = 1;
    for (std::size_t i = 1; i < collected_.size(); ++i) {
      const std::int32_t e = collected_[i];
      if (redundant(engine, e, 0, derivations)) continue;
      collected_[kept++] = e;
      result.backtrack_level = std::max(result.backtrack_level, level_of(e));
    }
    result.minimized = static_cast<int>(collected_.size() - kept);
    collected_.resize(kept);

    result.clause.learnt = true;
    result.clause.origin = HybridClause::Origin::kConflict;
    result.clause.lits.reserve(kept);
    for (const std::int32_t e : collected_) {
      const prop::Event& ev = trail[static_cast<std::size_t>(e)];
      result.clause.lits.push_back(negate_event(ev, ops.is_bool(ev.net)));
    }
  }
  if (options.record_premises) {
    // Replay wants trail order. A word event resolved away below the
    // current level (hybrid_word_literals off) may also have been proved
    // redundant.
    std::sort(premises.begin(), premises.end());
    premises.erase(std::unique(premises.begin(), premises.end()),
                   premises.end());
    result.premises = std::move(premises);
  }
  return result;
}

bool ConflictAnalyzer::redundant(const prop::Engine& engine, std::int32_t e,
                                 int depth,
                                 std::vector<std::int32_t>* premises) {
  const auto i = static_cast<std::size_t>(e);
  if (memo_[i] >> 1 == epoch_) return (memo_[i] & 1) != 0;
  const auto& trail = engine.trail();
  const prop::Event& ev = trail[i];
  auto justified = [&](std::int32_t a) {
    if (a < 0) return true;  // the initial domain
    const prop::Event& ae = trail[static_cast<std::size_t>(a)];
    if (ae.level == 0) return true;
    if (net_epoch_[ae.net] == epoch_) {
      const std::int32_t c = net_event_[ae.net];
      if (a <= c && c < e) return true;
    }
    return redundant(engine, a, depth + 1, premises);
  };
  bool ok = ev.kind != prop::ReasonKind::kDecision &&
            ev.kind != prop::ReasonKind::kAssumption && depth < kMaxDepth;
  if (ok) {
    for (const std::int32_t a : engine.antecedents(i)) {
      if (!justified(a)) {
        ok = false;
        break;
      }
    }
  }
  ok = ok && justified(ev.prev_on_net);
  memo_[i] = epoch_ << 1 | (ok ? 1 : 0);
  if (ok && premises != nullptr) premises->push_back(e);
  return ok;
}

}  // namespace rtlsat::core

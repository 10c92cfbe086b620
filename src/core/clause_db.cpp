#include "core/clause_db.h"

#include <algorithm>

namespace rtlsat::core {

namespace {

LitValue lit_value(const HybridLit& l, const prop::Engine& engine) {
  return l.value(engine.interval(l.net));
}

}  // namespace

std::uint32_t ClauseDb::add(const HybridClause& clause) {
  RTLSAT_ASSERT(!clause.lits.empty());
  for (const HybridLit& l : clause.lits) {
    RTLSAT_ASSERT_MSG(l.net < watchers_.size(),
                      "clause references a net created after this ClauseDb; "
                      "the circuit must be frozen first");
  }
  const std::uint32_t id = static_cast<std::uint32_t>(headers_.size());
  for (const HybridLit& l : clause.lits) {
    ++net_weight_[l.net];
    if (clause.learnt && l.is_bool)
      ++literal_weight_[l.net][l.interval.lo() == 1 ? 1 : 0];
  }
  if (clause.learnt) ++learnt_count_;
  Header h;
  h.begin = static_cast<std::uint32_t>(lits_.size());
  h.size = static_cast<std::uint32_t>(clause.lits.size());
  h.origin = clause.origin;
  h.learnt = clause.learnt;
  headers_.push_back(h);
  lits_.insert(lits_.end(), clause.lits.begin(), clause.lits.end());
  fresh_.push_back(id);
  return id;
}

void ClauseDb::watch(std::uint32_t id, std::size_t lit_index) {
  watchers_[lits_[headers_[id].begin + lit_index].net].push_back(id);
}

// Full examination for a clause entering the database: records watches and
// performs the initial implication/conflict if the clause is already unit
// or false under the current domains.
bool ClauseDb::apply_clause_full(std::uint32_t id, prop::Engine& engine) {
  Header& h = headers_[id];
  RTLSAT_ASSERT_MSG(!h.deleted && h.size > 0, "propagating a deleted clause");
  const std::span<const HybridLit> lits = lits_of(h);
  if (lits.size() == 1) {
    h.watch = {0, 0};
    watch(id, 0);
    switch (lit_value(lits[0], engine)) {
      case LitValue::kTrue: return true;
      case LitValue::kFalse: return imply_or_conflict(id, 0, true, engine);
      case LitValue::kUnknown: return imply_or_conflict(id, 0, false, engine);
    }
  }

  // Pick watches: prefer non-false literals; among false ones prefer the
  // latest-falsified (their events are undone first on backtrack, which is
  // what keeps the watch invariant alive for clauses added while false).
  std::size_t non_false[2] = {SIZE_MAX, SIZE_MAX};
  std::size_t true_lit = SIZE_MAX;
  std::size_t latest_false[2] = {SIZE_MAX, SIZE_MAX};
  std::int32_t latest_events[2] = {-1, -1};
  for (std::size_t i = 0; i < lits.size(); ++i) {
    switch (lit_value(lits[i], engine)) {
      case LitValue::kTrue:
        if (true_lit == SIZE_MAX) true_lit = i;
        [[fallthrough]];
      case LitValue::kUnknown:
        if (non_false[0] == SIZE_MAX) {
          non_false[0] = i;
        } else if (non_false[1] == SIZE_MAX) {
          non_false[1] = i;
        }
        break;
      case LitValue::kFalse: {
        const std::int32_t ev = engine.latest_event(lits[i].net);
        if (ev > latest_events[0]) {
          latest_events[1] = latest_events[0];
          latest_false[1] = latest_false[0];
          latest_events[0] = ev;
          latest_false[0] = i;
        } else if (ev > latest_events[1]) {
          latest_events[1] = ev;
          latest_false[1] = i;
        }
        break;
      }
    }
  }

  auto pick = [&](std::size_t preferred, std::size_t fallback) {
    return preferred != SIZE_MAX ? preferred : fallback;
  };
  std::size_t w0, w1;
  if (non_false[1] != SIZE_MAX) {  // ≥ 2 non-false: plain watch pair
    w0 = non_false[0];
    w1 = non_false[1];
  } else if (non_false[0] != SIZE_MAX) {  // unit
    w0 = non_false[0];
    w1 = pick(latest_false[0], w0);
  } else {  // conflicting
    w0 = latest_false[0];
    w1 = pick(latest_false[1], w0);
  }
  h.watch = {static_cast<std::uint32_t>(w0), static_cast<std::uint32_t>(w1)};
  watch(id, w0);
  if (w1 != w0) watch(id, w1);

  if (non_false[1] != SIZE_MAX || true_lit != SIZE_MAX) return true;
  if (non_false[0] != SIZE_MAX)
    return imply_or_conflict(id, non_false[0], false, engine);
  return imply_or_conflict(id, 0, true, engine);
}

bool ClauseDb::imply_or_conflict(std::uint32_t id, std::size_t unit_index,
                                 bool conflicting, prop::Engine& engine) {
  Header& h = headers_[id];
  if (h.learnt) {
    h.activity += activity_increment_;
    if (h.activity > 1e20) {
      for (Header& other : headers_) {
        if (other.learnt) other.activity *= 1e-20;
      }
      activity_increment_ *= 1e-20;
    }
  }
  const std::span<const HybridLit> lits = lits_of(h);
  antecedents_.clear();
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (!conflicting && i == unit_index) continue;
    const std::int32_t e = engine.latest_event(lits[i].net);
    if (e >= 0) antecedents_.push_back(e);
  }
  if (conflicting) {
    engine.fail(prop::ReasonKind::kClause, id, antecedents_);
    return false;
  }
  const HybridLit& unit = lits[unit_index];
  const Interval target = unit.implied_interval(engine.interval(unit.net));
  // A negative word literal whose complement is not interval-representable
  // cannot be imposed; the clause stays pending (sound, merely lazier).
  if (target == engine.interval(unit.net)) return true;
  return engine.narrow(unit.net, target, prop::ReasonKind::kClause, id,
                       antecedents_);
}

bool ClauseDb::on_watched_event(std::uint32_t id, ir::NetId net,
                                prop::Engine& engine, bool* keep_watch) {
  Header& h = headers_[id];
  auto& w = h.watch;
  *keep_watch = true;
  if (h.deleted) {
    *keep_watch = false;  // lazily unhook reduced clauses
    return true;
  }
  const std::span<const HybridLit> lits = lits_of(h);
  if (lits[w[0]].net != net && lits[w[1]].net != net) {
    *keep_watch = false;  // stale entry left behind by a moved watch
    return true;
  }
  // Satisfied through a watched literal: nothing to do.
  if (lit_value(lits[w[0]], engine) == LitValue::kTrue ||
      lit_value(lits[w[1]], engine) == LitValue::kTrue) {
    return true;
  }

  for (int s = 0; s < 2; ++s) {
    const std::uint32_t wi = w[s];
    if (lits[wi].net != net) continue;
    if (lit_value(lits[wi], engine) != LitValue::kFalse) continue;
    // Try to move this watch to a non-false, unwatched literal.
    std::size_t replacement = SIZE_MAX;
    for (std::size_t i = 0; i < lits.size(); ++i) {
      if (i == w[0] || i == w[1]) continue;
      if (lit_value(lits[i], engine) != LitValue::kFalse) {
        replacement = i;
        break;
      }
    }
    if (replacement != SIZE_MAX) {
      w[s] = static_cast<std::uint32_t>(replacement);
      watch(id, replacement);
      continue;
    }
    // No replacement: unit on the other watch, or conflicting.
    const std::uint32_t other = w[1 - s];
    const LitValue v = other == wi ? LitValue::kFalse
                                   : lit_value(lits[other], engine);
    if (v == LitValue::kFalse)
      return imply_or_conflict(id, 0, /*conflicting=*/true, engine);
    if (!imply_or_conflict(id, other, /*conflicting=*/false, engine))
      return false;
  }
  *keep_watch = lits[w[0]].net == net || lits[w[1]].net == net;
  return true;
}

std::size_t ClauseDb::reduce(const prop::Engine& engine) {
  // Clauses currently acting as implication reasons must survive: conflict
  // analysis dereferences them through the trail. Clauses still awaiting
  // their first propagation (fresh — typically the clause just learned
  // from the current conflict) must survive too: deleting them would lose
  // the asserting implication and leave dangling watch setup.
  std::vector<bool> locked(headers_.size(), false);
  for (const prop::Event& ev : engine.trail()) {
    if (ev.kind == prop::ReasonKind::kClause) locked[ev.reason_id] = true;
  }
  for (const std::uint32_t id : fresh_) locked[id] = true;
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t id = 0; id < headers_.size(); ++id) {
    const Header& h = headers_[id];
    if (h.learnt && !h.deleted && !locked[id] && h.size > 2)
      candidates.push_back(id);
  }
  std::sort(candidates.begin(), candidates.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return headers_[a].activity < headers_[b].activity;
            });
  const std::size_t deleted = candidates.size() / 2;
  for (std::size_t i = 0; i < deleted; ++i) {
    Header& h = headers_[candidates[i]];
    for (const HybridLit& l : lits_of(h)) {
      --net_weight_[l.net];
      if (l.is_bool) --literal_weight_[l.net][l.interval.lo() == 1 ? 1 : 0];
    }
    h.deleted = true;
    --learnt_count_;
  }
  if (deleted > 0) compact();
  return deleted;
}

void ClauseDb::compact() {
  // Survivors keep their id order, so each slides down (or stays put):
  // a forward copy never overwrites literals it has yet to read.
  std::uint32_t end = 0;
  for (Header& h : headers_) {
    if (h.deleted) h.size = 0;
    std::copy_n(lits_.begin() + h.begin, h.size, lits_.begin() + end);
    h.begin = end;
    end += h.size;
  }
  lits_.resize(end);
  lits_.shrink_to_fit();
}

bool ClauseDb::propagate(prop::Engine& engine, std::size_t* cursor) {
  // Rewind past any events undone by engine rollbacks since the last call.
  *cursor = std::min(*cursor, engine.consume_trail_low_water(
                                  prop::Engine::TrailReader::kClauses));

  // Clauses added since the last call get their watches and initial check.
  while (!fresh_.empty()) {
    const std::uint32_t id = fresh_.back();
    fresh_.pop_back();
    if (!apply_clause_full(id, engine)) return false;
  }

  const auto& trail = engine.trail();
  while (*cursor < trail.size()) {
    const ir::NetId net = trail[*cursor].net;
    ++*cursor;
    auto& wlist = watchers_[net];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < wlist.size(); ++i) {
      const std::uint32_t id = wlist[i];
      bool keep_watch = true;
      const bool ok = on_watched_event(id, net, engine, &keep_watch);
      if (keep_watch) wlist[keep++] = id;
      if (!ok) {
        for (std::size_t j = i + 1; j < wlist.size(); ++j)
          wlist[keep++] = wlist[j];
        wlist.resize(keep);
        return false;
      }
    }
    wlist.resize(keep);
  }
  return true;
}

}  // namespace rtlsat::core

#include "core/justify.h"

#include <algorithm>
#include <bit>

#include "ir/analysis.h"

namespace rtlsat::core {

using ir::NetId;
using ir::Node;
using ir::Op;

Justifier::Justifier(const ir::Circuit& circuit)
    : circuit_(circuit),
      fanout_count_(ir::fanout_counts(circuit)),
      level_(ir::levelize(circuit)) {
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    const Node& n = circuit.node(id);
    if (ir::is_boolean_gate(n.op) || (n.op == Op::kMux && n.width > 1))
      candidates_.push_back(id);
  }
  std::sort(candidates_.begin(), candidates_.end(), [this](NetId a, NetId b) {
    return level_[a] != level_[b] ? level_[a] > level_[b] : a > b;
  });
  // Counting sort of (net, rank) pairs into the per-net watch lists.
  watch_begin_.assign(circuit.num_nets() + 1, 0);
  const auto for_each_watch = [&](auto&& fn) {
    for (std::uint32_t r = 0; r < candidates_.size(); ++r) {
      fn(candidates_[r], r);
      for (NetId o : circuit.node(candidates_[r]).operands) fn(o, r);
    }
  };
  for_each_watch([&](NetId n, std::uint32_t) { ++watch_begin_[n + 1]; });
  for (std::size_t n = 0; n < circuit.num_nets(); ++n)
    watch_begin_[n + 1] += watch_begin_[n];
  watch_.resize(watch_begin_.back());
  std::vector<std::uint32_t> fill(watch_begin_.begin(), watch_begin_.end() - 1);
  for_each_watch([&](NetId n, std::uint32_t r) { watch_[fill[n]++] = r; });
  unjustified_.assign((candidates_.size() + 63) / 64, 0);
}

bool Justifier::unjustified(const prop::Engine& engine, NetId id) const {
  const Node& n = circuit_.node(id);
  switch (n.op) {
    case Op::kAnd:
    case Op::kOr: {
      // Unjustified at the controlled value when no input currently
      // explains it (the implied value is handled by propagation).
      const int controlled = n.op == Op::kAnd ? 0 : 1;
      if (engine.bool_value(id) != controlled) return false;
      for (NetId o : n.operands) {
        if (engine.bool_value(o) == controlled) return false;
      }
      return true;
    }
    case Op::kXor:
      // Two free inputs leave a genuine binary choice.
      return engine.bool_value(id) >= 0 &&
             engine.bool_value(n.operands[0]) < 0 &&
             engine.bool_value(n.operands[1]) < 0;
    case Op::kNot:
      return false;  // always resolved by implication
    case Op::kMux: {
      // Def. 4.1 rule 2: Boolean input free and the output interval not
      // uniquely determined by the input intervals.
      if (engine.bool_value(n.operands[0]) >= 0) return false;
      const Interval& out = engine.interval(id);
      const Interval hull =
          engine.interval(n.operands[1]).hull(engine.interval(n.operands[2]));
      return !out.contains(hull);
    }
    default:
      return false;
  }
}

std::optional<JustifyDecision> Justifier::justify_gate(
    const prop::Engine& engine, NetId id, const ClauseDb* db) const {
  const Node& n = circuit_.node(id);
  auto weighted_value = [&](NetId net, bool fallback) {
    if (db == nullptr) return fallback;
    const int w1 = relation_satisfaction(*db, net, true);
    const int w0 = relation_satisfaction(*db, net, false);
    if (w1 == w0) return fallback;
    return w1 > w0;
  };

  switch (n.op) {
    case Op::kAnd:
    case Op::kOr: {
      const bool controlled = n.op == Op::kOr;
      // Choose the free input with the highest fanout, breaking ties
      // towards the inputs (lowest level), per §4.2's heuristics.
      NetId best = ir::kNoNet;
      for (NetId o : n.operands) {
        if (engine.bool_value(o) >= 0) continue;
        if (best == ir::kNoNet || fanout_count_[o] > fanout_count_[best] ||
            (fanout_count_[o] == fanout_count_[best] &&
             level_[o] < level_[best])) {
          best = o;
        }
      }
      if (best == ir::kNoNet) return std::nullopt;
      return JustifyDecision{best, controlled};
    }
    case Op::kXor: {
      const NetId a = n.operands[0];
      const NetId b = n.operands[1];
      const NetId pick = fanout_count_[a] >= fanout_count_[b] ? a : b;
      return JustifyDecision{pick, weighted_value(pick, false)};
    }
    case Op::kMux: {
      const NetId sel = n.operands[0];
      const Interval& out = engine.interval(id);
      const bool then_ok = engine.interval(n.operands[1]).intersects(out);
      const bool else_ok = engine.interval(n.operands[2]).intersects(out);
      // Both branches dead would be a propagation conflict, and one-dead
      // would have forced the select; reaching here with neither forced
      // means both are live — a free choice, weighted per §4.4.
      if (then_ok && else_ok) return JustifyDecision{sel, weighted_value(sel, true)};
      if (then_ok) return JustifyDecision{sel, true};
      if (else_ok) return JustifyDecision{sel, false};
      RTLSAT_UNREACHABLE("mux with both branches dead survived propagation");
    }
    default:
      return std::nullopt;
  }
}

std::int64_t Justifier::recheck(const prop::Engine& engine, NetId net) {
  for (std::uint32_t i = watch_begin_[net]; i < watch_begin_[net + 1]; ++i) {
    const std::uint32_t r = watch_[i];
    const std::uint64_t bit = std::uint64_t{1} << (r % 64);
    if (unjustified(engine, candidates_[r])) {
      unjustified_[r / 64] |= bit;
    } else {
      unjustified_[r / 64] &= ~bit;
    }
  }
  return watch_begin_[net + 1] - watch_begin_[net];
}

std::int64_t Justifier::sync(prop::Engine& engine) {
  const auto& trail = engine.trail();
  const std::size_t low = std::min(
      engine.consume_trail_low_water(prop::Engine::TrailReader::kFrontier),
      seen_.size());
  std::int64_t checks = 0;
  if (!primed_) {
    for (std::uint32_t r = 0; r < candidates_.size(); ++r) {
      if (unjustified(engine, candidates_[r]))
        unjustified_[r / 64] |= std::uint64_t{1} << (r % 64);
    }
    checks += static_cast<std::int64_t>(candidates_.size());
    primed_ = true;
    for (const prop::Event& ev : trail) seen_.push_back(ev.net);
    return checks;
  }
  // Undone events: their nets are back to older intervals.
  for (std::size_t i = low; i < seen_.size(); ++i)
    checks += recheck(engine, seen_[i]);
  seen_.resize(low);
  for (std::size_t i = low; i < trail.size(); ++i) {
    checks += recheck(engine, trail[i].net);
    seen_.push_back(trail[i].net);
  }
  return checks;
}

std::optional<JustifyDecision> Justifier::pick(prop::Engine& engine,
                                               const ClauseDb* db,
                                               std::int64_t* scanned) {
  std::int64_t examined = sync(engine);
  std::optional<JustifyDecision> decision;
  for (std::size_t w = 0; w < unjustified_.size() && !decision; ++w) {
    for (std::uint64_t bits = unjustified_[w]; bits != 0 && !decision;
         bits &= bits - 1) {
      ++examined;
      const std::size_t r = w * 64 + std::countr_zero(bits);
      decision = justify_gate(engine, candidates_[r], db);
    }
  }
  if (scanned != nullptr) *scanned += examined;
  return decision;
}

std::size_t Justifier::frontier_size(const prop::Engine& engine) const {
  std::size_t n = 0;
  for (NetId id : candidates_) {
    if (unjustified(engine, id)) ++n;
  }
  return n;
}

int relation_satisfaction(const ClauseDb& db, ir::NetId net, bool value) {
  return db.bool_literal_weight(net, value);
}

}  // namespace rtlsat::core

#include "core/justify.h"

#include <algorithm>
#include <bit>

namespace rtlsat::core {

using ir::NetId;
using ir::Node;
using ir::Op;

namespace {
bool is_candidate(const Node& n) {
  return ir::is_boolean_gate(n.op) || (n.op == Op::kMux && n.width > 1);
}
}  // namespace

Justifier::Justifier(prop::Engine& engine) : circuit_(engine.circuit()) {
  extend(engine);
}

void Justifier::extend(prop::Engine& engine) {
  const auto first = static_cast<NetId>(level_.size());
  const NetId num_nets = circuit_.num_nets();
  if (first == num_nets) return;
  // New nets have no rank yet, so the fold re-checks old candidates only;
  // the new ones are checked against the current domains below.
  rank_.resize(num_nets, kNoRank);
  sync(engine);
  level_.resize(num_nets);
  std::vector<NetId> fresh;
  for (NetId id = first; id < num_nets; ++id) {
    const Node& n = circuit_.node(id);
    int max_in = -1;
    for (NetId o : n.operands) max_in = std::max(max_in, level_[o]);
    level_[id] = ir::is_source(n.op) ? 0 : max_in + 1;
    if (is_candidate(n)) fresh.push_back(id);
  }
  const auto deeper = [this](NetId a, NetId b) {
    return level_[a] != level_[b] ? level_[a] > level_[b] : a > b;
  };
  std::sort(fresh.begin(), fresh.end(), deeper);
  std::vector<NetId> merged(candidates_.size() + fresh.size());
  std::merge(candidates_.begin(), candidates_.end(), fresh.begin(),
             fresh.end(), merged.begin(), deeper);
  // One pass re-ranks the merged order and carries each old candidate's bit
  // to its new rank.
  std::vector<std::uint64_t> bits((merged.size() + 63) / 64, 0);
  for (std::uint32_t r = 0; r < merged.size(); ++r) {
    const NetId id = merged[r];
    const std::uint32_t old = rank_[id];
    const bool bit = old != kNoRank ? (unjustified_[old / 64] >> (old % 64)) & 1
                                    : unjustified(engine, id);
    if (bit) bits[r / 64] |= std::uint64_t{1} << (r % 64);
    rank_[id] = r;
  }
  candidates_ = std::move(merged);
  unjustified_ = std::move(bits);
}

bool Justifier::unjustified(const prop::Engine& engine, NetId id) const {
  const prop::OpTable& ops = engine.ops();
  const auto operands = ops.operands(id);
  switch (ops.op(id)) {
    case Op::kAnd:
    case Op::kOr: {
      // Unjustified at the controlled value when no input currently
      // explains it (the implied value is handled by propagation).
      const int controlled = ops.op(id) == Op::kAnd ? 0 : 1;
      if (engine.bool_value(id) != controlled) return false;
      for (NetId o : operands) {
        if (engine.bool_value(o) == controlled) return false;
      }
      return true;
    }
    case Op::kXor:
      // Two free inputs leave a genuine binary choice.
      return engine.bool_value(id) >= 0 &&
             engine.bool_value(operands[0]) < 0 &&
             engine.bool_value(operands[1]) < 0;
    case Op::kNot:
      return false;  // always resolved by implication
    case Op::kMux: {
      // Def. 4.1 rule 2: Boolean input free and the output interval not
      // uniquely determined by the input intervals.
      if (engine.bool_value(operands[0]) >= 0) return false;
      const Interval& out = engine.interval(id);
      const Interval hull =
          engine.interval(operands[1]).hull(engine.interval(operands[2]));
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
      std::size_t best_fanout = 0;
      for (NetId o : n.operands) {
        if (engine.bool_value(o) >= 0) continue;
        const std::size_t fo = engine.readers(o).size();
        if (best == ir::kNoNet || fo > best_fanout ||
            (fo == best_fanout && level_[o] < level_[best])) {
          best = o;
          best_fanout = fo;
        }
      }
      if (best == ir::kNoNet) return std::nullopt;
      return JustifyDecision{best, controlled};
    }
    case Op::kXor: {
      const NetId a = n.operands[0];
      const NetId b = n.operands[1];
      const NetId pick =
          engine.readers(a).size() >= engine.readers(b).size() ? a : b;
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
  std::int64_t checks = 0;
  const auto check = [&](NetId id) {
    const std::uint32_t r = rank_[id];
    if (r == kNoRank) return;
    ++checks;
    const std::uint64_t bit = std::uint64_t{1} << (r % 64);
    if (unjustified(engine, id)) {
      unjustified_[r / 64] |= bit;
    } else {
      unjustified_[r / 64] &= ~bit;
    }
  };
  check(net);
  for (NetId reader : engine.readers(net)) check(reader);
  return checks;
}

std::int64_t Justifier::sync(prop::Engine& engine) {
  const auto& trail = engine.trail();
  const std::size_t low = std::min(
      engine.consume_trail_low_water(prop::Engine::TrailReader::kFrontier),
      seen_.size());
  std::int64_t checks = 0;
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

std::vector<NetId> Justifier::marked_unjustified() const {
  std::vector<NetId> marked;
  for (std::uint32_t r = 0; r < candidates_.size(); ++r) {
    if ((unjustified_[r / 64] >> (r % 64)) & 1)
      marked.push_back(candidates_[r]);
  }
  return marked;
}

int relation_satisfaction(const ClauseDb& db, ir::NetId net, bool value) {
  return db.bool_literal_weight(net, value);
}

}  // namespace rtlsat::core

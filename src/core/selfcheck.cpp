#include "core/selfcheck.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "ir/analysis.h"
#include "util/strings.h"

namespace rtlsat::core::selfcheck {

using ir::NetId;

namespace {

// The domain a net holds before any trail event touches it.
Interval initial_domain(const ir::Circuit& circuit, NetId net) {
  const ir::Node& node = circuit.node(net);
  return node.op == ir::Op::kConst ? Interval::point(node.imm)
                                   : circuit.domain(net);
}

}  // namespace

std::vector<std::string> check_engine(const prop::Engine& engine) {
  std::vector<std::string> violations;
  const auto bad = [&](std::string message) {
    violations.push_back(std::move(message));
  };
  const ir::Circuit& circuit = engine.circuit();
  const auto& trail = engine.trail();

  std::vector<std::int32_t> last_on_net(circuit.num_nets(), -1);
  std::uint32_t prev_level = 0;
  for (std::size_t i = 0; i < trail.size(); ++i) {
    const prop::Event& ev = trail[i];
    if (ev.net >= circuit.num_nets()) {
      bad(str_format("event %zu references net n%u past the circuit", i,
                     ev.net));
      continue;
    }
    if (ev.cur.is_empty())
      bad(str_format("event %zu on n%u has an empty interval", i, ev.net));
    if (!ev.prev.contains(ev.cur) || ev.cur == ev.prev) {
      bad(str_format("event %zu on n%u is not a strict narrowing: %s -> %s",
                     i, ev.net, ev.prev.to_string().c_str(),
                     ev.cur.to_string().c_str()));
    }
    if (ev.level < prev_level) {
      bad(str_format("event %zu at level %u follows level %u — trail levels "
                     "must be nondecreasing",
                     i, ev.level, prev_level));
    }
    prev_level = ev.level;
    if (ev.level > engine.level()) {
      bad(str_format("event %zu at level %u exceeds the engine level %u", i,
                     ev.level, engine.level()));
    }
    for (const std::int32_t a : engine.antecedents(i)) {
      if (a < 0 || static_cast<std::size_t>(a) >= i) {
        bad(str_format("event %zu has antecedent %d that does not strictly "
                       "precede it — the implication graph has a cycle",
                       i, a));
      }
    }
    if (ev.kind == prop::ReasonKind::kNode &&
        ev.reason_id >= circuit.num_nets()) {
      bad(str_format("event %zu blames node n%u past the circuit", i,
                     ev.reason_id));
    }
    if (ev.prev_on_net != last_on_net[ev.net]) {
      bad(str_format("event %zu on n%u chains to event %d, but the previous "
                     "event on that net is %d",
                     i, ev.net, ev.prev_on_net, last_on_net[ev.net]));
    } else if (ev.prev_on_net >= 0) {
      if (trail[ev.prev_on_net].cur != ev.prev) {
        bad(str_format("event %zu on n%u starts from %s but its predecessor "
                       "left %s",
                       i, ev.net, ev.prev.to_string().c_str(),
                       trail[ev.prev_on_net].cur.to_string().c_str()));
      }
    } else if (ev.prev != initial_domain(circuit, ev.net)) {
      bad(str_format("first event on n%u starts from %s, not the initial "
                     "domain %s",
                     ev.net, ev.prev.to_string().c_str(),
                     initial_domain(circuit, ev.net).to_string().c_str()));
    }
    last_on_net[ev.net] = static_cast<std::int32_t>(i);
  }

  for (NetId net = 0; net < circuit.num_nets(); ++net) {
    if (engine.latest_event(net) != last_on_net[net]) {
      bad(str_format("latest_event(n%u) is %d, trail says %d", net,
                     engine.latest_event(net), last_on_net[net]));
      continue;
    }
    const Interval expected =
        last_on_net[net] >= 0 ? trail[last_on_net[net]].cur
                              : initial_domain(circuit, net);
    if (engine.interval(net) != expected) {
      bad(str_format("domain of n%u is %s, trail implies %s", net,
                     engine.interval(net).to_string().c_str(),
                     expected.to_string().c_str()));
    }
  }

  if (engine.in_conflict()) {
    for (const std::int32_t a : engine.conflict().antecedents) {
      if (a < 0 || static_cast<std::size_t>(a) >= trail.size())
        bad(str_format("conflict antecedent %d is not on the trail", a));
    }
  }
  return violations;
}

std::vector<std::string> check_clause_db(const ClauseDb& db,
                                         const prop::Engine& engine) {
  std::vector<std::string> violations;
  const auto bad = [&](std::string message) {
    violations.push_back(std::move(message));
  };
  const std::size_t num_nets = engine.circuit().num_nets();

  std::vector<int> expected_weight(num_nets, 0);
  std::vector<std::array<int, 2>> expected_lit_weight(num_nets, {0, 0});
  std::size_t expected_learnt = 0;

  for (std::uint32_t id = 0; id < db.size(); ++id) {
    const ClauseView c = db.clause(id);
    if (c.deleted) continue;
    if (c.lits.empty()) {
      bad(str_format("live clause %u has no literals", id));
      continue;
    }
    if (c.learnt) ++expected_learnt;
    for (const HybridLit& l : c.lits) {
      if (l.net >= num_nets) {
        bad(str_format("clause %u literal references net n%u past the "
                       "circuit",
                       id, l.net));
        continue;
      }
      ++expected_weight[l.net];
      if (c.learnt && l.is_bool)
        ++expected_lit_weight[l.net][l.interval.lo() == 1 ? 1 : 0];
    }

    const auto& w = db.watch_pair(id);
    for (const std::uint32_t wi : w) {
      if (wi >= c.lits.size()) {
        bad(str_format("clause %u watches literal index %u of %zu", id, wi,
                       c.lits.size()));
        continue;
      }
      const NetId net = c.lits[wi].net;
      const auto& list = db.watch_list(net);
      bool found = false;
      for (const std::uint32_t entry : list) found = found || entry == id;
      if (!found) {
        bad(str_format("clause %u watches n%u but is missing from that "
                       "net's watcher list",
                       id, net));
      }
    }

    // Semantic checks only make sense at a propagation fixpoint.
    if (db.fresh_pending() || engine.in_conflict()) continue;
    std::size_t false_count = 0;
    std::size_t unknown_index = c.lits.size();
    bool any_true = false;
    for (std::size_t i = 0; i < c.lits.size(); ++i) {
      switch (c.lits[i].value(engine.interval(c.lits[i].net))) {
        case LitValue::kTrue: any_true = true; break;
        case LitValue::kFalse: ++false_count; break;
        case LitValue::kUnknown: unknown_index = i; break;
      }
    }
    if (!any_true && false_count == c.lits.size()) {
      bad(str_format("clause %u is all-false at a propagation fixpoint — a "
                     "conflict was missed",
                     id));
    } else if (!any_true && false_count + 1 == c.lits.size() &&
               c.lits[unknown_index].is_bool) {
      bad(str_format("clause %u is unit on unassigned Boolean n%u at a "
                     "propagation fixpoint — an implication was missed",
                     id, c.lits[unknown_index].net));
    }
  }

  for (NetId net = 0; net < num_nets; ++net) {
    if (db.net_weight(net) != expected_weight[net]) {
      bad(str_format("net_weight(n%u) is %d, live clauses say %d", net,
                     db.net_weight(net), expected_weight[net]));
    }
    for (int v = 0; v <= 1; ++v) {
      if (db.bool_literal_weight(net, v != 0) != expected_lit_weight[net][v]) {
        bad(str_format("bool_literal_weight(n%u, %d) is %d, live learnt "
                       "clauses say %d",
                       net, v, db.bool_literal_weight(net, v != 0),
                       expected_lit_weight[net][v]));
      }
    }
  }
  if (db.learnt_count() != expected_learnt) {
    bad(str_format("learnt_count() is %zu, live clauses say %zu",
                   db.learnt_count(), expected_learnt));
  }
  return violations;
}

std::vector<std::string> check_asserting_clause(const HybridClause& clause,
                                                const prop::Engine& engine) {
  std::vector<std::string> violations;
  if (clause.lits.empty()) {
    violations.push_back("learned clause is empty");
    return violations;
  }
  for (std::size_t i = 0; i < clause.lits.size(); ++i) {
    const HybridLit& l = clause.lits[i];
    const LitValue v = l.value(engine.interval(l.net));
    if (i == 0) {
      if (v != LitValue::kUnknown) {
        violations.push_back(str_format(
            "asserting literal %s is %s after backtracking, expected "
            "unknown",
            l.to_string(engine.circuit()).c_str(),
            v == LitValue::kTrue ? "already true" : "still false"));
      }
      continue;
    }
    if (v == LitValue::kTrue) {
      violations.push_back(
          str_format("learned clause is satisfied by literal %s after "
                     "backtracking — it asserts nothing",
                     l.to_string(engine.circuit()).c_str()));
    } else if (l.is_bool && v != LitValue::kFalse) {
      // Word literals may relax to unknown when the backtrack undoes part
      // of a narrowing; Boolean assignments at levels ≤ the backtrack
      // level must still be intact.
      violations.push_back(
          str_format("non-asserting Boolean literal %s is unassigned after "
                     "backtracking — the clause is not asserting",
                     l.to_string(engine.circuit()).c_str()));
    }
  }
  return violations;
}

std::vector<std::string> check_interval_soundness(
    const prop::Engine& engine,
    const std::unordered_map<ir::NetId, std::int64_t>& input_values) {
  std::vector<std::string> violations;
  const ir::Circuit& circuit = engine.circuit();
  const std::vector<std::int64_t> values = circuit.evaluate(input_values);
  for (NetId net = 0; net < circuit.num_nets(); ++net) {
    if (!engine.interval(net).contains(values[net])) {
      violations.push_back(str_format(
          "interval %s of n%u '%s' excludes the concrete value %lld",
          engine.interval(net).to_string().c_str(), net,
          circuit.net_name(net).c_str(),
          static_cast<long long>(values[net])));
    }
  }
  return violations;
}

std::vector<std::string> check_growth(const prop::Engine& engine,
                                      const Justifier* justifier) {
  std::vector<std::string> violations;
  const ir::Circuit& circuit = engine.circuit();
  if (engine.ops() != prop::OpTable(circuit))
    violations.push_back("operator table differs from a rebuild");
  const auto fanouts = ir::fanouts(circuit);
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    if (!std::ranges::equal(engine.readers(id), fanouts[id])) {
      violations.push_back(str_format(
          "reader list of n%u has %zu entries, a rebuild has %zu", id,
          engine.readers(id).size(), fanouts[id].size()));
    }
  }
  if (justifier == nullptr) return violations;
  prop::Engine snapshot = engine;
  const Justifier fresh(snapshot);
  if (justifier->candidates() != fresh.candidates())
    violations.push_back("justifier candidate order differs from a rebuild");
  if (justifier->marked_unjustified() != fresh.marked_unjustified()) {
    violations.push_back(
        "justifier unjustified marks differ from a rebuild over the current "
        "domains");
  }
  return violations;
}

void enforce(const std::vector<std::string>& violations, const char* where) {
  if (violations.empty()) return;
  std::fprintf(stderr, "rtlsat: self-check failed at %s (%zu violation%s):\n",
               where, violations.size(), violations.size() == 1 ? "" : "s");
  for (const std::string& v : violations)
    std::fprintf(stderr, "  - %s\n", v.c_str());
  std::abort();
}

}  // namespace rtlsat::core::selfcheck

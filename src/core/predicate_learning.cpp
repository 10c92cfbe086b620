#include "core/predicate_learning.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "core/deduce.h"
#include "core/proof_log.h"
#include "ir/analysis.h"
#include "trace/trace.h"
#include "util/log.h"
#include "util/timer.h"

namespace rtlsat::core {

namespace {

using ir::NetId;
using ir::Node;
using ir::Op;

// One way of satisfying a probed gate value: a small conjunction of Boolean
// assignments applied one recursion level deeper (paper §2.3, Fig. 1).
struct Way {
  std::vector<std::pair<NetId, bool>> assignments;
};

// Enumerates the complete set of ways the driver gate of `b` can produce
// value `v`, given the current (post-probe) assignment. Fewer than two ways
// means there is no branching to learn from.
std::vector<Way> enumerate_ways(const ir::Circuit& circuit,
                                const prop::Engine& engine, NetId b, bool v) {
  const Node& n = circuit.node(b);
  std::vector<Way> ways;
  switch (n.op) {
    case Op::kOr:
    case Op::kAnd: {
      // OR at 1 / AND at 0: each free input set to the controlling value is
      // one way. An input already at the controlling value would make the
      // probe a direct implication — no branching left.
      const bool controlling = n.op == Op::kOr;
      if (v != controlling) return ways;
      for (NetId o : n.operands) {
        if (engine.bool_value(o) == (controlling ? 1 : 0)) return {};
      }
      for (NetId o : n.operands) {
        if (engine.bool_value(o) < 0) ways.push_back({{{o, controlling}}});
      }
      return ways;
    }
    case Op::kXor: {
      const NetId a = n.operands[0];
      const NetId c = n.operands[1];
      if (engine.bool_value(a) >= 0 || engine.bool_value(c) >= 0) return {};
      ways.push_back({{{a, false}, {c, v}}});
      ways.push_back({{{a, true}, {c, !v}}});
      return ways;
    }
    case Op::kMux: {
      if (n.width != 1) return {};
      const NetId sel = n.operands[0];
      if (engine.bool_value(sel) >= 0) return {};
      for (int arm = 0; arm < 2; ++arm) {
        const NetId branch = arm == 1 ? n.operands[1] : n.operands[2];
        const int cur = engine.bool_value(branch);
        if (cur >= 0 && cur != (v ? 1 : 0)) continue;  // statically dead arm
        Way way;
        way.assignments.push_back({sel, arm == 1});
        if (cur < 0) way.assignments.push_back({branch, v});
        ways.push_back(std::move(way));
      }
      return ways;
    }
    default:
      return ways;  // comparators/sources: no finite branching ways
  }
}

// Implications observed one level deep: Boolean assignments and data-path
// narrowings.
struct Implications {
  std::unordered_map<NetId, int> booleans;
  std::unordered_map<NetId, Interval> words;
};

Implications collect_level_implications(const prop::Engine& engine,
                                        std::uint32_t level) {
  Implications impl;
  const auto& trail = engine.trail();
  for (std::size_t i = trail.size(); i > 0; --i) {
    const prop::Event& ev = trail[i - 1];
    if (ev.level < level) break;  // levels are monotone along the trail
    if (engine.circuit().is_bool(ev.net)) {
      if (ev.cur.is_point())
        impl.booleans[ev.net] = static_cast<int>(ev.cur.lo());
    } else if (!impl.words.contains(ev.net)) {
      impl.words.emplace(ev.net, ev.cur);  // latest (tightest) wins
    }
  }
  return impl;
}

void intersect(Implications& common, const Implications& next) {
  std::erase_if(common.booleans, [&](const auto& kv) {
    auto it = next.booleans.find(kv.first);
    return it == next.booleans.end() || it->second != kv.second;
  });
  for (auto it = common.words.begin(); it != common.words.end();) {
    auto jt = next.words.find(it->first);
    if (jt == next.words.end()) {
      it = common.words.erase(it);
    } else {
      it->second = it->second.hull(jt->second);
      ++it;
    }
  }
}

// Canonical key for duplicate suppression across contrapositive probes.
std::string clause_key(const HybridClause& c) {
  std::vector<std::string> parts;
  for (const HybridLit& l : c.lits) {
    parts.push_back(std::to_string(l.net) + (l.is_bool ? "b" : "w") +
                    (l.positive ? "+" : "-") + std::to_string(l.interval.lo()) +
                    ":" + std::to_string(l.interval.hi()));
  }
  std::sort(parts.begin(), parts.end());
  std::string key;
  for (const auto& p : parts) key += p + "|";
  return key;
}

}  // namespace

PredicateLearningReport run_predicate_learning(
    prop::Engine& engine, ClauseDb& db, std::size_t* clause_cursor,
    const PredicateLearningOptions& options) {
  PredicateLearningReport report;
  Timer timer;
  // Every exit, early ones included, reports the time spent so far.
  const auto finish = [&] {
    report.seconds = timer.seconds();
    return report;
  };
  if (options.max_relations <= 0) return finish();
  RTLSAT_ASSERT(engine.level() == 0 && !engine.in_conflict());
  trace::Tracer* tracer =
      options.tracer != nullptr ? options.tracer : &trace::global();

  const ir::Circuit& circuit = engine.circuit();
  std::vector<NetId> candidates = ir::predicate_logic_cone(circuit);
  const auto level = ir::levelize(circuit);
  std::sort(candidates.begin(), candidates.end(), [&](NetId a, NetId b) {
    return level[a] != level[b] ? level[a] < level[b] : a < b;
  });

  std::set<std::string> seen_clauses;
  std::vector<HybridClause> pending;
  WordProofLogger* proof = options.proof;

  // Commits the clauses gathered during a probe once the engine is back at
  // level 0. Returns false when the instance is refuted outright.
  auto commit_pending = [&]() -> bool {
    RTLSAT_ASSERT(engine.level() == 0);
    for (HybridClause& c : pending) {
      const std::string key = clause_key(c);
      if (!seen_clauses.insert(key).second) continue;
      if (c.lits.size() == 1) {
        ++report.units_learned;
        tracer->record(trace::EventKind::kLearnedUnit, 0, c.lits[0].net,
                       c.lits[0].is_bool ? c.lits[0].interval.lo() : -1);
      } else {
        ++report.relations_learned;
        tracer->record(trace::EventKind::kLearnedRelation, 0,
                       static_cast<std::int64_t>(c.lits.size()),
                       c.lits[0].net);
      }
      const std::uint32_t id = db.add(std::move(c));
      if (proof != nullptr) proof->log_add_clause(id, db.clause(id).lits);
    }
    pending.clear();
    if (!deduce(engine, db, clause_cursor)) {
      if (proof != nullptr) proof->log_conflict0();
      report.proven_unsat = true;
      return false;
    }
    return true;
  };

  const auto stopped = [&options] {
    return options.stop != nullptr && options.stop->stop_requested();
  };

  for (NetId b : candidates) {
    if (report.relations_learned >= options.max_relations) break;
    if (stopped()) return finish();  // partial report; committed clauses stand
    for (int v = 0; v <= 1; ++v) {
      if (report.relations_learned >= options.max_relations) break;
      if (engine.bool_value(b) >= 0) break;  // already fixed at level 0
      ++report.probes;

      // ---- probe: b = v, one level up.
      engine.push_level();
      const bool probe_ok =
          engine.narrow(b, Interval::point(v), prop::ReasonKind::kDecision) &&
          deduce(engine, db, clause_cursor);
      // Capture the probe replay (and, for a dead probe, its conflict)
      // while the level-1 trail is still live.
      if (proof != nullptr) proof->probe_begin(b, v != 0);
      if (!probe_ok) {
        engine.backtrack_to_level(0);
        pending.push_back(HybridClause{
            {HybridLit::boolean(b, v == 0)}, true,
            HybridClause::Origin::kPredicateLearning});
        if (proof != nullptr) proof->probe_commit(pending);
        if (!commit_pending()) return finish();
        continue;
      }

      const std::vector<Way> ways = enumerate_ways(circuit, engine, b, v != 0);
      if (ways.size() >= 2) {
        Implications common;
        bool first = true;
        int feasible = 0;
        for (const Way& way : ways) {
          engine.push_level();
          bool ok = true;
          for (const auto& [net, val] : way.assignments) {
            if (!engine.narrow(net, Interval::point(val ? 1 : 0),
                               prop::ReasonKind::kDecision)) {
              ok = false;
              break;
            }
          }
          if (ok) ok = deduce(engine, db, clause_cursor);
          if (ok) {
            ++feasible;
            Implications impl = collect_level_implications(engine, 2);
            if (first) {
              common = std::move(impl);
              first = false;
            } else {
              intersect(common, impl);
            }
          }
          if (proof != nullptr) proof->probe_way(way.assignments);
          engine.backtrack_to_level(1);
        }

        if (feasible == 0) {
          // Every way conflicts ⟹ b = v is impossible.
          engine.backtrack_to_level(0);
          *clause_cursor = std::min(*clause_cursor, engine.trail().size());
          pending.push_back(HybridClause{
              {HybridLit::boolean(b, v == 0)}, true,
              HybridClause::Origin::kPredicateLearning});
          if (proof != nullptr) proof->probe_commit(pending);
          if (!commit_pending()) return finish();
          continue;
        }

        const HybridLit antecedent = HybridLit::boolean(b, v == 0);  // ¬(b=v)
        for (const auto& [net, val] : common.booleans) {
          if (net == b) continue;
          if (engine.bool_value(net) >= 0) continue;  // direct implication
          HybridClause c;
          c.learnt = true;
          c.origin = HybridClause::Origin::kPredicateLearning;
          c.lits = {antecedent, HybridLit::boolean(net, val != 0)};
          pending.push_back(std::move(c));
        }
        if (options.learn_word_relations) {
          for (const auto& [net, hull] : common.words) {
            if (engine.interval(net).contains(hull) &&
                hull.contains(engine.interval(net)))
              continue;  // equal to the probe-state interval: no news
            if (hull.contains(engine.interval(net))) continue;  // weaker
            HybridClause c;
            c.learnt = true;
            c.origin = HybridClause::Origin::kPredicateLearning;
            c.lits = {antecedent, HybridLit::word_in(net, hull)};
            pending.push_back(std::move(c));
          }
        }
      }

      engine.backtrack_to_level(0);
      if (proof != nullptr) proof->probe_commit(pending);
      if (!commit_pending()) return finish();
    }
  }

  if (options.word_probing) {
    // §6-style extension: bisect word domains and keep what both halves
    // agree on. Candidates are the word nets feeding the predicates
    // (comparator operands and mux branches in the predicate cone).
    std::vector<NetId> word_candidates;
    for (const auto& p : ir::extract_predicates(circuit)) {
      for (const NetId o : circuit.node(p.net).operands) {
        if (!circuit.is_bool(o) && !ir::is_source(circuit.node(o).op))
          word_candidates.push_back(o);
      }
    }
    std::sort(word_candidates.begin(), word_candidates.end());
    word_candidates.erase(
        std::unique(word_candidates.begin(), word_candidates.end()),
        word_candidates.end());
    int probes_left = options.max_word_probes;

    for (const NetId w : word_candidates) {
      if (probes_left-- <= 0) break;
      // A partial report; the committed clauses stand.
      if (stopped()) return finish();
      const Interval dom = engine.interval(w);
      if (dom.count() < 2) continue;
      ++report.probes;
      const Interval::Value mid =
          dom.lo() + static_cast<Interval::Value>(dom.count() / 2) - 1;

      if (proof != nullptr) proof->wprobe_begin(w);
      Implications common;
      int feasible = 0;
      bool first = true;
      for (const Interval half :
           {Interval(dom.lo(), mid), Interval(mid + 1, dom.hi())}) {
        engine.push_level();
        bool ok = engine.narrow(w, half, prop::ReasonKind::kDecision) &&
                  deduce(engine, db, clause_cursor);
        if (ok) {
          ++feasible;
          Implications impl = collect_level_implications(engine, 1);
          if (first) {
            common = std::move(impl);
            first = false;
          } else {
            intersect(common, impl);
          }
        }
        if (proof != nullptr) proof->wprobe_case(half);
        engine.backtrack_to_level(0);
      }
      if (feasible == 0) {
        // Both halves of a full domain conflict: the record itself is the
        // refutation (no engine conflict survives the rollbacks).
        if (proof != nullptr) proof->wprobe_commit({}, /*refuted=*/true);
        report.proven_unsat = true;
        return finish();
      }
      if (feasible < 2) continue;  // one half dead: conservatively skip

      for (const auto& [net, val] : common.booleans) {
        if (engine.bool_value(net) >= 0) continue;
        pending.push_back(HybridClause{{HybridLit::boolean(net, val != 0)},
                                       true,
                                       HybridClause::Origin::kPredicateLearning});
      }
      for (const auto& [net, hull] : common.words) {
        if (net == w) continue;
        if (hull.contains(engine.interval(net))) continue;  // no news
        pending.push_back(HybridClause{{HybridLit::word_in(net, hull)},
                                       true,
                                       HybridClause::Origin::kPredicateLearning});
      }
      if (proof != nullptr) proof->wprobe_commit(pending, /*refuted=*/false);
      if (!commit_pending()) return finish();
    }
  }

  RTLSAT_DEBUG("predicate learning: %d relations, %d units, %d probes, %.3fs",
               report.relations_learned, report.units_learned, report.probes,
               timer.seconds());
  return finish();
}

}  // namespace rtlsat::core

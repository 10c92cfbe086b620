#include "ir/analysis.h"

#include <algorithm>

namespace rtlsat::ir {

std::vector<int> levelize(const Circuit& circuit) {
  std::vector<int> level(circuit.num_nets(), 0);
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    const Node& n = circuit.node(id);
    int max_in = -1;
    for (NetId o : n.operands) max_in = std::max(max_in, level[o]);
    level[id] = is_source(n.op) ? 0 : max_in + 1;
  }
  return level;
}

std::vector<std::vector<NetId>> fanouts(const Circuit& circuit) {
  std::vector<std::vector<NetId>> fo(circuit.num_nets());
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    for (NetId o : circuit.node(id).operands) fo[o].push_back(id);
  }
  return fo;
}

FaninCone fanin_cone(const Circuit& circuit, NetId root) {
  return fanin_cone(circuit, std::vector<NetId>{root});
}

FaninCone fanin_cone(const Circuit& circuit, const std::vector<NetId>& roots) {
  FaninCone cone;
  cone.mask.assign(circuit.num_nets(), false);
  std::vector<NetId> stack(roots);
  while (!stack.empty()) {
    const NetId id = stack.back();
    stack.pop_back();
    if (cone.mask[id]) continue;
    cone.mask[id] = true;
    for (NetId o : circuit.node(id).operands) {
      if (!cone.mask[o]) stack.push_back(o);
    }
  }
  cone.members.reserve(circuit.num_nets());
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    if (cone.mask[id]) cone.members.push_back(id);
  }
  return cone;
}

std::vector<PredicateInfo> extract_predicates(const Circuit& circuit) {
  const auto level = levelize(circuit);
  std::vector<PredicateInfo> preds;
  std::vector<std::size_t> index_of(circuit.num_nets(), SIZE_MAX);

  auto ensure = [&](NetId id) -> PredicateInfo& {
    if (index_of[id] == SIZE_MAX) {
      index_of[id] = preds.size();
      preds.push_back(PredicateInfo{id, level[id], false, false});
    }
    return preds[index_of[id]];
  };

  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    const Node& n = circuit.node(id);
    if (is_comparator(n.op)) {
      // Only word comparisons bridge control and data-path; 1-bit
      // comparisons are plain control logic.
      if (circuit.width(n.operands[0]) > 1)
        ensure(id).is_comparator_output = true;
    }
    // Constant selects were folded by the builder, so any remaining select
    // is genuine control. Word muxes only — a 1-bit mux is Boolean logic.
    if (n.op == Op::kMux && n.width > 1) ensure(n.operands[0]).is_mux_select = true;
  }
  std::sort(preds.begin(), preds.end(),
            [](const PredicateInfo& a, const PredicateInfo& b) {
              return a.level != b.level ? a.level < b.level : a.net < b.net;
            });
  return preds;
}

std::vector<NetId> predicate_logic_cone(const Circuit& circuit) {
  const auto preds = extract_predicates(circuit);
  std::vector<NetId> bool_roots;
  for (const auto& p : preds) bool_roots.push_back(p.net);
  // Everything Boolean reachable upstream of a predicate, plus all Boolean
  // gates (control logic proper).
  const auto cone = fanin_cone(circuit, bool_roots);
  std::vector<NetId> result;
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    if (!circuit.is_bool(id)) continue;
    if (cone.mask[id] || is_boolean_gate(circuit.node(id).op))
      result.push_back(id);
  }
  return result;
}

}  // namespace rtlsat::ir

// Structural analyses over a Circuit used by both learning (§3 step 1:
// level-ordering, predicate extraction by cone-of-influence) and the
// structural decision strategy (§4: fanout counts, control cones).
#pragma once

#include <vector>

#include "ir/circuit.h"

namespace rtlsat::ir {

// Level-orders the circuit by distance from the primary inputs: sources are
// level 0, every other node is 1 + max over operand levels.
std::vector<int> levelize(const Circuit& circuit);

// fanout[i] lists the nodes that read net i, ascending, once per operand
// slot; its size is the net's fanout count (the decision heuristic's seed
// weight per §2.4). prop::Engine keeps the same lists incrementally.
std::vector<std::vector<NetId>> fanouts(const Circuit& circuit);

// Transitive fan-in cone of one or more roots (including the roots) — the
// single dependency-tracking primitive shared by the rebuilder
// (ir/transform), canonical hashing (ir/cone), the presolve analyzer, and
// the fuzz reducer. `mask[i]` answers membership in O(1); `members` lists
// the cone in ascending net-id order, which — the builder being append-only
// — is a topological order (operands before readers).
struct FaninCone {
  std::vector<bool> mask;
  std::vector<NetId> members;
};
FaninCone fanin_cone(const Circuit& circuit, NetId root);
FaninCone fanin_cone(const Circuit& circuit, const std::vector<NetId>& roots);

// Predicate extraction (§3 step 1): the 1-bit nets where control meets
// data-path — comparator outputs, and Boolean nets steering word-level
// operators (mux selects). Sorted by level, lowest first, which is the
// order the static learner probes them in.
struct PredicateInfo {
  NetId net = kNoNet;
  int level = 0;
  bool is_comparator_output = false;
  bool is_mux_select = false;
};
std::vector<PredicateInfo> extract_predicates(const Circuit& circuit);

// All 1-bit nets that feed, directly or transitively, any predicate or any
// Boolean gate — the "predicate logic" cone the learner probes.
std::vector<NetId> predicate_logic_cone(const Circuit& circuit);

}  // namespace rtlsat::ir

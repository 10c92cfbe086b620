#include "core/ig_dump.h"

#include <sstream>

namespace rtlsat::core {

namespace {

const char* event_color(const prop::Event& ev) {
  switch (ev.kind) {
    case prop::ReasonKind::kDecision: return "lightblue";
    case prop::ReasonKind::kAssumption: return "palegreen";
    case prop::ReasonKind::kClause: return "khaki";
    case prop::ReasonKind::kNode: return "white";
  }
  return "white";
}

}  // namespace

std::string implication_graph_dot(const prop::Engine& engine) {
  const ir::Circuit& circuit = engine.circuit();
  const auto& trail = engine.trail();
  std::ostringstream os;
  os << "digraph IG {\n  rankdir=LR;\n  node [shape=box, style=filled];\n";
  for (std::size_t i = 0; i < trail.size(); ++i) {
    const prop::Event& ev = trail[i];
    os << "  e" << i << " [label=\"" << circuit.net_name(ev.net) << " = "
       << ev.cur.to_string() << "\\n@" << ev.level;
    if (ev.kind == prop::ReasonKind::kNode) {
      os << " by " << circuit.net_name(ev.reason_id);
    } else if (ev.kind == prop::ReasonKind::kClause) {
      os << " by clause " << ev.reason_id;
    }
    os << "\", fillcolor=" << event_color(ev) << "];\n";
    for (const std::int32_t a : engine.antecedents(i))
      os << "  e" << a << " -> e" << i << ";\n";
    if (ev.prev_on_net >= 0)
      os << "  e" << ev.prev_on_net << " -> e" << i << " [style=dotted];\n";
  }
  if (engine.in_conflict()) {
    os << "  conflict [label=\"conflict on "
       << circuit.net_name(engine.conflict().net)
       << "\", fillcolor=salmon, shape=octagon];\n";
    for (const std::int32_t a : engine.conflict().antecedents)
      os << "  e" << a << " -> conflict;\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace rtlsat::core

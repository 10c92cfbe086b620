#include "core/hybrid_clause.h"

#include <sstream>

namespace rtlsat::core {

LitValue HybridLit::value(const Interval& current) const {
  if (positive) {
    if (interval.contains(current)) return LitValue::kTrue;
    if (!interval.intersects(current)) return LitValue::kFalse;
    return LitValue::kUnknown;
  }
  if (!interval.intersects(current)) return LitValue::kTrue;
  if (interval.contains(current)) return LitValue::kFalse;
  return LitValue::kUnknown;
}

Interval HybridLit::implied_interval(const Interval& current) const {
  if (positive) return current.intersect(interval);
  return current.minus(interval);
}

std::string HybridLit::to_string(const ir::Circuit& circuit) const {
  std::ostringstream os;
  if (is_bool) {
    if (interval.lo() == 0) os << '!';
    os << circuit.net_name(net);
  } else {
    os << '{' << (positive ? "" : "!") << circuit.net_name(net) << " in "
       << interval.to_string() << '}';
  }
  return os.str();
}

std::string clause_to_string(std::span<const HybridLit> lits,
                             const ir::Circuit& circuit) {
  std::ostringstream os;
  os << '(';
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (i > 0) os << " | ";
    os << lits[i].to_string(circuit);
  }
  os << ')';
  return os.str();
}

}  // namespace rtlsat::core

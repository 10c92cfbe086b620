// Structured findings derived from a fact table — the diagnostics face of
// the analyzer. `rtlsat analyze` prints them (text/JSON) and the analyzer-
// backed lint rules (src/lint) re-emit them as warnings.
#pragma once

#include <string>
#include <vector>

#include "interval/interval.h"
#include "ir/circuit.h"
#include "presolve/facts.h"

namespace rtlsat::presolve {

struct Finding {
  enum class Kind {
    kConstantNet,         // non-source net with a proven point value
    kConstantComparator,  // comparator with a proven verdict
    kDeadMuxArm,          // mux arm that can never be selected
    kOversizedNet,        // net wider than its proven value range needs
  };
  Kind kind = Kind::kConstantNet;
  ir::NetId net = ir::kNoNet;
  Interval range;       // the fact backing the finding
  std::string message;  // human-readable, net names resolved
};

const char* kind_name(Finding::Kind kind);

// Requires unconditioned facts (diagnostics must hold for every input).
// Sorted by net id; one finding per (kind, net).
std::vector<Finding> findings(const ir::Circuit& circuit,
                              const FactTable& facts);

}  // namespace rtlsat::presolve

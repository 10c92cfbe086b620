// Netlist static analysis: a rule registry over ir::Circuit and
// ir::SeqCircuit.
//
// Structural rules (operand counts/widths, extract bounds, width caps,
// DAG-ness, …) share their implementation with Circuit::validate() via
// ir::check_structure — one source of truth for well-formedness, two
// consumers: validate() aborts, lint diagnoses. On top of those, lint-only
// rules catch netlists that are well-formed but wrong-looking: dead nets,
// missed constant folds, unbound or constant registers, non-Boolean
// properties.
//
// Reporters for the resulting LintReport live in lint/report.h; the
// command-line front-end is `rtlsat lint` (examples/rtlsat/tools.cpp).
#pragma once

#include <string>
#include <vector>

#include "ir/seq.h"
#include "lint/diagnostic.h"

namespace rtlsat::lint {

struct LintOptions {
  // Sink nets for the reachability-based dead-net rule on plain circuits
  // (e.g. the BMC goal). Without roots a plain Circuit has no notion of
  // outputs and dead-net is skipped; SeqCircuit lints add every register
  // next-state net and property net automatically.
  std::vector<ir::NetId> roots;
  // Emit warning-severity diagnostics (errors are always emitted).
  bool warnings = true;
  // Rule ids to skip.
  std::vector<std::string> disabled_rules;
};

struct RuleInfo {
  std::string_view id;
  Severity severity = Severity::kError;
  std::string_view description;
  bool seq_only = false;  // fires only when linting a SeqCircuit
};

// The full rule catalog, in documentation order (docs/lint.md mirrors it).
const std::vector<RuleInfo>& rule_catalog();
// nullptr when no rule carries `id`.
const RuleInfo* find_rule(std::string_view id);

// Lints a combinational netlist / a sequential design. Diagnostics arrive
// in rule-catalog order, then net order within a rule.
LintReport lint_circuit(const ir::Circuit& circuit,
                        const LintOptions& options = {});
LintReport lint_seq_circuit(const ir::SeqCircuit& seq,
                            const LintOptions& options = {});

}  // namespace rtlsat::lint

// Rendering of LintReports: a compiler-style text listing and a JSON
// document (schema documented in docs/lint.md) for tooling/CI consumption.
#pragma once

#include <string>

#include "lint/diagnostic.h"

namespace rtlsat::lint {

// One line per diagnostic:
//   <source>: <severity>[<rule-id>] net n<id> '<name>': <message>
// followed by a "N errors, M warnings" trailer. `source` labels the
// netlist (file path or model name).
std::string to_text(const LintReport& report, const ir::Circuit& circuit,
                    std::string_view source);

// {"source": ..., "errors": N, "warnings": M, "diagnostics": [
//    {"rule": ..., "severity": ..., "net": id|null, "net_name": ...,
//     "message": ...}, ...]}
// `errors_only` lists only the error diagnostics; the counts still cover
// the whole report.
std::string to_json(const LintReport& report, const ir::Circuit& circuit,
                    std::string_view source, bool errors_only = false);

}  // namespace rtlsat::lint

#include "lint/report.h"

#include <cstdio>
#include <sstream>

namespace rtlsat::lint {

namespace {

void append_json_string(std::ostringstream& os, std::string_view s) {
  os << '"';
  for (const char ch : s) {
    switch (ch) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          os << buf;
        } else {
          os << ch;
        }
    }
  }
  os << '"';
}

}  // namespace

std::string to_text(const LintReport& report, const ir::Circuit& circuit,
                    std::string_view source) {
  std::ostringstream os;
  for (const Diagnostic& d : report.diagnostics) {
    os << source << ": " << severity_name(d.severity) << '[' << d.rule_id
       << ']';
    if (d.net != ir::kNoNet && d.net < circuit.num_nets()) {
      os << " net n" << d.net << " '" << circuit.net_name(d.net) << '\'';
    }
    os << ": " << d.message << '\n';
  }
  os << source << ": " << report.error_count() << " error"
     << (report.error_count() == 1 ? "" : "s") << ", "
     << report.warning_count() << " warning"
     << (report.warning_count() == 1 ? "" : "s") << '\n';
  return os.str();
}

std::string to_json(const LintReport& report, const ir::Circuit& circuit,
                    std::string_view source, bool errors_only) {
  std::ostringstream os;
  os << "{\"source\": ";
  append_json_string(os, source);
  os << ", \"errors\": " << report.error_count()
     << ", \"warnings\": " << report.warning_count()
     << ", \"diagnostics\": [";
  bool first = true;
  for (const Diagnostic& d : report.diagnostics) {
    if (errors_only && d.severity != Severity::kError) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"rule\": ";
    append_json_string(os, d.rule_id);
    os << ", \"severity\": ";
    append_json_string(os, severity_name(d.severity));
    if (d.net != ir::kNoNet && d.net < circuit.num_nets()) {
      os << ", \"net\": " << d.net << ", \"net_name\": ";
      append_json_string(os, circuit.net_name(d.net));
    } else {
      os << ", \"net\": null, \"net_name\": null";
    }
    os << ", \"message\": ";
    append_json_string(os, d.message);
    os << '}';
  }
  os << "]}\n";
  return os.str();
}

}  // namespace rtlsat::lint

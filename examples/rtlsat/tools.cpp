// rtlsat lint / rtlsat analyze: static checks over models. A target is an
// ITC'99 model name, "all" (every registry model) or a .rtl/.v path.
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "cli.h"
#include "itc99/itc99.h"
#include "lint/lint.h"
#include "lint/report.h"
#include "parser/rtl_format.h"
#include "presolve/analyze.h"
#include "presolve/facts.h"
#include "presolve/findings.h"
#include "trace/json.h"

namespace rtlsat::cli {

namespace {

struct Analysis {
  std::string target;
  bool sequential = false;
  ir::SeqCircuit seq{"empty"};
  presolve::FactTable facts;
  std::vector<presolve::Finding> findings;
  std::vector<Interval> invariants;  // empty for combinational targets
};

const char* parity_name(presolve::Parity p) {
  switch (p) {
    case presolve::Parity::kEven: return "even";
    case presolve::Parity::kOdd: return "odd";
    default: return "unknown";
  }
}

// A fact is worth printing when it proves something the width alone does
// not: a range tighter than the domain, or a known parity.
bool nontrivial(const Analysis& a, ir::NetId id) {
  const ir::Circuit& c = a.seq.comb();
  if (c.node(id).op == ir::Op::kConst) return false;
  return a.facts.range[id] != c.domain(id) ||
         a.facts.parity[id] != presolve::Parity::kUnknown;
}

std::string analysis_text(const Analysis& a, bool print_facts) {
  const ir::Circuit& c = a.seq.comb();
  std::ostringstream os;
  os << a.target << ": " << c.num_nets() << " nets, " << a.findings.size()
     << " finding" << (a.findings.size() == 1 ? "" : "s") << '\n';
  for (const presolve::Finding& f : a.findings) {
    os << "  " << presolve::kind_name(f.kind) << " net n" << f.net << " '"
       << c.net_name(f.net) << "': " << f.message << '\n';
  }
  for (ir::NetId id = 0; print_facts && id < c.num_nets(); ++id) {
    if (!nontrivial(a, id)) continue;
    os << "  fact net n" << id << " '" << c.net_name(id) << "': range "
       << a.facts.range[id].to_string();
    if (a.facts.parity[id] != presolve::Parity::kUnknown)
      os << " parity " << parity_name(a.facts.parity[id]);
    os << '\n';
  }
  const std::vector<ir::Register>& regs = a.seq.registers();
  for (std::size_t i = 0; i < a.invariants.size(); ++i) {
    os << "  invariant " << regs[i].name << ": "
       << a.invariants[i].to_string() << " of domain "
       << c.domain(regs[i].q).to_string() << '\n';
  }
  return os.str();
}

std::string analysis_json(const Analysis& a, bool print_facts) {
  const ir::Circuit& c = a.seq.comb();
  trace::JsonWriter w;
  w.begin_object();
  w.key("target").value(a.target);
  w.key("sequential").value(a.sequential);
  w.key("nets").value(static_cast<std::int64_t>(c.num_nets()));
  w.key("findings").begin_array();
  for (const presolve::Finding& f : a.findings) {
    w.begin_object();
    w.key("kind").value(presolve::kind_name(f.kind));
    w.key("net").value(static_cast<std::int64_t>(f.net));
    w.key("name").value(c.net_name(f.net));
    w.key("lo").value(f.range.lo());
    w.key("hi").value(f.range.hi());
    w.key("message").value(f.message);
    w.end_object();
  }
  w.end_array();
  if (print_facts) {
    w.key("facts").begin_array();
    for (ir::NetId id = 0; id < c.num_nets(); ++id) {
      if (!nontrivial(a, id)) continue;
      w.begin_object();
      w.key("net").value(static_cast<std::int64_t>(id));
      w.key("name").value(c.net_name(id));
      w.key("lo").value(a.facts.range[id].lo());
      w.key("hi").value(a.facts.range[id].hi());
      w.key("parity").value(parity_name(a.facts.parity[id]));
      w.end_object();
    }
    w.end_array();
  }
  w.key("invariants").begin_array();
  const std::vector<ir::Register>& regs = a.seq.registers();
  for (std::size_t i = 0; i < a.invariants.size(); ++i) {
    w.begin_object();
    w.key("register").value(regs[i].name);
    w.key("lo").value(a.invariants[i].lo());
    w.key("hi").value(a.invariants[i].hi());
    w.key("domain_hi").value(c.domain(regs[i].q).hi());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take() + "\n";
}

// The target words, with "all" expanded to every registry model.
std::vector<std::string> targets(Args& args) {
  std::vector<std::string> out;
  for (const std::string& word : args.rest(SIZE_MAX)) {
    if (word != "all") {
      out.push_back(word);
      continue;
    }
    const std::vector<std::string> all = itc99::available();
    out.insert(out.end(), all.begin(), all.end());
  }
  if (out.empty()) throw UsageError("no target");
  return out;
}

}  // namespace

// lint [--json] [--errors-only] <target>...  |  lint --list-rules
// Exit 0 with no error diagnostics, 1 with some. --errors-only hides the
// warnings and says how many it hid on each text summary line; the JSON
// counts always cover every diagnostic.
int cmd_lint(Args& args) {
  const bool json = args.flag("--json");
  const bool errors_only = args.flag("--errors-only");
  if (args.flag("--list-rules")) {
    for (const lint::RuleInfo& rule : lint::rule_catalog()) {
      const std::string_view severity = lint::severity_name(rule.severity);
      std::printf("%-20.*s %-8.*s %.*s%s\n", static_cast<int>(rule.id.size()),
                  rule.id.data(), static_cast<int>(severity.size()),
                  severity.data(), static_cast<int>(rule.description.size()),
                  rule.description.data(),
                  rule.seq_only ? " [sequential only]" : "");
    }
    return 0;
  }
  bool any_errors = false;
  for (const std::string& target : targets(args)) {
    const ir::SeqCircuit seq = load_model(target);
    lint::LintReport report = lint::lint_seq_circuit(seq, {});
    any_errors = any_errors || report.has_errors();
    if (json) {
      std::fputs(
          lint::to_json(report, seq.comb(), target, errors_only).c_str(),
          stdout);
      continue;
    }
    const std::size_t found = report.diagnostics.size();
    if (errors_only) {
      std::erase_if(report.diagnostics, [](const lint::Diagnostic& d) {
        return d.severity != lint::Severity::kError;
      });
    }
    std::string text = lint::to_text(report, seq.comb(), target);
    if (const std::size_t hidden = found - report.diagnostics.size();
        hidden > 0) {
      text.pop_back();  // the summary line's newline
      text += " (" + std::to_string(hidden) + " hidden by --errors-only)\n";
    }
    std::fputs(text.c_str(), stdout);
  }
  return any_errors ? 1 : 0;
}

// analyze [--json] [--facts] <target>...
// Prints the presolve analyzer's findings and, for sequential targets, the
// per-register reach invariants; --facts adds every net whose proven range
// is tighter than its width's domain. A .rtl path may also hold a
// combinational circuit.
int cmd_analyze(Args& args) {
  const bool json = args.flag("--json");
  const bool print_facts = args.flag("--facts");
  for (const std::string& target : targets(args)) {
    Analysis a;
    a.target = target;
    a.sequential = true;
    try {
      a.seq = load_model(target);
    } catch (const UsageError&) {
      if (!std::filesystem::exists(target)) throw;
      try {
        ir::SeqCircuit wrapper(target);
        wrapper.comb() = parser::load_circuit(target);
        a.seq = std::move(wrapper);
        a.sequential = false;
      } catch (const std::exception& e) {
        throw UsageError(target + ": " + e.what());
      }
    }
    a.facts = presolve::analyze(a.seq.comb());
    a.findings = presolve::findings(a.seq.comb(), a.facts);
    if (a.sequential) a.invariants = presolve::reach_invariants(a.seq);
    std::fputs((json ? analysis_json(a, print_facts)
                     : analysis_text(a, print_facts)).c_str(),
               stdout);
  }
  return 0;
}

}  // namespace rtlsat::cli

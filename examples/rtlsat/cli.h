// Shared plumbing of the rtlsat driver: the argument reader, the model
// loader, the solver configurations, certificate capture and live
// telemetry. Each subcommand is one `int cmd_<name>(Args&)`.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bmc/unroll.h"
#include "core/hdpll.h"
#include "trace/progress.h"
#include "trace/sink.h"

namespace rtlsat::portfolio {
struct PortfolioOptions;
}  // namespace rtlsat::portfolio

namespace rtlsat::cli {

// A bad argument: main prints "error: <what>" and the usage, and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Strict conversions: a malformed or out-of-range word is a UsageError.
// Integers default to the range of int.
std::int64_t parse_int(const std::string& text, const std::string& what,
                       std::int64_t min,
                       std::int64_t max = std::numeric_limits<int>::max());
double parse_seconds(const std::string& text, const std::string& what);

// The words after the subcommand. Flags ("--name" or "--name <value>") are
// taken out by name; what remains are the positional arguments.
class Args {
 public:
  Args(int argc, char** argv) : words_(argv, argv + argc) {}

  bool flag(const std::string& name);
  std::optional<std::string> value(const std::string& name);
  std::string text(const std::string& name, const std::string& fallback) {
    return value(name).value_or(fallback);
  }
  std::int64_t integer(const std::string& name, std::int64_t fallback,
                       std::int64_t min,
                       std::int64_t max = std::numeric_limits<int>::max());
  double seconds(const std::string& name, double fallback);
  // The positional words, once every flag has been taken: a leftover
  // "--word" is an unknown flag, and there may be at most `max` of them.
  std::vector<std::string> rest(std::size_t max);

 private:
  std::vector<std::string> words_;
};

// Loads an ITC'99 registry name ("b13"), a Verilog file ("*.v") or a
// sequential .rtl netlist. Anything else is a UsageError.
ir::SeqCircuit load_model(const std::string& target);
// Checks the property (an unknown one lists those that exist) and the
// bound, then unrolls.
bmc::BmcInstance unroll_model(const ir::SeqCircuit& seq,
                              const std::string& property,
                              const std::string& bound);

// The paper's solver configurations (Table 2's HDPLL columns) plus the
// chronological-backtracking stand-in for its ICS column.
enum class Config { kHdpll, kStructural, kStructuralPred, kChrono };
Config parse_config(const std::string& word);  // base | s | sp
core::HdpllOptions make_options(Config config, double timeout,
                                int learn_threshold = 2000);

// Certificate capture behind RTLSAT_PROOF: unset or empty = off, "1" =
// verify in-process only, anything else also names the directory the
// certificates are written to for offline rtlsat_check runs.
struct ProofCapture {
  bool on = false;
  std::string dir;
  static ProofCapture from_env();
};

// Live telemetry behind --metrics P --sample-ms N: solver heartbeats
// (docs/observability.md "Progress reporting") written to one JSONL file
// at most every N ms per solver. Sequential solves share one reporter
// labeled "hdpll"; portfolio workers write into the same sink under their
// own "<index>:<config>" labels. With an empty path both are null.
class Telemetry {
 public:
  Telemetry(const std::string& path, double sample_ms);

  trace::ProgressReporter* progress() { return progress_.get(); }
  // Points a portfolio's per-worker heartbeats at the same file.
  void attach(portfolio::PortfolioOptions* options) const;
  std::int64_t lines() const {
    return sink_ != nullptr ? sink_->lines_written() : 0;
  }

 private:
  double interval_seconds_;
  std::unique_ptr<trace::JsonlSink> sink_;
  std::unique_ptr<trace::ProgressReporter> progress_;
};

int cmd_solve(Args& args);
int cmd_bmc(Args& args);
int cmd_race(Args& args);
int cmd_analyze(Args& args);
int cmd_lint(Args& args);
int cmd_fuzz(Args& args);
int cmd_serve(Args& args);
int cmd_client(Args& args);
int cmd_table1(Args& args);
int cmd_table2(Args& args);
int cmd_figures(Args& args);
int cmd_ablations(Args& args);

}  // namespace rtlsat::cli

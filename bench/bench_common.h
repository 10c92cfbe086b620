// Shared helpers for the paper-table benches: instance construction, the
// four solver configurations, and table formatting that mirrors the
// paper's layout (runtimes in seconds, "-to-" for timeouts).
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <memory>

#include "bitblast/bitblast.h"
#include "bmc/unroll.h"
#include "core/hdpll.h"
#include "itc99/itc99.h"
#include "metrics/memory.h"
#include "metrics/sampler.h"
#include "metrics/solver_gauges.h"
#include "portfolio/portfolio.h"
#include "presolve/simplify.h"
#include "trace/sink.h"
#include "proof/drat.h"
#include "proof/drat_check.h"
#include "proof/word_check.h"
#include "proof/word_writer.h"
#include "trace/json.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/timer.h"

namespace rtlsat::bench {

struct RunResult {
  char verdict = '?';  // 'S', 'U', 'T' (timeout), or 'C' (cancelled)
  double seconds = 0;
  core::PredicateLearningReport learning;
  std::int64_t datapath_implications = 0;
  // Full solver counter/histogram dump (empty for the bit-blast oracle,
  // which does not expose its SAT solver).
  Stats stats;
};

enum class Config { kHdpll, kStructural, kStructuralPred, kChrono };

inline const char* config_name(Config c) {
  switch (c) {
    case Config::kHdpll: return "HDPLL";
    case Config::kStructural: return "HDPLL+S";
    case Config::kStructuralPred: return "HDPLL+S+P";
    case Config::kChrono: return "chrono-CDP";
  }
  return "?";
}

inline core::HdpllOptions make_options(Config config, double timeout,
                                       int learn_threshold) {
  core::HdpllOptions options;
  options.structural_decisions =
      config == Config::kStructural || config == Config::kStructuralPred;
  options.predicate_learning = config == Config::kStructuralPred;
  options.learning.max_relations = learn_threshold;
  options.conflict_learning = config != Config::kChrono;
  options.timeout_seconds = timeout;
  return options;
}

// Certificate logging for the table benches: with RTLSAT_PROOF set, every
// HDPLL solve logs a word certificate that is verified in-process, and —
// when the variable names a directory rather than "1" — also written as
// "<dir>/<instance>.<config>.cert.jsonl" for offline rtlsat_check runs
// (the CI proof-check job). A rejected certificate is reported on stderr
// and counted as proof.rejected in the row's counters, so the JSON report
// carries it too.
inline RunResult run_hdpll(const bmc::BmcInstance& instance,
                           const core::HdpllOptions& options_in) {
  core::HdpllOptions options = options_in;
  proof::WordCertWriter cert;
  const char* proof_env = std::getenv("RTLSAT_PROOF");
  const bool certify =
      proof_env != nullptr && *proof_env != '\0' && options.conflict_learning;
  if (certify) options.proof = &cert;
  core::HdpllSolver solver(instance.circuit, options);
  solver.assume_bool(instance.goal, true);
  const core::SolveResult result = solver.solve();
  RunResult out;
  out.seconds = result.seconds;
  out.learning = result.learning;
  out.datapath_implications = solver.engine().num_datapath_narrowings();
  out.stats = solver.stats();
  switch (result.status) {
    case core::SolveStatus::kSat: out.verdict = 'S'; break;
    case core::SolveStatus::kUnsat: out.verdict = 'U'; break;
    case core::SolveStatus::kTimeout: out.verdict = 'T'; break;
    case core::SolveStatus::kCancelled: out.verdict = 'C'; break;
  }
  if (certify) {
    const proof::WordCheckResult check = proof::word_check(cert.str());
    const bool refutation_ok = out.verdict != 'U' || check.refuted;
    if (!check.ok || !refutation_ok) {
      out.stats.add("proof.rejected", 1);
      std::fprintf(stderr, "%s: certificate REJECTED: %s\n",
                   instance.name.c_str(),
                   check.ok ? "no refutation for an UNSAT verdict"
                            : check.error.c_str());
    }
    if (std::strcmp(proof_env, "1") != 0) {
      std::string file = instance.name;
      for (char& ch : file) {
        if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_')
          ch = '_';
      }
      const std::string config =
          options.predicate_learning      ? "hdpll_sp"
          : options.structural_decisions ? "hdpll_s"
                                         : "hdpll";
      std::string error;
      if (!cert.save(std::string(proof_env) + "/" + file + "." + config +
                         ".cert.jsonl",
                     &error)) {
        std::fprintf(stderr, "%s: certificate not saved: %s\n",
                     instance.name.c_str(), error.c_str());
      }
    }
  }
  return out;
}

// The bit-blast lane mirrors run_hdpll's RTLSAT_PROOF contract with DRAT:
// verified in-process; with a directory, the formula and proof are saved
// as "<instance>.dimacs" / "<instance>.drat" for offline rtlsat_check.
inline RunResult run_bitblast(const bmc::BmcInstance& instance,
                              double timeout) {
  Timer timer;
  proof::DratWriter drat;
  sat::SolverOptions options;
  options.timeout_seconds = timeout;
  const char* proof_env = std::getenv("RTLSAT_PROOF");
  const bool certify = proof_env != nullptr && *proof_env != '\0';
  if (certify) options.drat = &drat;
  const auto oracle =
      bitblast::check_sat(instance.circuit, instance.goal, true, options);
  RunResult out;
  out.seconds = timer.seconds();
  out.verdict = oracle.result == sat::Result::kSat     ? 'S'
                : oracle.result == sat::Result::kUnsat ? 'U'
                                                       : 'T';
  if (certify && out.verdict == 'U') {
    const proof::DratCheckResult check =
        proof::drat_check(drat.dimacs(), drat.proof(), drat.binary());
    if (!check.ok) {
      out.stats.add("proof.rejected", 1);
      std::fprintf(stderr, "%s: DRAT proof REJECTED: %s\n",
                   instance.name.c_str(), check.error.c_str());
    }
    if (std::strcmp(proof_env, "1") != 0) {
      std::string file = instance.name;
      for (char& ch : file) {
        if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_')
          ch = '_';
      }
      const std::string base = std::string(proof_env) + "/" + file;
      std::string error;
      if (!drat.save(base + ".dimacs", base + ".drat", &error)) {
        std::fprintf(stderr, "%s: DRAT proof not saved: %s\n",
                     instance.name.c_str(), error.c_str());
      }
    }
  }
  return out;
}

// The presolve lane: interval presolve (src/presolve/) first, then HDPLL on
// the simplified instance when the presolver does not decide outright. The
// row's counters carry the presolve.* rewrite totals next to the solver's,
// so the bench JSON shows what the static pass bought. No proof logging —
// certificates must reference the original instance (see bmc/sweep.h).
inline RunResult run_hdpll_presolved(const bmc::BmcInstance& instance,
                                     const core::HdpllOptions& options) {
  Timer timer;
  const presolve::GoalPresolve pre =
      presolve::presolve_goal(instance.circuit, instance.goal, true);
  RunResult out;
  pre.stats.add_to(out.stats);
  if (pre.decided) {
    out.verdict = pre.sat ? 'S' : 'U';
    out.seconds = timer.seconds();
    out.stats.add("presolve.decided", 1);
    return out;
  }
  core::HdpllSolver solver(pre.circuit, options);
  solver.assume_bool(pre.goal, true);
  const core::SolveResult result = solver.solve();
  out.seconds = timer.seconds();
  out.learning = result.learning;
  out.datapath_implications = solver.engine().num_datapath_narrowings();
  out.stats.merge(solver.stats());
  switch (result.status) {
    case core::SolveStatus::kSat: out.verdict = 'S'; break;
    case core::SolveStatus::kUnsat: out.verdict = 'U'; break;
    case core::SolveStatus::kTimeout: out.verdict = 'T'; break;
    case core::SolveStatus::kCancelled: out.verdict = 'C'; break;
  }
  return out;
}

inline std::string cell(const RunResult& r) {
  return format_runtime(r.seconds, r.verdict == 'T', false);
}

// "paper: x.xx" annotation; negative means the paper reported a timeout,
// NaN (passed as < −1e8) means no paper figure for this row.
inline std::string paper_cell(double value) {
  if (value < -1e8) return "";
  if (value < 0) return "-to-";
  return str_format("%.2f", value);
}

// Runs the parallel portfolio on the instance and flattens the result into
// a RunResult (plus the full per-worker detail for JSON reporting).
struct PortfolioRunResult {
  RunResult run;
  portfolio::PortfolioResult detail;
};

inline PortfolioRunResult run_portfolio(
    const bmc::BmcInstance& instance, int jobs, bool share, double budget,
    metrics::MetricsRegistry* metrics_registry = nullptr) {
  portfolio::PortfolioOptions options;
  options.jobs = jobs;
  options.share_clauses = share;
  options.budget_seconds = budget;
  options.metrics = metrics_registry;
  portfolio::Portfolio race(instance.circuit, instance.goal, true, options);
  PortfolioRunResult out;
  out.detail = race.solve();
  out.run.seconds = out.detail.seconds;
  out.run.verdict = out.detail.winner >= 0
                        ? out.detail.workers[out.detail.winner].verdict
                        : 'T';
  out.run.stats = out.detail.stats;
  return out;
}

// Flags shared by all table benches:
//   --full          the paper's full instance list (1200 s timeouts)
//   --smoke         tiny instance subset + short timeout, for CI
//   --json <path>   additionally write machine-readable BENCH_*.json
//   --jobs N        add a parallel-portfolio column with N workers (0 = off)
//   --no-share      disable the portfolio's predicate-clause sharing
//   --metrics <path> sample live telemetry into a JSONL time series
//   --sample-ms N   sampling interval for --metrics (default 100)
//   --presolve      add a presolve-on lane next to each solver row
struct BenchArgs {
  bool full = false;
  bool smoke = false;
  std::string json_path;
  int jobs = 0;
  bool share = true;
  std::string metrics_path;
  int sample_ms = 100;
  bool presolve = false;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) {
      args.full = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      args.smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      args.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      args.jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--no-share") == 0) {
      args.share = false;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      args.metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sample-ms") == 0 && i + 1 < argc) {
      args.sample_ms = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--presolve") == 0) {
      args.presolve = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return args;
}

// Live-telemetry harness behind --metrics/--sample-ms: owns the registry,
// the JSONL sink, and a background Sampler, and hands out the SolverGauges
// to thread into HdpllOptions/SolverOptions/PortfolioOptions. Constructed
// unconditionally — without --metrics every accessor returns null and the
// solvers pay one predicted branch per conflict.
class BenchMetrics {
 public:
  explicit BenchMetrics(const BenchArgs& args) {
    if (args.metrics_path.empty()) return;
    sink_ = std::make_unique<trace::JsonlSink>(args.metrics_path);
    metrics::SamplerOptions options;
    options.sink = sink_.get();
    options.interval_seconds = std::max(args.sample_ms, 1) / 1000.0;
    sampler_ = std::make_unique<metrics::Sampler>(&registry_, options);
    gauges_ = metrics::make_solver_gauges(&registry_, {{"solver", "hdpll"}});
    sampler_->start();
  }
  ~BenchMetrics() { stop(); }
  BenchMetrics(const BenchMetrics&) = delete;
  BenchMetrics& operator=(const BenchMetrics&) = delete;

  bool enabled() const { return sampler_ != nullptr; }
  metrics::MetricsRegistry* registry() {
    return enabled() ? &registry_ : nullptr;
  }
  metrics::SolverGauges* gauges() { return enabled() ? &gauges_ : nullptr; }

  // Final sample + thread join (idempotent; the destructor calls it too).
  void stop() {
    if (sampler_ != nullptr) sampler_->stop();
  }
  std::int64_t samples() const {
    return sampler_ != nullptr ? sampler_->samples() : 0;
  }

 private:
  metrics::MetricsRegistry registry_;
  std::unique_ptr<trace::JsonlSink> sink_;
  std::unique_ptr<metrics::Sampler> sampler_;
  metrics::SolverGauges gauges_;
};

// Streams bench rows into one JSON document:
//   {"bench": "...", "rows": [{"instance", "config", "verdict", "seconds",
//    "relations_learned", "units_learned", "learning_seconds",
//    "datapath_implications", "counters": {...}}, ...]}
// The file is written on close()/destruction; a null/empty path makes every
// call a no-op so benches can construct one unconditionally.
class BenchJson {
 public:
  BenchJson(std::string_view bench, std::string path)
      : path_(std::move(path)) {
    if (path_.empty()) return;
    writer_.begin_object();
    writer_.key("bench").value(bench);
    writer_.key("rows").begin_array();
  }
  ~BenchJson() { close(); }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  void add_row(const std::string& instance, const std::string& config,
               const RunResult& r) {
    if (path_.empty()) return;
    writer_.begin_object();
    writer_.key("instance").value(instance);
    writer_.key("config").value(config);
    const char verdict[2] = {r.verdict, '\0'};
    writer_.key("verdict").value(verdict);
    writer_.key("seconds").value(r.seconds);
    writer_.key("relations_learned").value(r.learning.relations_learned);
    writer_.key("units_learned").value(r.learning.units_learned);
    writer_.key("learning_seconds").value(r.learning.seconds);
    writer_.key("datapath_implications").value(r.datapath_implications);
    writer_.key("counters").begin_object();
    for (const auto& [name, value] : r.stats.all()) {
      writer_.key(name).value(value);
    }
    writer_.end_object();
    writer_.key("histograms").begin_object();
    for (const auto& [name, h] : r.stats.histograms()) {
      writer_.key(name).begin_object();
      writer_.key("count").value(h.count());
      writer_.key("sum").value(h.sum());
      writer_.key("min").value(h.min());
      writer_.key("max").value(h.max());
      writer_.key("mean").value(h.mean());
      writer_.end_object();
    }
    writer_.end_object();
    writer_.end_object();
  }

  // A portfolio row: the flattened RunResult fields plus a per-worker
  // array — verdict, seconds, clauses exported/imported, cancellation
  // latency (ms; -1 = not cancelled) — and the winner's name.
  void add_portfolio_row(const std::string& instance,
                         const std::string& config,
                         const PortfolioRunResult& r) {
    if (path_.empty()) return;
    writer_.begin_object();
    writer_.key("instance").value(instance);
    writer_.key("config").value(config);
    const char verdict[2] = {r.run.verdict, '\0'};
    writer_.key("verdict").value(verdict);
    writer_.key("seconds").value(r.run.seconds);
    writer_.key("winner").value(r.detail.winner_name);
    writer_.key("workers").begin_array();
    for (const portfolio::WorkerReport& worker : r.detail.workers) {
      writer_.begin_object();
      writer_.key("name").value(worker.name);
      const char wv[2] = {worker.verdict, '\0'};
      writer_.key("verdict").value(wv);
      writer_.key("seconds").value(worker.seconds);
      writer_.key("clauses_exported").value(worker.clauses_exported);
      writer_.key("clauses_imported").value(worker.clauses_imported);
      writer_.key("cancel_latency").value(worker.cancel_latency);
      writer_.end_object();
    }
    writer_.end_array();
    writer_.key("counters").begin_object();
    for (const auto& [name, value] : r.run.stats.all()) {
      writer_.key(name).value(value);
    }
    writer_.end_object();
    writer_.end_object();
  }

  // Sampler line count for the memory summary (0 = run was unsampled).
  void set_metrics_samples(std::int64_t samples) { metrics_samples_ = samples; }

  // Writes the file; false (after a message on stderr) when it cannot be
  // written, so a bench's main can exit nonzero. Later calls return true.
  bool close() {
    if (path_.empty() || closed_) return true;
    closed_ = true;
    writer_.end_array();
    const metrics::ProcMemory mem = metrics::read_proc_memory();
    writer_.key("rss_peak_kb").value(mem.ok ? mem.rss_peak_kb : 0);
    writer_.key("metrics_samples").value(metrics_samples_);
    writer_.end_object();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    bool ok = f != nullptr && std::fputs(writer_.str().c_str(), f) >= 0 &&
              std::fputc('\n', f) != EOF;
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (!ok)
      std::fprintf(stderr, "cannot write bench json to %s\n", path_.c_str());
    return ok;
  }

 private:
  std::string path_;
  trace::JsonWriter writer_;
  std::int64_t metrics_samples_ = 0;
  bool closed_ = false;
};

}  // namespace rtlsat::bench

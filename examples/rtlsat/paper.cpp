// The paper's tables, the ablations and the configuration race. The
// tables run a scaled list with 60 s timeouts; --full runs the paper's list
// with its 1200 s timeouts, --smoke a few fast rows with 10 s. --jobs N adds
// a portfolio column to Table 2, --presolve a presolve-first lane under
// each row, and RTLSAT_PROOF certifies every solve (see ProofCapture).
#include <cctype>
#include <cstdio>

#include "bitblast/bitblast.h"
#include "cli.h"
#include "itc99/itc99.h"
#include "portfolio/portfolio.h"
#include "presolve/simplify.h"
#include "proof/drat.h"
#include "proof/drat_check.h"
#include "proof/word_check.h"
#include "proof/word_writer.h"
#include "trace/json.h"
#include "trace/memory.h"
#include "util/strings.h"
#include "util/timer.h"

namespace rtlsat::cli {

namespace {

struct RunResult {
  char verdict = '?';  // 'S', 'U', 'T' (timeout) or 'C' (cancelled)
  double seconds = 0;
  core::PredicateLearningReport learning;
  std::int64_t datapath_implications = 0;
  Stats stats;  // the bit-blast lane reports only proof counters
};

char verdict_char(core::SolveStatus status) {
  switch (status) {
    case core::SolveStatus::kSat: return 'S';
    case core::SolveStatus::kUnsat: return 'U';
    case core::SolveStatus::kTimeout: return 'T';
    case core::SolveStatus::kCancelled: return 'C';
  }
  return '?';
}

// "<dir>/<instance name with every non-word character as '_'>".
std::string proof_base(const ProofCapture& proof, const std::string& name) {
  std::string file = name;
  for (char& ch : file) {
    if (!std::isalnum(static_cast<unsigned char>(ch)) && ch != '_') ch = '_';
  }
  return proof.dir + "/" + file;
}

void reject(RunResult& out, const std::string& instance, const char* what,
            const std::string& error) {
  out.stats.add("proof.rejected", 1);
  std::fprintf(stderr, "%s: %s REJECTED: %s\n", instance.c_str(), what,
               error.c_str());
}

RunResult from_solver(const core::HdpllSolver& solver,
                      const core::SolveResult& result) {
  RunResult out;
  out.verdict = verdict_char(result.status);
  out.seconds = result.seconds;
  out.learning = result.learning;
  out.datapath_implications = solver.engine().num_datapath_narrowings();
  out.stats = solver.stats();
  return out;
}

// One HDPLL solve of the instance's goal. With proof capture the word
// certificate is checked in-process (a rejection counts as proof.rejected)
// and saved as "<dir>/<instance>.<hdpll|hdpll_s|hdpll_sp>.cert.jsonl".
RunResult run_hdpll(const bmc::BmcInstance& instance,
                    const core::HdpllOptions& options_in,
                    const ProofCapture& proof) {
  core::HdpllOptions options = options_in;
  proof::WordCertWriter cert;
  const bool certify = proof.on && options.conflict_learning;
  if (certify) options.proof = &cert;
  core::HdpllSolver solver(instance.circuit, options);
  solver.assume_bool(instance.goal, true);
  RunResult out = from_solver(solver, solver.solve());
  if (!certify) return out;
  const proof::WordCheckResult check = proof::word_check(cert.str());
  if (!check.ok || (out.verdict == 'U' && !check.refuted)) {
    reject(out, instance.name, "certificate",
           check.ok ? "no refutation for an UNSAT verdict" : check.error);
  }
  if (proof.dir.empty()) return out;
  const char* config = options.predicate_learning      ? "hdpll_sp"
                       : options.structural_decisions ? "hdpll_s"
                                                      : "hdpll";
  std::string error;
  if (!cert.save(proof_base(proof, instance.name) + "." + config +
                     ".cert.jsonl",
                 &error)) {
    std::fprintf(stderr, "%s: certificate not saved: %s\n",
                 instance.name.c_str(), error.c_str());
  }
  return out;
}

// Bit-blast + CDCL; with proof capture an UNSAT verdict's DRAT proof is
// checked and saved as "<dir>/<instance>.dimacs" + ".drat".
RunResult run_bitblast(const bmc::BmcInstance& instance, double timeout,
                       const ProofCapture& proof) {
  Timer timer;
  proof::DratWriter drat;
  sat::SolverOptions options;
  options.timeout_seconds = timeout;
  if (proof.on) options.drat = &drat;
  const auto oracle =
      bitblast::check_sat(instance.circuit, instance.goal, true, options);
  RunResult out;
  out.seconds = timer.seconds();
  out.verdict = oracle.result == sat::Result::kSat     ? 'S'
                : oracle.result == sat::Result::kUnsat ? 'U'
                                                       : 'T';
  if (!proof.on || out.verdict != 'U') return out;
  const proof::DratCheckResult check =
      proof::drat_check(drat.dimacs(), drat.proof(), drat.binary());
  if (!check.ok) reject(out, instance.name, "DRAT proof", check.error);
  if (proof.dir.empty()) return out;
  const std::string base = proof_base(proof, instance.name);
  std::string error;
  if (!drat.save(base + ".dimacs", base + ".drat", &error)) {
    std::fprintf(stderr, "%s: DRAT proof not saved: %s\n",
                 instance.name.c_str(), error.c_str());
  }
  return out;
}

// Interval presolve, then HDPLL on what is left; the presolve.* counters
// join the solver's. No certificate: it would name the simplified circuit.
RunResult run_presolved(const bmc::BmcInstance& instance,
                        const core::HdpllOptions& options) {
  Timer timer;
  const presolve::GoalPresolve pre =
      presolve::presolve_goal(instance.circuit, instance.goal, true);
  RunResult out;
  if (!pre.decided) {
    core::HdpllSolver solver(pre.circuit, options);
    solver.assume_bool(pre.goal, true);
    out = from_solver(solver, solver.solve());
  } else {
    out.verdict = pre.sat ? 'S' : 'U';
    out.stats.add("presolve.decided", 1);
  }
  out.seconds = timer.seconds();
  pre.stats.add_to(out.stats);
  return out;
}

// The parallel portfolio; `detail` receives the per-worker reports.
RunResult run_portfolio(const bmc::BmcInstance& instance,
                        const portfolio::PortfolioOptions& options,
                        portfolio::PortfolioResult* detail) {
  portfolio::Portfolio race(instance.circuit, instance.goal, true, options);
  *detail = race.solve();
  RunResult out;
  out.seconds = detail->seconds;
  out.verdict =
      detail->winner >= 0 ? detail->workers[detail->winner].verdict : 'T';
  out.stats = detail->stats;
  return out;
}

// The paper's runtime cell: seconds, or "-to-" on a timeout.
std::string cell(const RunResult& r) {
  return format_runtime(r.seconds, r.verdict == 'T', false);
}

void write_counters(trace::JsonWriter& w, const Stats& stats) {
  w.key("counters").begin_object();
  for (const auto& [name, value] : stats.all()) w.key(name).value(value);
  w.end_object();
}

// A portfolio run's verdict, seconds, winner, per-worker reports and
// merged counters: a Table 2 portfolio row, or the race document.
void write_race(trace::JsonWriter& w, const RunResult& r,
                const portfolio::PortfolioResult& detail) {
  w.key("verdict").value(std::string_view(&r.verdict, 1));
  w.key("seconds").value(r.seconds);
  w.key("winner").value(detail.winner_name);
  w.key("workers").begin_array();
  for (const portfolio::WorkerReport& worker : detail.workers) {
    w.begin_object();
    w.key("name").value(worker.name);
    w.key("verdict").value(std::string_view(&worker.verdict, 1));
    w.key("seconds").value(worker.seconds);
    w.key("clauses_exported").value(worker.clauses_exported);
    w.key("clauses_imported").value(worker.clauses_imported);
    w.key("cancel_latency").value(worker.cancel_latency);
    w.end_object();
  }
  w.end_array();
  write_counters(w, r.stats);
}

// Writes `text` and a newline; false after a message on stderr.
bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr && std::fputs(text.c_str(), f) >= 0 &&
            std::fputc('\n', f) != EOF;
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return ok;
}

// The rows of one run in one JSON document (docs/observability.md):
//   {"bench", "rows": [{instance, config, verdict, seconds,
//    relations_learned, units_learned, learning_seconds,
//    datapath_implications, counters, histograms}, ...],
//    "rss_peak_kb", "metrics_samples"}
// With an empty path every call is a no-op.
class BenchJson {
 public:
  BenchJson(const std::string& bench, std::string path)
      : path_(std::move(path)) {
    if (path_.empty()) return;
    w_.begin_object();
    w_.key("bench").value(bench);
    w_.key("rows").begin_array();
  }

  void add_row(const std::string& instance, const std::string& config,
               const RunResult& r) {
    if (path_.empty()) return;
    begin_row(instance, config);
    w_.key("verdict").value(std::string_view(&r.verdict, 1));
    w_.key("seconds").value(r.seconds);
    w_.key("relations_learned").value(r.learning.relations_learned);
    w_.key("units_learned").value(r.learning.units_learned);
    w_.key("learning_seconds").value(r.learning.seconds);
    w_.key("datapath_implications").value(r.datapath_implications);
    write_counters(w_, r.stats);
    w_.key("histograms").begin_object();
    for (const auto& [name, h] : r.stats.histograms()) {
      w_.key(name).begin_object();
      w_.key("count").value(h.count());
      w_.key("sum").value(h.sum());
      w_.key("min").value(h.min());
      w_.key("max").value(h.max());
      w_.key("mean").value(h.mean());
      w_.end_object();
    }
    w_.end_object();
    w_.end_object();
  }

  void add_portfolio_row(const std::string& instance, const RunResult& r,
                         const portfolio::PortfolioResult& detail) {
    if (path_.empty()) return;
    begin_row(instance, "portfolio");
    write_race(w_, r, detail);
    w_.end_object();
  }

  bool close(std::int64_t metrics_samples) {
    if (path_.empty()) return true;
    w_.end_array();
    const trace::ProcMemory mem = trace::read_proc_memory();
    w_.key("rss_peak_kb").value(mem.ok ? mem.rss_peak_kb : 0);
    w_.key("metrics_samples").value(metrics_samples);
    w_.end_object();
    return write_file(path_, w_.take());
  }

 private:
  void begin_row(const std::string& instance, const std::string& config) {
    w_.begin_object();
    w_.key("instance").value(instance);
    w_.key("config").value(config);
  }

  std::string path_;
  trace::JsonWriter w_;
};

// One run of a table or ablation command: the flags every one of them
// takes (--full, --smoke, --json, --metrics, --sample-ms), JSON rows, live
// telemetry and certificate capture. A command reads its own flags before
// constructing this, which rejects whatever is left over. A bare
// Paper(timeout) records nothing.
struct Paper {
  explicit Paper(double timeout_seconds) : timeout(timeout_seconds) {}
  Paper(Args& args, const std::string& bench, double full_timeout)
      : full(args.flag("--full")),
        smoke(args.flag("--smoke")),
        timeout(smoke ? 10 : full ? full_timeout : 60),
        proof(ProofCapture::from_env()),
        json(bench, args.text("--json", "")) {
    const std::string metrics = args.text("--metrics", "");
    const auto sample_ms = args.integer("--sample-ms", 100, 0);
    args.rest(0);
    telemetry.emplace(metrics, static_cast<double>(sample_ms));
  }

  core::HdpllOptions options(Config config, int learn_threshold) {
    core::HdpllOptions o = make_options(config, timeout, learn_threshold);
    o.progress = telemetry ? telemetry->progress() : nullptr;
    return o;
  }
  // Writes the JSON document; the exit code.
  int finish() {
    return json.close(telemetry ? telemetry->lines() : 0) ? 0 : 1;
  }

  bool full = false;
  bool smoke = false;
  // Table 2's lanes: the portfolio column (jobs > 0) and the presolve row.
  bool share = true;
  bool presolve = false;
  int jobs = 0;
  double timeout;
  ProofCapture proof;
  BenchJson json{"", ""};
  std::optional<Telemetry> telemetry;
};

// A row of the paper's Tables 1 and 2: the instance, the paper's runtimes
// (Table 1: HDPLL and HDPLL+P; Table 2: HDPLL, +S and +S+P) and whether
// the row is in the smaller list (Table 1: --smoke; Table 2: the default).
struct PaperRow {
  const char* circuit;
  const char* property;
  int bound;
  double paper[3];
  bool short_list;

  bmc::BmcInstance instance() const {
    return bmc::unroll(itc99::build(circuit), property, bound);
  }
};

// The "[x.xx]" paper annotation; kNone marks a row the paper lacks.
constexpr double kNone = -1;
std::string paper_cell(double value) {
  return value == kNone ? "" : str_format("%.2f", value);
}

// The presolve lane printed under a row when --presolve is given.
void presolve_lane(Paper& p, const bmc::BmcInstance& instance,
                   const std::string& config,
                   const core::HdpllOptions& options) {
  const RunResult r = run_presolved(instance, options);
  p.json.add_row(instance.name, config, r);
  std::printf("%-14s   +presolve %8s (removed %lld nets, shaved %lld bits)\n",
              instance.name.c_str(), cell(r).c_str(),
              static_cast<long long>(r.stats.get("presolve.nets_removed")),
              static_cast<long long>(
                  r.stats.get("presolve.width_bits_shaved")));
}

const PaperRow kTable1[] = {
    {"b01", "1", 10, {0.01, 0.02}, true},
    {"b01", "1", 20, {0.48, 0.19}, false},
    {"b02", "1", 10, {0.16, 0.16}, true},
    {"b02", "1", 20, {0.65, 0.51}, false},
    {"b04", "1", 20, {0.04, 0.04}, false},
    {"b13", "5", 10, {0.01, 0.00}, true},
    {"b13", "1", 10, {0.01, 0.00}, false},
    {"b13", "5", 20, {0.09, 0.13}, false},
    {"b13", "1", 20, {0.04, 0.11}, false},
    {"b13", "5", 30, {0.56, 0.41}, false},
    {"b13", "1", 30, {0.14, 0.43}, false},
    {"b13", "5", 50, {3.86, 0.22}, false},
    {"b13", "1", 50, {4.99, 0.30}, false},
    {"b13", "5", 100, {111.63, 11.50}, false},
    {"b13", "1", 100, {85.31, 1.27}, false},
    {"b13", "5", 200, {37.69, 1.96}, false},
    {"b13", "1", 200, {56.24, 1.85}, false},
    {"b13", "1", 300, {587.42, 21.76}, false},
};

const PaperRow kTable2[] = {
    {"b01", "1", 50, {1.75, 1.46, 1.36}, true},
    {"b01", "1", 100, {7.59, 10.36, 1.96}, true},
    {"b02", "1", 50, {4.31, 3.51, 1.47}, true},
    {"b02", "1", 100, {7.57, 3.8, 3.46}, false},
    {"b04", "1", 50, {0.64, 0.06, 0.06}, true},
    {"b04", "1", 100, {112.78, 0.34, 0.32}, true},
    {"b13", "40", 13, {0.04, 0.02, 0.02}, true},
    {"b13", "1", 50, {5.04, 0.34, 0.31}, true},
    {"b13", "2", 50, {0.67, 1.13, 0.67}, true},
    {"b13", "3", 50, {0.44, 0.05, 0.05}, true},
    {"b13", "5", 50, {3.74, 2.19, 0.17}, true},
    {"b13", "8", 50, {0.08, 0.35, 0.35}, true},
    {"b13", "1", 100, {86.54, 0.73, 0.72}, true},
    {"b13", "2", 100, {4.41, 4.29, 4.19}, false},
    {"b13", "3", 100, {0.09, 1.94, 0.09}, true},
    {"b13", "5", 100, {113.67, 52.96, 0.48}, true},
    {"b13", "8", 100, {0.08, 0.36, 0.49}, false},
    {"b13", "1", 200, {56.04, 4.39, 1.89}, true},
    {"b13", "2", 200, {19.1, 7.47, 7.41}, false},
    {"b13", "3", 200, {0.14, 4.07, 0.11}, false},
    {"b13", "5", 200, {38.07, 16.34, 1.99}, true},
    {"b13", "8", 200, {2.58, 2.69, 1.92}, false},
    {"b13", "1", 300, {576.31, 245.27, 210.57}, false},
    {"b13", "2", 300, {42.82, 19.15, 4.14}, false},
    {"b13", "3", 300, {0.24, 3.33, 3.27}, false},
    {"b13", "5", 300, {4.6, 1.1, 1.1}, false},
    {"b13", "8", 300, {4.6, 4.1, 2.56}, false},
    {"b13", "1", 400, {8.73, 6.7, 6.46}, false},
    {"b13", "2", 400, {105.67, 44.83, 12.13}, false},
    {"b13", "3", 400, {0.32, 37.55, 1.32}, false},
    {"b13", "5", 400, {7.85, 1.09, 1.09}, false},
    {"b13", "8", 400, {3.85, 1.21, 0.66}, false},
};

void table2_header(bool portfolio_column) {
  std::printf("%-14s %-2s %7s %7s | %16s %16s %16s | %10s %10s | %12s",
              "Test-case", "R", "Arith", "Bool", "HDPLL", "HDPLL+S",
              "HDPLL+S+P", "bitblast", "chrono", "dp-impl(+S)");
  if (portfolio_column) std::printf(" | %10s", "portfolio");
  std::printf("\n");
}

// One Table 2 row: the three HDPLL configurations, bit-blast + CDCL and
// chronological HDPLL (the stand-ins for the paper's UCLID and ICS
// columns, DESIGN.md §2), then the optional portfolio and presolve lanes.
// §5.2's learning threshold: min(#predicate-logic gates, 2000).
void table2_row(Paper& p, const bmc::BmcInstance& instance,
                const double paper[3]) {
  RunResult runs[5];
  runs[0] = run_hdpll(instance, p.options(Config::kHdpll, 0), p.proof);
  runs[1] = run_hdpll(instance, p.options(Config::kStructural, 0), p.proof);
  runs[2] =
      run_hdpll(instance, p.options(Config::kStructuralPred, 2000), p.proof);
  runs[3] = run_bitblast(instance, p.timeout, p.proof);
  runs[4] = run_hdpll(instance, p.options(Config::kChrono, 0), p.proof);
  const char* labels[5] = {"HDPLL", "HDPLL+S", "HDPLL+S+P", "bitblast",
                           "chrono-CDP"};
  for (int i = 0; i < 5; ++i) p.json.add_row(instance.name, labels[i], runs[i]);

  const auto counts = instance.circuit.op_counts();
  std::printf("%-14s %-2c %7zu %7zu |", instance.name.c_str(), runs[2].verdict,
              counts.arith, counts.boolean);
  for (int i = 0; i < 3; ++i) {
    std::printf(" %7s [%6s]", cell(runs[i]).c_str(),
                paper_cell(paper[i]).c_str());
  }
  std::printf(" | %10s %10s | %12lld", cell(runs[3]).c_str(),
              cell(runs[4]).c_str(),
              static_cast<long long>(runs[1].datapath_implications));
  if (p.jobs > 0) {
    portfolio::PortfolioOptions options;
    options.jobs = p.jobs;
    options.share_clauses = p.share;
    options.budget_seconds = p.timeout;
    if (p.telemetry) p.telemetry->attach(&options);
    portfolio::PortfolioResult detail;
    const RunResult race = run_portfolio(instance, options, &detail);
    p.json.add_portfolio_row(instance.name, race, detail);
    std::printf(" | %10s", cell(race).c_str());
  }
  std::printf("\n");
  if (p.presolve) {
    presolve_lane(p, instance, "HDPLL+S+P+presolve",
                  p.options(Config::kStructuralPred, 2000));
  }
}

const char* verdict_word(char v) {
  switch (v) {
    case 'S': return "SAT";
    case 'U': return "UNSAT";
    case 'T': return "timeout";
    case 'C': return "cancelled";
    default: return "?";
  }
}

}  // namespace

int cmd_table1(Args& args) {
  const bool presolve = args.flag("--presolve");
  Paper p(args, "table1_predicate_learning", 1200);
  std::printf("Table 1 — Run-Time Analysis of Predicate Learning (paper "
              "values in brackets)\n");
  std::printf("%-14s %-4s %8s %10s | %18s %18s\n", "Ckt", "Type", "Rels",
              "LearnTime", "HDPLL", "HDPLL+PredLearn");
  for (const PaperRow& row : kTable1) {
    if (p.smoke && !row.short_list) continue;
    const bmc::BmcInstance instance = row.instance();
    // Table 1 isolates §3: no structural decisions; the learning threshold
    // is 2500 as in §3.1.
    const core::HdpllOptions plain_options = p.options(Config::kHdpll, 0);
    core::HdpllOptions learn_options = p.options(Config::kHdpll, 2500);
    learn_options.predicate_learning = true;
    const RunResult plain = run_hdpll(instance, plain_options, p.proof);
    const RunResult learned = run_hdpll(instance, learn_options, p.proof);
    p.json.add_row(instance.name, "HDPLL", plain);
    p.json.add_row(instance.name, "HDPLL+PredLearn", learned);
    std::printf("%-14s %-4c %8d %10.2f | %8s [%7s] %8s [%7s]\n",
                instance.name.c_str(), learned.verdict,
                learned.learning.relations_learned, learned.learning.seconds,
                cell(plain).c_str(), paper_cell(row.paper[0]).c_str(),
                cell(learned).c_str(), paper_cell(row.paper[1]).c_str());
    if (presolve)
      presolve_lane(p, instance, "HDPLL+PredLearn+presolve", learn_options);
  }
  std::printf("\nShape targets (§3.1): learning overhead dominates at small "
              "bounds; 2x-80x wins on the large b13 instances.\n");
  return p.finish();
}

int cmd_table2(Args& args) {
  const int jobs = static_cast<int>(args.integer("--jobs", 0, 0));
  const bool share = !args.flag("--no-share");
  const bool presolve = args.flag("--presolve");
  Paper p(args, "table2_structural", 1200);
  p.jobs = jobs;
  p.share = share;
  p.presolve = presolve;
  std::printf("Table 2 — Structural Decision Strategy (ours [paper]); CDP "
              "stand-ins per DESIGN.md\n");
  table2_header(p.jobs > 0);
  for (const PaperRow& row : kTable2) {
    if (p.full || row.short_list) table2_row(p, row.instance(), row.paper);
  }
  std::printf(
      "\nShape targets (§5): +S an order faster than HDPLL on most b04/b13 "
      "rows; +S+P adds up to another order on hard b13 rows; b13_3 prefers "
      "the plain heuristic over +S (watch dp-impl) with +P repairing it; "
      "the structure-blind columns degrade fastest with the bound.\n");
  return p.finish();
}

// Races the configurations on the parallel portfolio (the first verdict
// wins, the losers are cancelled), or with --sequential runs one Table 2
// row. Exit 1 when the winner fails the cross-check against the losers.
int cmd_race(Args& args) {
  portfolio::PortfolioOptions options;
  options.jobs = static_cast<int>(args.integer("--jobs", 4, 1));
  options.share_clauses = !args.flag("--no-share");
  options.deterministic = args.flag("--deterministic");
  options.budget_seconds = args.seconds("--budget", 120);
  const bool sequential = args.flag("--sequential");
  const std::string json_path = args.text("--json", "");
  const std::string metrics_path = args.text("--metrics", "");
  const auto sample_ms = args.integer("--sample-ms", 100, 0);
  const std::vector<std::string> pos = args.rest(3);
  const auto arg = [&](std::size_t i, const char* fallback) {
    return pos.size() > i ? pos[i] : std::string(fallback);
  };
  const ir::SeqCircuit seq = load_model(arg(0, "b13"));
  const bmc::BmcInstance instance =
      unroll_model(seq, arg(1, "1"), arg(2, "15"));
  const auto counts = instance.circuit.op_counts();
  std::printf("%s — %zu arith / %zu bool ops\n", instance.name.c_str(),
              counts.arith, counts.boolean);
  if (sequential) {
    Paper row(options.budget_seconds);
    row.telemetry.emplace(metrics_path, static_cast<double>(sample_ms));
    const double no_paper[3] = {kNone, kNone, kNone};
    table2_header(false);
    table2_row(row, instance, no_paper);
    return 0;
  }

  Telemetry telemetry(metrics_path, static_cast<double>(sample_ms));
  telemetry.attach(&options);
  portfolio::PortfolioResult result;
  const RunResult run = run_portfolio(instance, options, &result);
  if (!metrics_path.empty()) {
    std::printf("metrics: %lld heartbeats -> %s\n",
                static_cast<long long>(telemetry.lines()),
                metrics_path.c_str());
  }
  std::printf("portfolio: %d workers%s%s\n", options.jobs,
              options.share_clauses ? "" : ", no sharing",
              options.deterministic ? ", deterministic" : "");
  for (const portfolio::WorkerReport& worker : result.workers) {
    std::printf("  %-22s %-9s %8.3fs\n", worker.name.c_str(),
                verdict_word(worker.verdict), worker.seconds);
    if (worker.cancel_latency >= 0) {
      std::printf("  %-22s cancelled after %.1f ms\n", "",
                  worker.cancel_latency * 1e3);
    }
    if (worker.clauses_exported > 0 || worker.clauses_imported > 0) {
      std::printf("  %-22s shared: %lld exported, %lld imported\n", "",
                  static_cast<long long>(worker.clauses_exported),
                  static_cast<long long>(worker.clauses_imported));
    }
  }
  if (run.verdict == 'S' || run.verdict == 'U') {
    std::printf("winner: %s — %s in %.3fs\n", result.winner_name.c_str(),
                verdict_word(run.verdict), result.seconds);
  } else {
    std::printf("no verdict within the %.0fs budget\n",
                options.budget_seconds);
  }
  for (const std::string& v : result.crosscheck_violations)
    std::fprintf(stderr, "CROSSCHECK VIOLATION: %s\n", v.c_str());

  bool written = true;
  if (!json_path.empty()) {
    trace::JsonWriter w;
    w.begin_object();
    w.key("instance").value(instance.name);
    w.key("crosscheck_violations")
        .value(static_cast<std::int64_t>(result.crosscheck_violations.size()));
    write_race(w, run, result);
    w.end_object();
    written = write_file(json_path, w.take());
  }
  return result.crosscheck_violations.empty() && written ? 0 : 1;
}

// The design choices DESIGN.md calls out, on b13.
int cmd_ablations(Args& args) {
  Paper p(args, "ablations", 600);
  const int bound = p.smoke ? 15 : p.full ? 100 : 40;
  const ir::SeqCircuit b13 = itc99::build("b13");
  bmc::BmcInstance instance;
  const auto section = [&](const char* title, const char* property) {
    instance = bmc::unroll(b13, property, bound);
    std::printf("%s (%s)\n", title, instance.name.c_str());
  };
  const auto run = [&](const std::string& label,
                       const core::HdpllOptions& options) {
    const RunResult r = run_hdpll(instance, options, p.proof);
    p.json.add_row(instance.name, label, r);
    std::printf("  %-30s %c %9s  rels=%-5d learn=%.2fs\n", label.c_str(),
                r.verdict, cell(r).c_str(), r.learning.relations_learned,
                r.learning.seconds);
  };

  section("Ablation 1 — hybrid word literals in conflict clauses", "1");
  core::HdpllOptions o = p.options(Config::kStructural, 0);
  run("hybrid clauses (paper)", o);
  o.analyze.hybrid_word_literals = false;
  run("boolean-only clauses", o);

  section("\nAblation 2 — learning threshold sweep", "5");
  for (const int threshold : {0, 50, 250, 1000, 2500}) {
    o = p.options(Config::kStructuralPred, threshold);
    o.predicate_learning = threshold > 0;
    run(str_format("threshold_%d", threshold), o);
  }

  section("\nAblation 3 — decision heuristics (the §5.1 anomaly family)", "3");
  run("activity (paper base)", p.options(Config::kHdpll, 0));
  run("structural (+S)", p.options(Config::kStructural, 0));
  run("structural+learning (+S+P)", p.options(Config::kStructuralPred, 2000));
  o = p.options(Config::kHdpll, 0);
  o.random_decisions = true;
  run("randomized", o);

  section("\nAblation 4 — Luby restarts", "5");
  for (const int interval : {0, 32, 128, 512}) {
    o = p.options(Config::kHdpll, 0);
    o.restart_interval = interval;
    run(str_format("restart_%d", interval), o);
  }

  section("\nAblation 5 — word relations in predicate learning", "5");
  o = p.options(Config::kStructuralPred, 2000);
  run("boolean+word relations (paper)", o);
  o.learning.learn_word_relations = false;
  run("boolean relations only", o);

  section("\nAblation 6 — word-domain split probing (an extension along "
          "the paper's future-work direction)", "1");
  o = p.options(Config::kStructuralPred, 2000);
  run("boolean probing only (paper)", o);
  o.learning.word_probing = true;
  run("+ word-domain probing", o);
  return p.finish();
}

}  // namespace rtlsat::cli

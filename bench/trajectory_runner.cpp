// Produces a bench trajectory file (src/metrics/trajectory.h): runs the
// standard workload list with repeat-and-take-median timing and writes
// BENCH_<utc-date>_<gitsha>.json carrying the machine fingerprint, per-bench
// median/min/max wall time, and the first repeat's solver counters.
//
//   $ ./trajectory_runner                      # BENCH_*.json in cwd
//   $ ./trajectory_runner --dir out --repeats 5
//   $ ./trajectory_runner --out current.json   # fixed filename (CI)
//
// The workloads deliberately reuse the existing suites: two direct solver
// runs, the table1/table2 smoke rows, and a deterministic portfolio race —
// small enough that 3 repeats finish in well under a minute, large enough
// that a real slowdown in propagation, learning, or the portfolio shows up.
// bench/bench_compare.cpp diffs two of these files and gates CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bmc/sweep.h"
#include "metrics/trajectory.h"
#include "parser/rtl_format.h"
#include "sat/solver.h"
#include "serve/client.h"
#include "serve/server.h"

using namespace rtlsat;
using namespace rtlsat::bench;

namespace {

struct Workload {
  std::string name;
  // Runs once; fills `counters` (time.* is stripped afterwards).
  std::function<void(std::map<std::string, std::int64_t>*)> run;
};

// Adds (not assigns), so a workload of several solves reports totals.
void counters_from_stats(const Stats& stats,
                         std::map<std::string, std::int64_t>* out) {
  for (const auto& [name, value] : stats.all()) {
    if (name.rfind("time.", 0) == 0) continue;
    (*out)[name] += value;
  }
}

void add_pigeonhole(sat::Solver& s, int holes) {
  const int pigeons = holes + 1;
  std::vector<std::vector<sat::Var>> p(pigeons, std::vector<sat::Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = s.new_var();
  for (auto& row : p) {
    std::vector<sat::Lit> clause;
    for (auto v : row) clause.push_back(sat::Lit(v, true));
    s.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j)
        s.add_clause({sat::Lit(p[i][h], false), sat::Lit(p[j][h], false)});
}

void run_hdpll_workload(const char* circuit, const char* property, int bound,
                        Config config,
                        std::map<std::string, std::int64_t>* counters) {
  const ir::SeqCircuit seq = itc99::build(circuit);
  const bmc::BmcInstance instance = bmc::unroll(seq, property, bound);
  const RunResult r =
      run_hdpll(instance, make_options(config, /*timeout=*/120, 2000));
  counters_from_stats(r.stats, counters);
}

std::vector<Workload> workloads() {
  std::vector<Workload> out;
  out.push_back({"sat.pigeonhole6", [](auto* counters) {
                   sat::Solver s;
                   add_pigeonhole(s, 6);
                   (void)s.solve();
                   counters_from_stats(s.stats(), counters);
                 }});
  out.push_back({"hdpll.b13_1_b15", [](auto* counters) {
                   run_hdpll_workload("b13", "1", 15, Config::kStructuralPred,
                                      counters);
                 }});
  out.push_back({"hdpll.b13_1_b30", [](auto* counters) {
                   run_hdpll_workload("b13", "1", 30, Config::kStructuralPred,
                                      counters);
                 }});
  out.push_back({"table1.smoke", [](auto* counters) {
                   // Mirrors table1 --smoke: the three CI instances.
                   const std::pair<const char*, const char*> rows[] = {
                       {"b01", "1"}, {"b02", "1"}, {"b13", "5"}};
                   for (const auto& [ckt, prop] : rows) {
                     run_hdpll_workload(ckt, prop, 10, Config::kHdpll,
                                        counters);
                   }
                 }});
  out.push_back({"table2.smoke", [](auto* counters) {
                   // One table2 row across the three HDPLL configurations.
                   run_hdpll_workload("b13", "5", 20, Config::kHdpll, counters);
                   run_hdpll_workload("b13", "5", 20, Config::kStructural,
                                      counters);
                   run_hdpll_workload("b13", "5", 20, Config::kStructuralPred,
                                      counters);
                 }});
  out.push_back({"presolve.table1", [](auto* counters) {
                   // The table1 smoke rows through the presolve lane, with
                   // a verdict cross-check against the direct solver. The
                   // presolve.* counters land in the trajectory so a rewrite
                   // that silently stops firing (or starts flipping
                   // verdicts) shows up in bench_compare.
                   const std::tuple<const char*, const char*, int> rows[] = {
                       {"b01", "1", 10}, {"b02", "1", 10}, {"b13", "5", 10}};
                   (*counters)["presolve.verdicts_agree"] = 1;
                   for (const auto& [ckt, prop, bound] : rows) {
                     const ir::SeqCircuit seq = itc99::build(ckt);
                     const bmc::BmcInstance instance =
                         bmc::unroll(seq, prop, bound);
                     const core::HdpllOptions options =
                         make_options(Config::kStructuralPred, 120, 2000);
                     const RunResult direct = run_hdpll(instance, options);
                     const RunResult presolved =
                         run_hdpll_presolved(instance, options);
                     if (presolved.verdict != direct.verdict)
                       (*counters)["presolve.verdicts_agree"] = 0;
                     counters_from_stats(presolved.stats, counters);
                   }
                 }});
  out.push_back({"bmc.incremental", [](auto* counters) {
                   // Incremental-vs-fresh deep sweep (docs/incremental.md):
                   // both paths solve every bound of the same sweep; the
                   // counters carry the wall-time split and the speedup as
                   // bmc.speedup_pct = 100 * fresh / incremental, which
                   // bench_compare gates at >= 150 (the 1.5x floor).
                   const ir::SeqCircuit seq = itc99::build("b13");
                   bmc::SweepOptions options;
                   options.solver =
                       make_options(Config::kStructuralPred, 120, 2000);
                   options.stop_at_sat = false;  // solve all bounds
                   options.incremental = true;
                   Timer inc_timer;
                   const bmc::SweepResult inc = bmc::sweep(seq, "2", 24,
                                                           options);
                   const double inc_s = inc_timer.seconds();
                   options.incremental = false;
                   Timer fresh_timer;
                   const bmc::SweepResult fresh = bmc::sweep(seq, "2", 24,
                                                             options);
                   const double fresh_s = fresh_timer.seconds();
                   (*counters)["bmc.bounds"] =
                       static_cast<std::int64_t>(inc.frames.size());
                   (*counters)["bmc.verdicts_agree"] =
                       inc.frames.size() == fresh.frames.size() ? 1 : 0;
                   for (std::size_t i = 0; i < inc.frames.size() &&
                                           i < fresh.frames.size();
                        ++i) {
                     if (inc.frames[i].status != fresh.frames[i].status)
                       (*counters)["bmc.verdicts_agree"] = 0;
                   }
                   (*counters)["bmc.incremental_us"] =
                       static_cast<std::int64_t>(inc_s * 1e6);
                   (*counters)["bmc.fresh_us"] =
                       static_cast<std::int64_t>(fresh_s * 1e6);
                   (*counters)["bmc.speedup_pct"] = static_cast<std::int64_t>(
                       100.0 * fresh_s / std::max(inc_s, 1e-9));
                 }});
  out.push_back({"portfolio.b13_1_b15", [](auto* counters) {
                   const ir::SeqCircuit seq = itc99::build("b13");
                   const bmc::BmcInstance instance = bmc::unroll(seq, "1", 15);
                   portfolio::PortfolioOptions options;
                   options.jobs = 4;
                   options.deterministic = true;  // reproducible counters
                   options.budget_seconds = 120;
                   portfolio::Portfolio race(instance.circuit, instance.goal,
                                             true, options);
                   const portfolio::PortfolioResult result = race.solve();
                   counters_from_stats(result.stats, counters);
                 }});
  out.push_back({"serve.warm_cache", [](auto* counters) {
                   // Warm-cache serve throughput: one priming solve, then
                   // 256 byte-identical queries over a real TCP loopback
                   // connection, all expected to hit the exact-text cache
                   // tier. A regression here means the hit path (framing,
                   // cache lookup, result encode) got slower.
                   const ir::SeqCircuit seq = itc99::build("b01");
                   bmc::BmcInstance bmc = bmc::unroll(seq, "1", 6);
                   bmc.circuit.set_name("b01_1_k6");
                   serve::Server server{serve::ServerOptions{}};
                   std::string error;
                   if (!server.start(&error)) return;
                   serve::Client client;
                   if (!client.connect("127.0.0.1", server.port(), &error))
                     return;
                   serve::SolveRequest request;
                   request.rtl = parser::write_circuit(bmc.circuit);
                   request.goal = bmc.circuit.net_name(bmc.goal);
                   request.deterministic = true;
                   constexpr int kQueries = 256;
                   std::int64_t hits = 0;
                   for (int i = 0; i < kQueries + 1; ++i) {
                     serve::ResultMsg result;
                     if (!client.solve(request, &result, &error)) break;
                     if (result.cache_hit) ++hits;
                   }
                   (*counters)["serve.requests"] = kQueries + 1;
                   (*counters)["serve.cache_hits"] = hits;
                   client.disconnect();
                   server.drain();
                   server.wait();
                 }});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string dir = ".";
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--out <path>] [--dir <dir>] [--repeats <n>]\n",
                   argv[0]);
      return 2;
    }
  }
  repeats = std::max(repeats, 1);

  metrics::Trajectory trajectory;
  trajectory.utc_date = metrics::utc_date_string();
  trajectory.git_sha = metrics::git_sha_or_fallback();
  trajectory.fingerprint = metrics::local_fingerprint();

  for (const Workload& workload : workloads()) {
    metrics::BenchResult bench;
    bench.name = workload.name;
    bench.repeats = repeats;
    std::vector<double> times;
    for (int r = 0; r < repeats; ++r) {
      std::map<std::string, std::int64_t> counters;
      Timer timer;
      workload.run(&counters);
      times.push_back(timer.seconds());
      if (r == 0) bench.counters = std::move(counters);
    }
    std::sort(times.begin(), times.end());
    bench.min_s = times.front();
    bench.max_s = times.back();
    bench.median_s = times[times.size() / 2];
    trajectory.benches.push_back(std::move(bench));
    std::printf("%-24s median %8.4fs  (min %.4fs, max %.4fs, %d repeats)\n",
                workload.name.c_str(), trajectory.benches.back().median_s,
                trajectory.benches.back().min_s,
                trajectory.benches.back().max_s, repeats);
    std::fflush(stdout);
  }

  const metrics::ProcMemory mem = metrics::read_proc_memory();
  if (mem.ok) trajectory.rss_peak_kb = mem.rss_peak_kb;

  if (out_path.empty())
    out_path = dir + "/" + metrics::default_trajectory_filename(trajectory);
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  const std::string json = metrics::trajectory_to_json(trajectory);
  std::fputs(json.c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("trajectory -> %s\n", out_path.c_str());
  return 0;
}

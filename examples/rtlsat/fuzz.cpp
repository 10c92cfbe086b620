// rtlsat fuzz: the differential fuzzing driver (docs/fuzzing.md).
//
// Runs random word-level instances through the oracle matrix (three HDPLL
// configs, bit-blast CDCL, deterministic portfolio, brute force at small
// widths), delta-reduces any disagreement into a minimal .rtl repro, and
// interleaves the property fuzzers of the interval rules and FME.
// --seconds bounds the whole run: an engine still running at the deadline
// abstains. Exit 0 when every check agreed, 1 on a mismatch.
#include <filesystem>
#include <fstream>
#include <iostream>

#include "cli.h"
#include "fuzz/generator.h"
#include "fuzz/op_fuzz.h"
#include "fuzz/oracle.h"
#include "fuzz/reduce.h"
#include "util/rng.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace rtlsat::cli {

namespace {

struct Fuzzer {
  bool quiet = false;
  std::string out_dir;
  fuzz::GeneratorOptions gen;
  fuzz::OracleOptions oracle;  // oracle.stop is armed by --seconds
  std::int64_t instances = 0, sat = 0, unsat = 0, undecided = 0;
  std::int64_t op_checks = 0, mismatches = 0, repros = 0;

  void report(const std::string& what, const std::vector<std::string>& v) {
    if (v.empty()) return;
    mismatches += static_cast<std::int64_t>(v.size());
    std::cerr << "MISMATCH: " << what << '\n';
    for (const std::string& d : v) std::cerr << "  " << d << '\n';
  }

  // One generated instance through the oracle matrix, or with `presolve`
  // through the presolved-vs-original differential (verdicts, witness
  // transfer through the net map, fact audits). A disagreement is reduced
  // with "the check still fails" as the predicate — without the portfolio,
  // to keep the many probes cheap, and without the run's deadline, since
  // engines abstaining past it would make every probe look uninteresting.
  void instance(std::uint64_t seed, bool presolve) {
    Rng rng(seed);
    const fuzz::FuzzInstance inst = fuzz::generate(rng, gen);
    const auto check = [presolve](const ir::Circuit& c, ir::NetId goal,
                                  const fuzz::OracleOptions& o) {
      if (presolve) return fuzz::compare_presolve(c, goal, o);
      return fuzz::run_oracle(c, goal, o).mismatches;
    };
    ++instances;
    std::vector<std::string> v;
    std::string line;
    if (presolve) {
      v = check(inst.circuit, inst.goal, oracle);
      line = "presolve " + inst.description +
             (v.empty() ? ": ok" : ": MISMATCH");
    } else {
      const fuzz::OracleReport r =
          fuzz::run_oracle(inst.circuit, inst.goal, oracle);
      sat += r.consensus == 'S';
      unsat += r.consensus == 'U';
      undecided += r.consensus == '?';
      line = inst.description + ": " + r.summary();
      v = r.mismatches;
    }
    if (!quiet) std::cout << "[" << seed << "] " << line << '\n';
    if (v.empty()) return;
    report(std::string(presolve ? "presolve, " : "") + "instance seed " +
               std::to_string(seed) + " (" + inst.description + ")",
           v);
    fuzz::OracleOptions probe = oracle;
    probe.run_portfolio = presolve && probe.run_portfolio;
    probe.stop = StopToken();
    fuzz::ReduceResult reduced;
    try {
      reduced = fuzz::reduce(inst.circuit, inst.goal,
                             [&](const ir::Circuit& c, ir::NetId g) {
                               return !check(c, g, probe).empty();
                             });
    } catch (const std::exception& e) {
      std::cerr << "  reduction failed (" << e.what()
                << "); writing the unreduced instance\n";
      reduced.circuit = inst.circuit;
      reduced.goal = inst.goal;
    }
    std::filesystem::create_directories(out_dir);
    const std::string path =
        out_dir + "/mismatch-seed" + std::to_string(seed) + ".rtl";
    std::ofstream(path) << "; rtlsat fuzz repro, instance seed " << seed
                        << "\n; reduced " << reduced.initial_nodes << " -> "
                        << reduced.final_nodes << " nets in "
                        << reduced.attempts << " attempts\n"
                        << fuzz::write_repro(reduced.circuit, reduced.goal);
    ++repros;
    std::cerr << "  repro written to " << path << " (" << reduced.final_nodes
              << " nets)\n";
  }

  void op_round(std::uint64_t seed, bool intervals, bool fme) {
    Rng rng(seed);
    if (intervals) {
      op_checks += 2000;
      report("interval ops, round seed " + std::to_string(seed),
             fuzz::fuzz_interval_ops(rng, 2000));
    }
    if (fme) {
      op_checks += 200;
      report("fme, round seed " + std::to_string(seed),
             fuzz::fuzz_fme(rng, 200));
    }
  }
};

}  // namespace

int cmd_fuzz(Args& args) {
  Fuzzer f;
  const double seconds = args.seconds("--seconds", 0);
  const std::int64_t iters = args.integer("--iters", 100, 0);
  const auto seed = static_cast<std::uint64_t>(
      args.integer("--seed", 1, 0, std::numeric_limits<std::int64_t>::max()));
  const std::string mode = args.text("--mode", "all");
  f.out_dir = args.text("--out", "fuzz-repros");
  f.gen.max_width = static_cast<int>(args.integer("--max-width", 12, 2));
  f.oracle.timeout_seconds = args.seconds("--timeout", 10);
  f.gen.sequential_percent =
      static_cast<unsigned>(args.integer("--seq-percent", 20, 0));
  f.gen.wide_stress_percent =
      static_cast<unsigned>(args.integer("--wide-percent", 15, 0));
  f.oracle.run_portfolio = !args.flag("--no-portfolio");
  const std::string replay = args.text("--replay", "");
  f.quiet = args.flag("--quiet");
  args.rest(0);
  if (mode != "all" && mode != "circuits" && mode != "ops" && mode != "fme" &&
      mode != "presolve") {
    throw UsageError("--mode must be all, circuits, ops, fme or presolve");
  }
  if (f.gen.max_width > ir::kMaxWidth) {
    throw UsageError("--max-width must be at most " +
                     std::to_string(ir::kMaxWidth));
  }

  try {
    if (!replay.empty()) {
      ir::NetId goal = ir::kNoNet;
      const ir::Circuit circuit = fuzz::load_repro_file(replay, &goal);
      const fuzz::OracleReport r = fuzz::run_oracle(circuit, goal, f.oracle);
      std::cout << replay << ": " << r.summary() << '\n';
      f.report(replay, r.mismatches);
      return r.ok() ? 0 : 1;
    }
    Timer timer;
    f.oracle.stop = StopToken::after(seconds);
    // Each iteration draws its own Rng from a distinct seed, so a mismatch
    // is reproducible from its instance seed alone.
    const auto more = [&](std::uint64_t i) {
      return seconds > 0 ? timer.seconds() < seconds
                         : i < static_cast<std::uint64_t>(iters);
    };
    for (std::uint64_t i = 0; more(i); ++i) {
      const std::uint64_t s = seed + i * 0x9e3779b97f4a7c15ULL;
      // Mode all: mostly circuits, with op/fme and presolve rounds
      // interleaved.
      if (mode == "ops" || mode == "fme") {
        f.op_round(s, mode == "ops", mode == "fme");
      } else if (mode == "presolve" || (mode == "all" && i % 10 == 4)) {
        f.instance(s, true);
      } else if (mode == "all" && i % 10 == 8) {
        f.op_round(s, true, true);
      } else {
        f.instance(s, false);
      }
    }
    std::cout << "rtlsat fuzz: " << f.instances << " instances (" << f.sat
              << " sat, " << f.unsat << " unsat, " << f.undecided
              << " undecided), " << f.op_checks << " op-fuzz rounds, "
              << f.mismatches << " mismatches, " << f.repros << " repros, "
              << static_cast<std::int64_t>(timer.seconds()) << " s\n";
    return f.mismatches == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "rtlsat fuzz: fatal: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace rtlsat::cli

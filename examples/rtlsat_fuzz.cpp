// rtlsat_fuzz — the differential fuzzing driver (docs/fuzzing.md).
//
// Generates random word-level instances, runs each through the full oracle
// matrix (three HDPLL configs, bit-blast CDCL, deterministic portfolio,
// brute force at small widths), and on any disagreement delta-reduces the
// instance and writes a minimal .rtl repro. Also interleaves the
// property-based fuzzers for the interval rules and the FME solver.
//
//   rtlsat_fuzz --seconds 60 --seed 1            # CI smoke shape
//   rtlsat_fuzz --iters 200 --mode circuits      # fixed instance count
//   rtlsat_fuzz --replay tests/regress/foo.rtl   # re-run one repro
//
// Exit status: 0 all checks agreed, 1 at least one mismatch, 2 usage error.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fuzz/generator.h"
#include "fuzz/op_fuzz.h"
#include "fuzz/oracle.h"
#include "fuzz/reduce.h"
#include "util/rng.h"
#include "util/stop_token.h"
#include "util/timer.h"

using namespace rtlsat;

namespace {

struct Args {
  double seconds = 0;    // 0 ⟹ use iters
  int iters = 100;
  std::uint64_t seed = 1;
  std::string mode = "all";  // all | circuits | ops | fme | presolve
  std::string out_dir = "fuzz-repros";
  std::string replay_path;
  int max_width = 12;
  double timeout = 10;
  unsigned seq_percent = 20;
  unsigned wide_percent = 15;
  bool portfolio = true;
  bool quiet = false;
  StopToken stop;  // armed by --seconds
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --seconds S       run until S wall-clock seconds elapse\n"
      << "  --iters N         run N iterations (default 100; ignored with --seconds)\n"
      << "  --seed K          base RNG seed (default 1)\n"
      << "  --mode M          all | circuits | ops | fme | presolve (default all)\n"
      << "  --out DIR         repro output directory (default fuzz-repros)\n"
      << "  --max-width W     largest base word width (default 12)\n"
      << "  --timeout T       per-engine solver timeout in seconds (default 10)\n"
      << "  --seq-percent P   share of sequential/BMC instances (default 20)\n"
      << "  --wide-percent P  share of near-kMaxWidth stress instances (default 15)\n"
      << "  --no-portfolio    drop the portfolio front-end from the matrix\n"
      << "  --replay FILE     run the oracle on one .rtl repro and exit\n"
      << "  --quiet           only report mismatches and the final summary\n";
  return 2;
}

struct Counters {
  std::int64_t instances = 0;
  std::int64_t sat = 0;
  std::int64_t unsat = 0;
  std::int64_t timeouts = 0;
  std::int64_t op_checks = 0;
  std::int64_t mismatches = 0;
  std::int64_t repros_written = 0;
};

fuzz::OracleOptions oracle_options(const Args& args) {
  fuzz::OracleOptions o;
  o.timeout_seconds = args.timeout;
  o.run_portfolio = args.portfolio;
  o.stop = args.stop;
  return o;
}

void report_mismatch(const std::string& what,
                     const std::vector<std::string>& details) {
  std::cerr << "MISMATCH: " << what << '\n';
  for (const std::string& d : details) std::cerr << "  " << d << '\n';
}

// Reduce a disagreeing instance and write the shrunken repro. The
// interestingness predicate is "the oracle still flags it" — run without
// the portfolio to keep the many reduction probes cheap; the verdict
// engines alone re-derive any disagreement the portfolio can. The probes
// ignore the run's deadline: engines abstaining past it would make every
// probe look uninteresting and leave the repro unreduced.
void reduce_and_write(const ir::Circuit& circuit, ir::NetId goal,
                      const Args& args, Counters& counters,
                      std::uint64_t instance_seed,
                      const fuzz::Interesting& still_failing) {
  fuzz::ReduceResult reduced;
  try {
    reduced = fuzz::reduce(circuit, goal, still_failing);
  } catch (const std::exception& e) {
    std::cerr << "  reduction failed (" << e.what()
              << "); writing the unreduced instance\n";
    reduced.circuit = circuit;
    reduced.goal = goal;
  }
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/mismatch-seed" +
                           std::to_string(instance_seed) + ".rtl";
  std::ofstream out(path);
  out << "; rtlsat_fuzz repro, instance seed " << instance_seed << "\n"
      << "; reduced " << reduced.initial_nodes << " -> "
      << reduced.final_nodes << " nets in " << reduced.attempts
      << " attempts\n"
      << fuzz::write_repro(reduced.circuit, reduced.goal);
  ++counters.repros_written;
  std::cerr << "  repro written to " << path << " (" << reduced.final_nodes
            << " nets)\n";
}

void run_circuit_instance(const Args& args, std::uint64_t instance_seed,
                          Counters& counters) {
  Rng rng(instance_seed);
  fuzz::GeneratorOptions gen;
  gen.max_width = args.max_width;
  gen.sequential_percent = args.seq_percent;
  gen.wide_stress_percent = args.wide_percent;
  const fuzz::FuzzInstance inst = fuzz::generate(rng, gen);

  const fuzz::OracleReport report =
      fuzz::run_oracle(inst.circuit, inst.goal, oracle_options(args));
  ++counters.instances;
  if (report.consensus == 'S') ++counters.sat;
  if (report.consensus == 'U') ++counters.unsat;
  if (report.consensus == '?') ++counters.timeouts;
  if (!args.quiet) {
    std::cout << "[" << instance_seed << "] " << inst.description << ": "
              << report.summary() << '\n';
  }
  if (report.ok()) return;
  counters.mismatches += static_cast<std::int64_t>(report.mismatches.size());
  report_mismatch("instance seed " + std::to_string(instance_seed) + " (" +
                      inst.description + ")",
                  report.mismatches);
  fuzz::OracleOptions probe = oracle_options(args);
  probe.run_portfolio = false;
  probe.stop = StopToken();
  reduce_and_write(inst.circuit, inst.goal, args, counters, instance_seed,
                   [&probe](const ir::Circuit& c, ir::NetId g) {
                     return !fuzz::run_oracle(c, g, probe).ok();
                   });
}

// The presolve soundness mode: presolved-vs-original differential check
// (verdicts, witness transfer through the net map, fact audits).
void run_presolve_instance(const Args& args, std::uint64_t instance_seed,
                           Counters& counters) {
  Rng rng(instance_seed);
  fuzz::GeneratorOptions gen;
  gen.max_width = args.max_width;
  gen.sequential_percent = args.seq_percent;
  gen.wide_stress_percent = args.wide_percent;
  const fuzz::FuzzInstance inst = fuzz::generate(rng, gen);

  const std::vector<std::string> violations =
      fuzz::compare_presolve(inst.circuit, inst.goal, oracle_options(args));
  ++counters.instances;
  if (!args.quiet) {
    std::cout << "[" << instance_seed << "] presolve " << inst.description
              << (violations.empty() ? ": ok" : ": MISMATCH") << '\n';
  }
  if (violations.empty()) return;
  counters.mismatches += static_cast<std::int64_t>(violations.size());
  report_mismatch("presolve, instance seed " + std::to_string(instance_seed) +
                      " (" + inst.description + ")",
                  violations);
  fuzz::OracleOptions probe = oracle_options(args);
  probe.stop = StopToken();
  reduce_and_write(inst.circuit, inst.goal, args, counters, instance_seed,
                   [&probe](const ir::Circuit& c, ir::NetId g) {
                     return !fuzz::compare_presolve(c, g, probe).empty();
                   });
}

void run_op_round(std::uint64_t round_seed, Counters& counters,
                  bool include_fme, bool include_intervals) {
  Rng rng(round_seed);
  if (include_intervals) {
    const std::vector<std::string> v = fuzz::fuzz_interval_ops(rng, 2000);
    counters.op_checks += 2000;
    if (!v.empty()) {
      counters.mismatches += static_cast<std::int64_t>(v.size());
      report_mismatch("interval ops, round seed " + std::to_string(round_seed),
                      v);
    }
  }
  if (include_fme) {
    const std::vector<std::string> v = fuzz::fuzz_fme(rng, 200);
    counters.op_checks += 200;
    if (!v.empty()) {
      counters.mismatches += static_cast<std::int64_t>(v.size());
      report_mismatch("fme, round seed " + std::to_string(round_seed), v);
    }
  }
}

int replay(const Args& args) {
  ir::NetId goal = ir::kNoNet;
  ir::Circuit circuit = fuzz::load_repro_file(args.replay_path, &goal);
  const fuzz::OracleReport report =
      fuzz::run_oracle(circuit, goal, oracle_options(args));
  std::cout << args.replay_path << ": " << report.summary() << '\n';
  if (!report.ok()) {
    report_mismatch(args.replay_path, report.mismatches);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seconds") args.seconds = std::atof(value());
    else if (a == "--iters") args.iters = std::atoi(value());
    else if (a == "--seed") args.seed = std::strtoull(value(), nullptr, 10);
    else if (a == "--mode") args.mode = value();
    else if (a == "--out") args.out_dir = value();
    else if (a == "--max-width") args.max_width = std::atoi(value());
    else if (a == "--timeout") args.timeout = std::atof(value());
    else if (a == "--seq-percent")
      args.seq_percent = static_cast<unsigned>(std::atoi(value()));
    else if (a == "--wide-percent")
      args.wide_percent = static_cast<unsigned>(std::atoi(value()));
    else if (a == "--no-portfolio") args.portfolio = false;
    else if (a == "--replay") args.replay_path = value();
    else if (a == "--quiet") args.quiet = true;
    else return usage(argv[0]);
  }
  if (args.mode != "all" && args.mode != "circuits" && args.mode != "ops" &&
      args.mode != "fme" && args.mode != "presolve") {
    return usage(argv[0]);
  }
  if (args.max_width < 2 || args.max_width > ir::kMaxWidth) {
    std::cerr << "--max-width must be in [2, " << ir::kMaxWidth << "]\n";
    return 2;
  }

  try {
    if (!args.replay_path.empty()) return replay(args);

    Counters counters;
    Timer timer;
    // Engines still running at the budget's end are cut short and abstain,
    // so the last iteration cannot overrun it by a whole engine matrix.
    args.stop = StopToken::after(args.seconds);
    // Each iteration draws its own Rng from a distinct seed, so any
    // mismatch is reproducible from its instance seed alone regardless of
    // how many iterations ran before it.
    std::uint64_t i = 0;
    const auto keep_going = [&] {
      return args.seconds > 0 ? timer.seconds() < args.seconds
                              : i < static_cast<std::uint64_t>(args.iters);
    };
    for (; keep_going(); ++i) {
      const std::uint64_t instance_seed =
          args.seed + i * 0x9e3779b97f4a7c15ULL;
      if (args.mode == "circuits") {
        run_circuit_instance(args, instance_seed, counters);
      } else if (args.mode == "ops") {
        run_op_round(instance_seed, counters, /*include_fme=*/false,
                     /*include_intervals=*/true);
      } else if (args.mode == "fme") {
        run_op_round(instance_seed, counters, /*include_fme=*/true,
                     /*include_intervals=*/false);
      } else if (args.mode == "presolve") {
        run_presolve_instance(args, instance_seed, counters);
      } else {
        // Mode all: mostly circuits, with op/fme and presolve rounds
        // interleaved.
        if (i % 10 == 8) {
          run_op_round(instance_seed, counters, true, true);
        } else if (i % 10 == 4) {
          run_presolve_instance(args, instance_seed, counters);
        } else {
          run_circuit_instance(args, instance_seed, counters);
        }
      }
    }

    std::cout << "rtlsat_fuzz: " << counters.instances << " instances ("
              << counters.sat << " sat, " << counters.unsat << " unsat, "
              << counters.timeouts << " undecided), " << counters.op_checks
              << " op-fuzz rounds, " << counters.mismatches << " mismatches, "
              << counters.repros_written << " repros, "
              << static_cast<std::int64_t>(timer.seconds()) << " s\n";
    return counters.mismatches == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "rtlsat_fuzz: fatal: " << e.what() << '\n';
    return 1;
  }
}

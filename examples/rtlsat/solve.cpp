// rtlsat solve / rtlsat bmc: one bounded model checking call on a model.
#include <cstdio>
#include <memory>

#include "bmc/sweep.h"
#include "cli.h"
#include "trace/progress.h"
#include "trace/trace.h"

namespace rtlsat::cli {

namespace {

// The verdict line shared by solve and bmc. Exit code 0 for a verdict, 1
// for a timeout or a cancelled run.
int print_status(const core::SolveResult& result, const std::string& property,
                 int bound) {
  if (result.status == core::SolveStatus::kSat) {
    std::printf("SAT — property %s violated after exactly %d steps (%.3fs)\n",
                property.c_str(), bound, result.seconds);
  } else if (result.status == core::SolveStatus::kUnsat) {
    std::printf("UNSAT — property %s holds at bound %d (%.3fs)\n",
                property.c_str(), bound, result.seconds);
  } else {
    std::printf("%s after %.1fs\n",
                result.status == core::SolveStatus::kTimeout ? "TIMEOUT"
                                                             : "CANCELLED",
                result.seconds);
    return 1;
  }
  return 0;
}

// RTLSAT_PROOF turns `bmc` into a certifying sweep (bmc/sweep.h): every
// bound from 1 up is solved with a word certificate that is verified
// in-process and, given a directory, saved there. A rejected certificate
// is exit 1.
int certified_sweep(const ir::SeqCircuit& seq, const std::string& property,
                    int bound, const core::HdpllOptions& options,
                    const ProofCapture& proof) {
  bmc::SweepOptions sweep_options;
  sweep_options.solver = options;
  sweep_options.certify = true;
  sweep_options.cert_dir = proof.dir;
  const bmc::SweepResult sweep =
      bmc::sweep(seq, property, bound, sweep_options);
  bool rejected = false;
  for (const bmc::FrameResult& frame : sweep.frames) {
    const char* verdict = frame.status == core::SolveStatus::kSat ? "SAT"
                          : frame.status == core::SolveStatus::kUnsat
                              ? "UNSAT"
                              : "TIMEOUT";
    std::printf("%-12s %-8s %.3fs  cert: %lld records, %lld bytes, %s\n",
                frame.name.c_str(), verdict, frame.seconds,
                static_cast<long long>(frame.cert_records),
                static_cast<long long>(frame.cert_bytes),
                frame.cert_error.empty() ? "VERIFIED"
                                         : frame.cert_error.c_str());
    rejected = rejected || !frame.cert_error.empty();
  }
  if (sweep.first_sat_bound >= 0) {
    std::printf("counterexample at bound %d\n", sweep.first_sat_bound);
  } else {
    std::printf("no violation within bound %d (every frame certified)\n",
                bound);
  }
  return rejected ? 1 : 0;
}

}  // namespace

// --trace writes <base>.jsonl and <base>.trace.json (Perfetto); --progress
// prints a MiniSat-style banner. SAT prints the violating inputs.
int cmd_solve(Args& args) {
  std::unique_ptr<trace::Tracer> tracer;
  if (const auto base = args.value("--trace")) {
    trace::TracerOptions topts;
    topts.jsonl_path = *base + ".jsonl";
    topts.chrome_path = *base + ".trace.json";
    tracer = std::make_unique<trace::Tracer>(topts);
  }
  std::unique_ptr<trace::ProgressReporter> progress;
  if (args.flag("--progress"))
    progress = std::make_unique<trace::ProgressReporter>();
  const std::vector<std::string> pos = args.rest(5);
  if (pos.size() < 3) throw UsageError("missing <model> <property> <bound>");
  const Config config = parse_config(pos.size() > 3 ? pos[3] : "sp");
  const double timeout =
      pos.size() > 4 ? parse_seconds(pos[4], "timeout") : 1200;

  ir::SeqCircuit seq("empty");
  {
    trace::ScopedPhase parse_phase(
        tracer != nullptr ? tracer.get() : &trace::global(), nullptr, "parse");
    seq = load_model(pos[0]);
  }
  const bmc::BmcInstance instance = unroll_model(seq, pos[1], pos[2]);
  core::HdpllOptions options = make_options(config, timeout);
  options.tracer = tracer.get();
  options.progress = progress.get();
  core::HdpllSolver solver(instance.circuit, options);
  solver.assume_bool(instance.goal, true);
  const core::SolveResult result = solver.solve();
  const int status = print_status(result, pos[1], instance.bound);
  if (result.status == core::SolveStatus::kSat) {
    std::printf("violating input sequence:\n");
    for (const ir::NetId in : instance.circuit.inputs()) {
      std::printf("  %s = %lld\n", instance.circuit.net_name(in).c_str(),
                  static_cast<long long>(result.input_model.at(in)));
    }
  }
  return status;
}

// Prints the instance size and, on SAT, the registers frame by frame.
int cmd_bmc(Args& args) {
  const std::vector<std::string> pos = args.rest(4);
  const auto arg = [&](std::size_t i, const char* fallback) {
    return pos.size() > i ? pos[i] : std::string(fallback);
  };
  const ir::SeqCircuit seq = load_model(arg(0, "b13"));
  const std::string property = arg(1, "5");
  const bmc::BmcInstance instance = unroll_model(seq, property, arg(2, "20"));
  const core::HdpllOptions options =
      make_options(parse_config(arg(3, "sp")), 1200);  // the paper's timeout
  const auto counts = instance.circuit.op_counts();
  std::printf("instance %s: %zu arith ops, %zu bool ops, %zu nets\n",
              instance.name.c_str(), counts.arith, counts.boolean,
              instance.circuit.num_nets());

  if (const ProofCapture proof = ProofCapture::from_env(); proof.on)
    return certified_sweep(seq, property, instance.bound, options, proof);

  core::HdpllSolver solver(instance.circuit, options);
  solver.assume_bool(instance.goal, true);
  const core::SolveResult result = solver.solve();
  const int status = print_status(result, property, instance.bound);
  if (options.predicate_learning) {
    std::printf("predicate learning: %d relations, %d units, %.3fs\n",
                result.learning.relations_learned,
                result.learning.units_learned, result.learning.seconds);
  }
  if (result.status != core::SolveStatus::kSat) return status;
  const auto values = instance.circuit.evaluate(result.input_model);
  std::printf("counterexample trace (registers per frame):\n");
  for (int frame = 0; frame <= instance.bound; ++frame) {
    std::printf("  t=%-3d", frame);
    for (const auto& reg : seq.registers()) {
      std::printf(" %s=%lld", reg.name.c_str(),
                  static_cast<long long>(
                      values[instance.frame_map[frame][reg.q]]));
    }
    std::printf("\n");
    if (frame >= 12) {
      std::printf("  ... (%d more frames)\n", instance.bound - frame);
      break;
    }
  }
  return status;
}

}  // namespace rtlsat::cli

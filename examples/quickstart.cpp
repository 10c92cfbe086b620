// Quickstart: build a small word-level circuit, check a property with the
// hybrid DPLL solver, and print the witness.
//
//   $ ./quickstart
//   $ ./quickstart --trace out       # writes out.jsonl + out.trace.json
//   $ ./quickstart --progress        # MiniSat-style progress banner
//   $ ./quickstart --metrics hb.jsonl [--sample-ms N]
//                                    # JSONL heartbeats every N ms
//
// The circuit is a saturating accumulator step: out = min(acc + in, 200).
// We ask: can the output land exactly on the saturation boundary while the
// accumulator stays below 100?
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/hdpll.h"
#include "trace/progress.h"
#include "trace/sink.h"
#include "trace/trace.h"

using namespace rtlsat;

int main(int argc, char** argv) {
  std::unique_ptr<trace::Tracer> tracer;
  bool banner = false;
  std::string metrics_path;
  int sample_ms = 100;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace::TracerOptions topts;
      topts.jsonl_path = std::string(argv[++i]) + ".jsonl";
      topts.chrome_path = std::string(argv[i]) + ".trace.json";
      tracer = std::make_unique<trace::Tracer>(topts);
    } else if (std::strcmp(argv[i], "--progress") == 0) {
      banner = true;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--sample-ms") == 0 && i + 1 < argc) {
      sample_ms = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace <base>] [--progress] "
                   "[--metrics <path>] [--sample-ms <n>]\n",
                   argv[0]);
      return 2;
    }
  }

  // One reporter drives both the banner and the heartbeat file.
  std::unique_ptr<trace::JsonlSink> metrics_sink;
  std::unique_ptr<trace::ProgressReporter> progress;
  if (!metrics_path.empty())
    metrics_sink = std::make_unique<trace::JsonlSink>(metrics_path);
  if (banner || metrics_sink != nullptr) {
    trace::ProgressOptions progress_options;
    progress_options.banner = banner;
    progress_options.sink = metrics_sink.get();
    progress_options.label = "hdpll";
    if (metrics_sink != nullptr)
      progress_options.interval_seconds = std::max(sample_ms, 1) / 1000.0;
    progress = std::make_unique<trace::ProgressReporter>(progress_options);
  }

  ir::Circuit c("quickstart");

  const ir::NetId acc = c.add_input("acc", 8);
  const ir::NetId in = c.add_input("in", 8);
  const ir::NetId cap = c.add_const(200, 8);

  const ir::NetId sum = c.add_add(acc, in);
  const ir::NetId saturated = c.add_min(sum, cap);  // lowers to lt + mux

  const ir::NetId on_boundary = c.add_eq(saturated, cap);
  const ir::NetId acc_small = c.add_lt(acc, c.add_const(100, 8));
  const ir::NetId goal = c.add_and(on_boundary, acc_small);

  core::HdpllOptions options;
  options.structural_decisions = true;  // the paper's +S strategy
  options.tracer = tracer.get();
  options.progress = progress.get();
  core::HdpllSolver solver(c, options);
  solver.assume_bool(goal, true);

  const core::SolveResult result = solver.solve();
  if (metrics_sink != nullptr) {
    std::printf("metrics: %lld heartbeats -> %s\n",
                static_cast<long long>(metrics_sink->lines_written()),
                metrics_path.c_str());
  }
  switch (result.status) {
    case core::SolveStatus::kSat: {
      std::printf("SAT in %.3fs\n", result.seconds);
      std::printf("  acc = %lld\n",
                  static_cast<long long>(result.input_model.at(acc)));
      std::printf("  in  = %lld\n",
                  static_cast<long long>(result.input_model.at(in)));
      const auto values = c.evaluate(result.input_model);
      std::printf("  saturated output = %lld (expected 200)\n",
                  static_cast<long long>(values[saturated]));
      break;
    }
    case core::SolveStatus::kUnsat:
      std::printf("UNSAT in %.3fs\n", result.seconds);
      break;
    case core::SolveStatus::kTimeout:
      std::printf("timeout\n");
      break;
    case core::SolveStatus::kCancelled:
      std::printf("cancelled\n");
      break;
  }
  std::printf("decisions=%lld conflicts=%lld\n",
              static_cast<long long>(solver.stats().get("hdpll.decisions")),
              static_cast<long long>(solver.stats().get("hdpll.conflicts")));
  return result.status == core::SolveStatus::kSat ? 0 : 1;
}

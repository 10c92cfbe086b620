// Ablation benches for the design choices DESIGN.md calls out:
//   1. hybrid word literals in learned clauses vs Boolean-only resolution,
//   2. learning-threshold sweep (the §3.1 cost/benefit trade-off),
//   3. decision heuristic variants (activity vs random — §5.1's
//      "randomized decision strategy" observation),
//   4. word-relation learning on/off inside predicate learning.
#include <cstring>
#include <vector>

#include "bench_common.h"

using namespace rtlsat;
using namespace rtlsat::bench;

namespace {

BenchJson* g_json = nullptr;

void run_and_print(const char* label, const bmc::BmcInstance& instance,
                   const core::HdpllOptions& options) {
  const RunResult r = run_hdpll(instance, options);
  if (g_json != nullptr) g_json->add_row(instance.name, label, r);
  std::printf("  %-34s %c %9s\n", label, r.verdict, cell(r).c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const bool full = args.full;
  const double timeout = args.smoke ? 10 : full ? 600 : 60;
  const int bound = args.smoke ? 15 : full ? 100 : 40;
  BenchJson json("ablations", args.json_path);
  g_json = &json;

  const ir::SeqCircuit b13 = itc99::build("b13");

  {
    std::printf("Ablation 1 — hybrid word literals in conflict clauses "
                "(b13_1(%d))\n", bound);
    const auto instance = bmc::unroll(b13, "1", bound);
    auto options = make_options(Config::kStructural, timeout, 0);
    run_and_print("hybrid clauses (paper)", instance, options);
    options.analyze.hybrid_word_literals = false;
    run_and_print("boolean-only clauses", instance, options);
  }

  {
    std::printf("\nAblation 2 — learning threshold sweep (b13_5(%d))\n",
                bound);
    const auto instance = bmc::unroll(b13, "5", bound);
    for (const int threshold : {0, 50, 250, 1000, 2500}) {
      auto options = make_options(Config::kStructuralPred, timeout, threshold);
      if (threshold == 0) options.predicate_learning = false;
      const RunResult r = run_hdpll(instance, options);
      json.add_row(instance.name, str_format("threshold_%d", threshold), r);
      std::printf("  threshold %-5d rels=%-5d learn=%6.2fs solve %c %9s\n",
                  threshold, r.learning.relations_learned, r.learning.seconds,
                  r.verdict, cell(r).c_str());
      std::fflush(stdout);
    }
  }

  {
    std::printf("\nAblation 3 — decision heuristics (b13_3(%d), the §5.1 "
                "anomaly family)\n", bound);
    const auto instance = bmc::unroll(b13, "3", bound);
    run_and_print("activity (paper base)", instance,
                  make_options(Config::kHdpll, timeout, 0));
    run_and_print("structural (+S)", instance,
                  make_options(Config::kStructural, timeout, 0));
    run_and_print("structural+learning (+S+P)", instance,
                  make_options(Config::kStructuralPred, timeout, 2000));
    auto random_options = make_options(Config::kHdpll, timeout, 0);
    random_options.random_decisions = true;
    run_and_print("randomized", instance, random_options);
  }

  {
    std::printf("\nAblation 4 — Luby restarts (b13_5(%d))\n", bound);
    const auto instance = bmc::unroll(b13, "5", bound);
    for (const int interval : {0, 32, 128, 512}) {
      auto options = make_options(Config::kHdpll, timeout, 0);
      options.restart_interval = interval;
      const RunResult r = run_hdpll(instance, options);
      json.add_row(instance.name, str_format("restart_%d", interval), r);
      std::printf("  restart interval %-5d %c %9s\n", interval, r.verdict,
                  cell(r).c_str());
      std::fflush(stdout);
    }
  }

  {
    std::printf("\nAblation 5 — word relations in predicate learning "
                "(b13_5(%d))\n", bound);
    const auto instance = bmc::unroll(b13, "5", bound);
    auto options = make_options(Config::kStructuralPred, timeout, 2000);
    run_and_print("boolean+word relations (paper)", instance, options);
    options.learning.learn_word_relations = false;
    run_and_print("boolean relations only", instance, options);
  }

  {
    std::printf("\nAblation 6 — word-domain split probing (b13_1(%d); "
                "extension along the paper's future-work direction)\n",
                bound);
    const auto instance = bmc::unroll(b13, "1", bound);
    auto options = make_options(Config::kStructuralPred, timeout, 2000);
    run_and_print("boolean probing only (paper)", instance, options);
    options.learning.word_probing = true;
    run_and_print("+ word-domain probing", instance, options);
  }
  return json.close() ? 0 : 1;
}

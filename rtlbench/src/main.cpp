// rtlbench: runs one benchmark workload and prints one JSON result line.
//
//   rtlbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --oracle <oracle.tsv> [--spans <out.jsonl>]
//   rtlbench --selftest --oracle <oracle.tsv>
//   rtlbench --make-oracle <oracle.tsv>
//
// A run sets the workload up several times, then runs passes until
// --seconds have elapsed, setting up again after each (setup_s is the
// median of all the set-ups). Every time is measured on a RefClock, which
// the run samples before and after each pass and set-up gap and the passes
// sample between their calls. With --trace 0 it reports the end-to-end
// metrics over all passes; with --trace 1 it alternates untraced and
// traced passes and reports the per-layer metrics: span self times,
// solver counters, allocation counts (traced passes) and latency
// breakdowns (untraced passes). Every verdict is compared with the oracle
// table and every SAT model replayed; any failure makes the exit code 1.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "instrument.h"
#include "oracle.h"
#include "refclock.h"
#include "summary.h"
#include "workloads.h"

namespace rtlbench {
namespace {

// setup_s is the median of every timed set-up: kMinSetups before the first
// pass, then, after each pass, set-ups for at least kGapSetupSeconds. Host
// load on a shared machine shifts over seconds and a set-up is short, so
// the samples are spread over the whole run, as the passes are.
constexpr std::size_t kMinSetups = 5;
constexpr double kGapSetupSeconds = 0.05;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string oracle;
  std::string spans;
  bool selftest = false;
  std::string make_oracle;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Reported with --trace 0, in this order.
const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"verdict_s", "s"},
    {"latency_p50_ms", "ms"},
    {"throughput_rps", "1/s"},
    {"peak_rss_mb", "MB"},
};

// Reported with --trace 1, in this order; a layer a workload does not
// exercise reads 0.
const MetricDef kPerLayer[] = {
    {"itc99.build_s", "s"},
    {"bmc.unroll_s", "s"},
    {"parser.write_s", "s"},
    {"core.search_s", "s"},
    {"core.preprocess_s", "s"},
    {"core.construct_s", "s"},
    {"core.call_overhead_s", "s"},
    {"core.decisions", "count"},
    {"core.conflicts", "count"},
    {"core.learned_clauses", "count"},
    {"core.analyze_resolutions", "count"},
    {"core.restarts", "count"},
    {"core.reductions", "count"},
    {"core.clauses_deleted", "count"},
    {"core.justify_scans", "count"},
    {"core.justify_scans_per_decision", "ratio"},
    {"prop.propagations", "count"},
    {"prop.datapath_narrowings", "count"},
    {"prop.implication_graph_bytes", "bytes"},
    {"prop.interval_store_bytes", "bytes"},
    {"core.clause_db_bytes", "bytes"},
    {"learn.s", "s"},
    {"learn.report_s", "s"},
    {"learn.probes", "count"},
    {"learn.relations", "count"},
    {"learn.units", "count"},
    {"learn.relations_per_probe", "ratio"},
    {"fme.s", "s"},
    {"fme.calls", "count"},
    {"core.arith_checks", "count"},
    {"core.arith_conflicts", "count"},
    {"fme.refute_ratio", "ratio"},
    {"bmc.grow_s", "s"},
    {"bmc.frames", "count"},
    {"bmc.frame_solve_p50_ms", "ms"},
    {"bmc.frame_solve_max_ms", "ms"},
    {"serve.wait_ms_p50", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.miss_solve_ms_p50", "ms"},
    {"portfolio.wins.hdpll_sp", "count"},
    {"portfolio.wins.bitblast", "count"},
    {"parser.parse_ms_p50", "ms"},
    {"ir.canonicalize_ms_p50", "ms"},
    {"serve.exact_hits", "count"},
    {"serve.canonical_hits", "count"},
    {"serve.misses", "count"},
    {"serve.bmc_session_calls", "count"},
    {"hit_latency_p50_ms", "ms"},
    {"miss_latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
    {"latency_tail_pct", "%"},
    {"latency_tail_samples", "count"},
    {"alloc.count", "count"},
    {"alloc.bytes", "bytes"},
    {"alloc.per_decision", "allocs/decision"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.coverage_ratio", "ratio"},
    {"host.kernel_ms", "ms"},
    {"verdict_raw_s", "s"},
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr, "rtlbench: %s\n", message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  const auto value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) usage("a flag is missing its value");
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--workload") == 0) args.workload = value(&i);
    else if (std::strcmp(flag, "--seed") == 0) args.seed = std::strtoull(value(&i), nullptr, 10);
    else if (std::strcmp(flag, "--seconds") == 0) args.seconds = std::atof(value(&i));
    else if (std::strcmp(flag, "--trace") == 0) args.trace = std::atoi(value(&i)) != 0;
    else if (std::strcmp(flag, "--oracle") == 0) args.oracle = value(&i);
    else if (std::strcmp(flag, "--spans") == 0) args.spans = value(&i);
    else if (std::strcmp(flag, "--selftest") == 0) args.selftest = true;
    else if (std::strcmp(flag, "--make-oracle") == 0) args.make_oracle = value(&i);
    else usage((std::string("unknown flag ") + flag).c_str());
  }
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(bool correct, std::int64_t attempted, std::int64_t failed,
                  const std::map<std::string, double>& values,
                  bool per_layer) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& def) {
    const auto it = values.find(def.name);
    double v = it == values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) v = 0;
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", v);
    json += first ? "" : ", ";
    first = false;
    json += std::string("\"") + def.name + "\": {\"value\": " + number +
            ", \"unit\": \"" + def.unit + "\"}";
  };
  if (per_layer) {
    for (const MetricDef& def : kPerLayer) emit(def);
  } else {
    for (const MetricDef& def : kEndToEnd) emit(def);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Per key: the median over the passes that carry it.
std::map<std::string, double> median_layers(
    const std::vector<PassResult>& passes) {
  std::map<std::string, std::vector<double>> samples;
  for (const PassResult& pass : passes)
    for (const auto& [key, value] : pass.layer) samples[key].push_back(value);
  std::map<std::string, double> out;
  for (const auto& [key, values] : samples) out[key] = median(values);
  return out;
}

int run_workload(const Args& args, const Oracle& oracle) {
  std::unique_ptr<Workload> workload =
      make_workload({args.workload, args.seed, false}, oracle);
  if (workload == nullptr) usage(("unknown workload " + args.workload).c_str());

  SpanLog spans(args.trace);
  SpanLog off(false);
  RefClock clock;
  std::vector<std::pair<double, double>> setups;  // on the clock
  const auto timed_setup = [&] {
    workload->reset();
    const double start = clock.now();
    workload->setup(off, -1);
    setups.emplace_back(start, clock.now());
  };
  clock.sample();
  while (setups.size() < kMinSetups) timed_setup();
  clock.sample();
  // One more, traced, for the per-layer split; the first pass runs on it.
  workload->reset();
  const int setup_root = spans.open("setup", -1, args.workload);
  workload->setup(spans, setup_root);
  spans.close(setup_root);

  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  double rss_mb = 0;
  for (int w = 0; w < workload->warmup_passes(); ++w) {
    const PassResult pass = workload->run_pass(off, -1, clock);
    attempted += pass.attempted;
    failed += pass.failed;
    for (const std::string& failure : pass.failures)
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    timed_setup();
  }
  const double run_start = clock.now();
  for (int i = 0;; ++i) {
    const bool have_enough =
        !untraced.empty() && (!args.trace || !traced.empty());
    if (have_enough && clock.now() - run_start >= args.seconds) break;
    const bool trace_pass = args.trace && i % 2 == 1;
    SpanLog& log = trace_pass ? spans : off;
    clock.sample();
    const int root =
        log.open("pass", -1, args.workload + "#" + std::to_string(i));
    const AllocCounts before = alloc_counts();
    set_alloc_counting(trace_pass);
    PassResult pass = workload->run_pass(log, root, clock);
    set_alloc_counting(false);
    log.close(root);
    clock.sample();
    if (trace_pass) {
      const AllocCounts after = alloc_counts();
      const double count = static_cast<double>(after.count - before.count);
      pass.layer["alloc.count"] = count;
      pass.layer["alloc.bytes"] = static_cast<double>(after.bytes - before.bytes);
      const double decisions = pass.layer["core.decisions"];
      pass.layer["alloc.per_decision"] = decisions > 0 ? count / decisions : 0;
    }
    attempted += pass.attempted;
    failed += pass.failed;
    for (const std::string& failure : pass.failures)
      std::fprintf(stderr, "FAIL %s\n", failure.c_str());
    std::fprintf(stderr, "pass %d%s: %.4f s (%.4f s on the clock), %zu ops, "
                 "%lld failed, peak RSS %.1f MB\n", i,
                 trace_pass ? " (traced)" : "", pass.wall_s,
                 clock.measure(pass.start_s, pass.end_s).ref_s,
                 pass.ops.size(), static_cast<long long>(pass.failed),
                 peak_rss_mb());
    // Peak RSS after set-up and one pass: later passes only add allocator
    // fragmentation, which varies from run to run.
    if (!trace_pass && untraced.empty()) rss_mb = peak_rss_mb();
    (trace_pass ? traced : untraced).push_back(std::move(pass));
    const double gap_start = clock.now();
    do timed_setup(); while (clock.now() - gap_start < kGapSetupSeconds);
  }
  // Closes the last set-up gap.
  clock.sample();

  // From here on every time is in reference seconds.
  const auto ref_ms = [&](const Op& op) {
    return clock.measure(op.start_s, op.end_s).ref_s * 1e3;
  };
  std::vector<double> setup_times;
  for (const auto& [start, end] : setups)
    setup_times.push_back(clock.measure(start, end).ref_s);

  // Every pass makes the same operations in the same order. An operation's
  // latency is its median over the passes; latency_p50_ms is the median
  // operation. (A pass where a request errored lacks one and is skipped.)
  std::vector<double> op_ms;
  const std::size_t num_ops = untraced.front().ops.size();
  for (std::size_t j = 0; j < num_ops; ++j) {
    std::vector<double> samples;
    for (const PassResult& pass : untraced)
      if (pass.ops.size() == num_ops) samples.push_back(ref_ms(pass.ops[j]));
    op_ms.push_back(median(samples));
  }

  std::vector<double> walls;
  std::vector<double> raw_walls;
  std::vector<double> all_ms;
  std::vector<double> hit_ms;
  std::vector<double> miss_ms;
  double wall_total = 0;
  for (const PassResult& pass : untraced) {
    walls.push_back(clock.measure(pass.start_s, pass.end_s).ref_s);
    raw_walls.push_back(pass.wall_s);
    wall_total += walls.back();
    for (const Op& op : pass.ops) {
      const double ms = ref_ms(op);
      all_ms.push_back(ms);
      if (op.kind == 'h') hit_ms.push_back(ms);
      if (op.kind == 'm') miss_ms.push_back(ms);
    }
  }

  std::map<std::string, double> values;
  if (!args.trace) {
    values["setup_s"] = median(setup_times);
    values["verdict_s"] = median(walls);
    values["latency_p50_ms"] = median(op_ms);
    values["throughput_rps"] =
        wall_total > 0 ? static_cast<double>(all_ms.size()) / wall_total : 0;
    values["peak_rss_mb"] = rss_mb;
  } else {
    // Traced-only keys from the traced passes; everything an untraced pass
    // also measures (counters, latency splits) from the untraced ones.
    values = median_layers(traced);
    for (const auto& [key, value] : median_layers(untraced)) values[key] = value;
    std::map<std::string, double> setup = spans.self_seconds(setup_root);
    values["itc99.build_s"] = setup["itc99.build"];
    values["bmc.unroll_s"] = setup["bmc.unroll"];
    values["parser.write_s"] = setup["parser.write"];
    values["hit_latency_p50_ms"] = median(hit_ms);
    values["miss_latency_p50_ms"] = median(miss_ms);
    const Tail t = tail(all_ms);
    values["latency_tail_ms"] = t.value;
    values["latency_tail_pct"] = t.percentile;
    values["latency_tail_samples"] = t.samples_above;
    std::vector<double> traced_walls;
    for (const PassResult& pass : traced)
      traced_walls.push_back(clock.measure(pass.start_s, pass.end_s).ref_s);
    values["trace.overhead_ratio"] = median(traced_walls) / median(walls);
    values["host.kernel_ms"] = clock.median_kernel_s() * 1e3;
    values["verdict_raw_s"] = median(raw_walls);
    if (!args.spans.empty() && !spans.write_jsonl(args.spans))
      std::fprintf(stderr, "warning: cannot write spans to %s\n",
                   args.spans.c_str());
  }
  print_result(failed == 0, attempted, failed, values, args.trace);
  return failed == 0 ? 0 : 1;
}

// The self-test: each workload's shortened configuration, traced, run
// twice in fresh workload objects. Asserts every verdict is right, the
// pass totals equal the sum of the per-instance rows, and the exact-count
// fingerprint (decisions, conflicts, relations, fme.calls, frames, serve
// tier hits) repeats exactly.
int run_selftest(const Oracle& oracle) {
  int problems = 0;
  const auto fail = [&](const std::string& what) {
    std::printf("FAIL %s\n", what.c_str());
    ++problems;
  };
  for (const std::string& name : workload_names()) {
    const int problems_before = problems;
    Counters fingerprints[2];
    for (Counters& fingerprint : fingerprints) {
      std::unique_ptr<Workload> workload =
          make_workload({name, /*seed=*/7, /*shortened=*/true}, oracle);
      SpanLog spans(true);
      RefClock clock;
      workload->setup(spans, spans.open("setup", -1, name));
      const int root = spans.open("pass", -1, name);
      const PassResult pass = workload->run_pass(spans, root, clock);
      spans.close(root);
      if (pass.failed != 0 || pass.attempted == 0)
        fail(name + ": " + std::to_string(pass.failed) + " of " +
             std::to_string(pass.attempted) + " verdicts failed");
      Counters sum;
      for (const auto& [instance, row] : pass.rows)
        for (const auto& [key, value] : row) sum[key] += value;
      for (const auto& [key, value] : pass.totals) {
        if (key.rfind("time.", 0) == 0) continue;
        if (sum[key] != value)
          fail(name + ": total " + key + " = " + std::to_string(value) +
               " but the rows sum to " + std::to_string(sum[key]));
        fingerprint[key] = value;
      }
      const auto frames = pass.layer.find("bmc.frames");
      if (frames != pass.layer.end())
        fingerprint["bmc.frames"] = static_cast<std::int64_t>(frames->second);
    }
    Counters keys = fingerprints[0];
    keys.insert(fingerprints[1].begin(), fingerprints[1].end());
    for (const auto& [key, unused] : keys) {
      if (fingerprints[0][key] != fingerprints[1][key])
        fail(name + ": " + key + " differs between runs: " +
             std::to_string(fingerprints[0][key]) + " vs " +
             std::to_string(fingerprints[1][key]));
    }
    std::printf("%s %s:", problems == problems_before ? "ok  " : "FAIL",
                name.c_str());
    for (const char* key : {"core.decisions", "core.conflicts",
                            "learn.relations", "fme.calls", "bmc.frames",
                            "serve.exact_hits", "serve.canonical_hits"}) {
      const auto it = fingerprints[0].find(key);
      if (it != fingerprints[0].end())
        std::printf(" %s=%lld", key, static_cast<long long>(it->second));
    }
    std::printf("\n");
  }
  return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace rtlbench

int main(int argc, char** argv) {
  using namespace rtlbench;
  const Args args = parse_args(argc, argv);
  if (!args.make_oracle.empty())
    return write_oracle(oracle_instances(), args.make_oracle) ? 0 : 1;
  if (args.oracle.empty()) usage("--oracle is required");
  Oracle oracle;
  std::string error;
  if (!oracle.load(args.oracle, &error)) usage(error.c_str());
  if (args.selftest) return run_selftest(oracle);
  if (args.workload.empty()) usage("--workload is required");
  return run_workload(args, oracle);
}

#include "metrics/metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/hdpll.h"
#include "metrics/sampler.h"
#include "trace/json.h"
#include "trace/progress.h"
#include "trace/sink.h"
#include "trace/trace.h"

namespace rtlsat::metrics {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

trace::JsonValue parse_line(const std::string& line) {
  trace::JsonValue value;
  std::string error;
  EXPECT_TRUE(trace::json_parse(line, &value, &error)) << error << ": " << line;
  EXPECT_TRUE(value.is_object()) << line;
  return value;
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, GaugeMonotoneFlagSurvivesScrape) {
  MetricsRegistry registry;
  Gauge* cumulative = registry.gauge("t.decisions", {}, /*monotone=*/true);
  Gauge* instant = registry.gauge("t.trail");
  cumulative->set(42);
  instant->set(7);
  EXPECT_TRUE(cumulative->monotone());
  EXPECT_FALSE(instant->monotone());

  const std::vector<MetricsRegistry::Sample> samples = registry.scrape();
  ASSERT_EQ(samples.size(), 2u);
  // scrape() sorts by (name, source).
  EXPECT_EQ(samples[0].name, "t.decisions");
  EXPECT_TRUE(samples[0].monotone);
  EXPECT_EQ(samples[0].value, 42);
  EXPECT_EQ(samples[1].name, "t.trail");
  EXPECT_FALSE(samples[1].monotone);
  EXPECT_EQ(samples[1].value, 7);
}

TEST(Registry, CanonicalLabelsAreSortedByKey) {
  EXPECT_EQ(canonical_labels({}), "");
  EXPECT_EQ(canonical_labels({{"worker", "0"}, {"name", "HDPLL+S"}}),
            "name=HDPLL+S,worker=0");
  // Same set, different registration order -> same source string (and so the
  // same registry entry).
  MetricsRegistry registry;
  Gauge* a = registry.gauge("t.g", {{"b", "2"}, {"a", "1"}});
  Gauge* b = registry.gauge("t.g", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Exposition, NameSanitization) {
  EXPECT_EQ(exposition_name("serve.jobs_done"), "rtlsat_serve_jobs_done");
}

TEST(Exposition, RoundTripsThroughParser) {
  MetricsRegistry registry;
  registry.gauge("t.imports", {{"worker", "0"}}, /*monotone=*/true)->set(5);
  registry.gauge("t.imports", {{"worker", "1"}}, /*monotone=*/true)->set(9);
  registry.gauge("t.trail")->set(123);

  std::ostringstream out;
  registry.expose(out);
  const std::string text = out.str();
  // One # TYPE line per family even with several label sets.
  EXPECT_NE(text.find("# TYPE rtlsat_t_imports gauge"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE rtlsat_t_imports gauge"),
            text.rfind("# TYPE rtlsat_t_imports gauge"));

  std::map<std::string, double> parsed;
  std::string error;
  ASSERT_TRUE(parse_exposition(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.at("rtlsat_t_imports{worker=\"0\"}"), 5);
  EXPECT_EQ(parsed.at("rtlsat_t_imports{worker=\"1\"}"), 9);
  EXPECT_EQ(parsed.at("rtlsat_t_trail"), 123);
}

// The exposition and the sampler JSONL series are two views of one scrape,
// so every gauge the sampler writes must appear in expose() with the same
// value.
TEST(Exposition, AgreesWithSamplerSeries) {
  MetricsRegistry registry;
  const Labels labels = {{"worker", "0"}, {"name", "cfg"}};
  registry.gauge("serve.jobs_done", labels, /*monotone=*/true)->set(100);
  registry.gauge("serve.queue_depth", labels)->set(17);
  registry.gauge("serve.connections", labels)->set(3);

  SamplerOptions options;
  options.collect_in_memory = true;
  options.include_process = false;
  options.clock = [] { return 1.0; };
  Sampler sampler(&registry, options);
  sampler.tick();
  std::vector<std::string> lines = sampler.drain();
  ASSERT_EQ(lines.size(), 1u);
  const trace::JsonValue line = parse_line(lines[0]);

  std::ostringstream out;
  registry.expose(out);
  std::map<std::string, double> exposed;
  std::string error;
  ASSERT_TRUE(parse_exposition(out.str(), &exposed, &error)) << error;
  const std::string label_suffix = "{name=\"cfg\",worker=\"0\"}";

  int checked = 0;
  for (const auto& [key, value] : line.object) {
    // Skip the line-framing fields and the label echo — only gauge fields
    // have exposition counterparts.
    if (key == "t_s" || key == "source" || key == "name" || key == "worker")
      continue;
    ASSERT_TRUE(value.is_number()) << key;
    EXPECT_EQ(exposed.at(exposition_name(key) + label_suffix), value.number)
        << key;
    ++checked;
  }
  EXPECT_EQ(checked, 3);  // every gauge was cross-checked
}

// ---------------------------------------------------------------------------
// Sampler

TEST(Sampler, FakeClockRatesAreExactAndFirstSampleHasNone) {
  MetricsRegistry registry;
  Gauge* jobs = registry.gauge("serve.jobs_done", {}, /*monotone=*/true);
  Gauge* depth = registry.gauge("serve.queue_depth");

  double now = 0.0;
  SamplerOptions options;
  options.collect_in_memory = true;
  options.include_process = false;
  options.clock = [&now] { return now; };
  Sampler sampler(&registry, options);

  jobs->set(100);
  depth->set(50);
  sampler.tick();  // t=0: establishes the baseline, no rate yet

  now = 2.0;
  jobs->set(700);
  depth->set(60);
  sampler.tick();  // t=2: rate = (700-100)/2

  const std::vector<std::string> lines = sampler.drain();
  ASSERT_EQ(lines.size(), 2u);
  const trace::JsonValue first = parse_line(lines[0]);
  const trace::JsonValue second = parse_line(lines[1]);

  EXPECT_EQ(first.find("t_s")->number, 0.0);
  EXPECT_EQ(second.find("t_s")->number, 2.0);
  EXPECT_EQ(first.find("serve.jobs_done")->number, 100);
  EXPECT_EQ(first.find("serve.jobs_done_per_s"), nullptr);
  EXPECT_EQ(second.find("serve.jobs_done")->number, 700);
  ASSERT_NE(second.find("serve.jobs_done_per_s"), nullptr);
  EXPECT_DOUBLE_EQ(second.find("serve.jobs_done_per_s")->number, 300.0);
  // Plain gauges never get a rate.
  EXPECT_EQ(first.find("serve.queue_depth_per_s"), nullptr);
  EXPECT_EQ(second.find("serve.queue_depth_per_s"), nullptr);
}

TEST(Sampler, BackwardsValueResetsTheRateBaseline) {
  MetricsRegistry registry;
  Gauge* jobs = registry.gauge("serve.jobs_done", {}, /*monotone=*/true);
  double now = 0.0;
  SamplerOptions options;
  options.collect_in_memory = true;
  options.include_process = false;
  options.clock = [&now] { return now; };
  Sampler sampler(&registry, options);

  jobs->set(1000);
  sampler.tick();
  now = 1.0;
  jobs->set(10);  // handle reused for a fresh run
  sampler.tick();
  now = 2.0;
  jobs->set(110);
  sampler.tick();

  const std::vector<std::string> lines = sampler.drain();
  ASSERT_EQ(lines.size(), 3u);
  // The backwards move reports no rate; the next sample differences against
  // the new baseline.
  EXPECT_EQ(parse_line(lines[1]).find("serve.jobs_done_per_s"), nullptr);
  const trace::JsonValue third = parse_line(lines[2]);
  ASSERT_NE(third.find("serve.jobs_done_per_s"), nullptr);
  EXPECT_DOUBLE_EQ(third.find("serve.jobs_done_per_s")->number, 100.0);
}

TEST(Sampler, WritesProcessLineAndLabelEchoToSink) {
  const std::string path = temp_path("rtlsat_sampler_sink.jsonl");
  std::filesystem::remove(path);
  {
    MetricsRegistry registry;
    registry.gauge("serve.queue_depth", {{"worker", "3"}})->set(9);
    trace::JsonlSink sink(path);
    ASSERT_TRUE(sink.ok());
    SamplerOptions options;
    options.sink = &sink;
    Sampler sampler(&registry, options);
    sampler.tick();
    EXPECT_EQ(sampler.samples(), 1);
    EXPECT_EQ(sink.lines_written(), 2);  // one metric source + process
  }
  const std::vector<std::string> lines = split_lines(read_file(path));
  ASSERT_EQ(lines.size(), 2u);
  bool saw_worker = false, saw_process = false;
  for (const std::string& raw : lines) {
    const trace::JsonValue line = parse_line(raw);
    ASSERT_NE(line.find("source"), nullptr);
    const std::string source = line.find("source")->string;
    if (source == "process") {
      saw_process = true;
      ASSERT_NE(line.find("rss_kb"), nullptr);
      ASSERT_NE(line.find("rss_peak_kb"), nullptr);
      EXPECT_GT(line.find("rss_kb")->number, 0);
      EXPECT_GE(line.find("rss_peak_kb")->number, line.find("rss_kb")->number);
    } else {
      saw_worker = true;
      EXPECT_EQ(source, "worker=3");
      ASSERT_NE(line.find("worker"), nullptr);
      EXPECT_EQ(line.find("worker")->string, "3");  // label echo
      EXPECT_EQ(line.find("serve.queue_depth")->number, 9);
    }
  }
  EXPECT_TRUE(saw_worker);
  EXPECT_TRUE(saw_process);
  std::filesystem::remove(path);
}

TEST(Sampler, StopTakesAFinalSampleAndIsIdempotent) {
  MetricsRegistry registry;
  registry.gauge("serve.queue_depth")->set(1);
  SamplerOptions options;
  options.collect_in_memory = true;
  options.include_process = false;
  options.interval_seconds = 3600;  // never fires on its own
  Sampler sampler(&registry, options);
  sampler.start();
  sampler.stop();  // interrupts the sleep, samples once, joins
  sampler.stop();
  EXPECT_EQ(sampler.samples(), 1);
  EXPECT_EQ(sampler.drain().size(), 1u);
}

// ---------------------------------------------------------------------------
// Solver integration

// Republishes each heartbeat's decision and conflict totals into registry
// gauges, the way a long-running host bridges a solver's stream into its
// scrape registry.
struct GaugeBridgeSink : trace::JsonlSink {
  Gauge* decisions = nullptr;
  Gauge* conflicts = nullptr;
  void write_line(const std::string& line) override {
    const trace::JsonValue doc = parse_line(line);
    if (const trace::JsonValue* v = doc.find("decisions"))
      decisions->set(static_cast<std::int64_t>(v->number));
    if (const trace::JsonValue* v = doc.find("conflicts"))
      conflicts->set(static_cast<std::int64_t>(v->number));
  }
};

// The saturating-accumulator circuit from tests/trace — small, but forces
// decisions and conflicts through the structural search.
core::SolveResult solve_quickstartish(trace::ProgressReporter* progress,
                                      Stats* stats) {
  ir::Circuit c("t");
  const ir::NetId acc = c.add_input("acc", 8);
  const ir::NetId in = c.add_input("in", 8);
  const ir::NetId cap = c.add_const(200, 8);
  const ir::NetId saturated = c.add_min(c.add_add(acc, in), cap);
  const ir::NetId goal = c.add_and(c.add_eq(saturated, cap),
                                   c.add_lt(acc, c.add_const(100, 8)));
  core::HdpllOptions options;
  options.structural_decisions = true;
  options.predicate_learning = true;
  options.progress = progress;
  core::HdpllSolver solver(c, options);
  solver.assume_bool(goal, true);
  const core::SolveResult result = solver.solve();
  *stats = solver.stats();
  return result;
}

std::map<std::string, std::int64_t> search_counters(const Stats& stats) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : stats.all())
    if (name.rfind("time.", 0) != 0) out[name] = value;
  return out;
}

// Zero-drift: gauges fed from every heartbeat AND a live background sampler
// must not move a single search counter (the sampler only reads; publication
// only stores).
TEST(ZeroDrift, GaugesAndLiveSamplerDoNotChangeTheSearch) {
  Stats baseline_stats;
  const core::SolveResult baseline =
      solve_quickstartish(nullptr, &baseline_stats);

  MetricsRegistry registry;
  GaugeBridgeSink bridge;
  bridge.decisions = registry.gauge("hdpll.decisions", {{"solver", "hdpll"}});
  bridge.conflicts = registry.gauge("hdpll.conflicts", {{"solver", "hdpll"}});
  trace::ProgressOptions popts;
  popts.banner = false;
  popts.interval_seconds = 0;  // a heartbeat on every conflict
  popts.sink = &bridge;
  trace::ProgressReporter progress(popts);
  SamplerOptions options;
  options.collect_in_memory = true;
  options.interval_seconds = 0.001;  // sample as hard as possible
  Sampler sampler(&registry, options);
  sampler.start();
  Stats sampled_stats;
  const core::SolveResult sampled =
      solve_quickstartish(&progress, &sampled_stats);
  sampler.stop();

  EXPECT_EQ(sampled.status, baseline.status);
  EXPECT_EQ(search_counters(baseline_stats), search_counters(sampled_stats));
  EXPECT_GE(sampler.samples(), 1);
  EXPECT_GE(progress.reports(), 1);

  // The published totals agree with the per-solver Stats view.
  EXPECT_EQ(bridge.decisions->value(), baseline_stats.get("hdpll.decisions"));
  EXPECT_EQ(bridge.conflicts->value(), baseline_stats.get("hdpll.conflicts"));
}

// ---------------------------------------------------------------------------
// Crash flush: buffered sinks survive an abort() (satellite: flush the
// ring-buffered Tracer and open telemetry sinks on abnormal exit).

TEST(CrashFlushDeathTest, AbortFlushesBufferedTracerSinks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string jsonl = temp_path("rtlsat_crash_trace.jsonl");
  const std::string chrome = temp_path("rtlsat_crash_trace.trace.json");
  std::filesystem::remove(jsonl);
  std::filesystem::remove(chrome);

  EXPECT_DEATH(
      {
        trace::TracerOptions options;
        options.jsonl_path = jsonl;
        options.chrome_path = chrome;
        trace::Tracer tracer(options);
        for (int i = 0; i < 50; ++i)
          tracer.record(trace::EventKind::kConflict, 1, i);
        // Events sit in the ring (capacity 16k, nothing flushed yet); the
        // SIGABRT handler must write them out before the process dies.
        std::abort();
      },
      "");

  const std::vector<std::string> lines = split_lines(read_file(jsonl));
  EXPECT_GE(lines.size(), 50u);
  bool saw_conflict = false;
  for (const std::string& raw : lines)
    if (raw.find("\"conflict\"") != std::string::npos) saw_conflict = true;
  EXPECT_TRUE(saw_conflict);

  // The Chrome trace got its closing footer on the signal path, so the file
  // parses as a complete JSON document.
  trace::JsonValue chrome_doc;
  std::string error;
  ASSERT_TRUE(trace::json_parse(read_file(chrome), &chrome_doc, &error))
      << error;
  std::filesystem::remove(jsonl);
  std::filesystem::remove(chrome);
}

}  // namespace
}  // namespace rtlsat::metrics

#include "metrics/metrics.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hdpll.h"
#include "metrics/memory.h"
#include "metrics/sampler.h"
#include "metrics/solver_gauges.h"
#include "portfolio/portfolio.h"
#include "sat/solver.h"
#include "trace/json.h"
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

TEST(Registry, CounterHandlesAreIdempotentAndSumShards) {
  MetricsRegistry registry;
  Counter* c = registry.counter("t.counter", {{"k", "v"}});
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(registry.counter("t.counter", {{"k", "v"}}), c);
  EXPECT_EQ(registry.size(), 1u);

  // Increments from many threads land in per-thread shards; value() must
  // still see every one of them.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([c] {
      for (int i = 0; i < kPerThread; ++i) c->add(1);
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c->value(), kThreads * kPerThread);
}

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

TEST(RegistryDeathTest, KindMismatchAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  MetricsRegistry registry;
  registry.counter("t.metric");
  EXPECT_DEATH((void)registry.gauge("t.metric"), "");
}

TEST(Registry, HistogramShardsMergeExactly) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.histogram("t.lbd");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([h, t] {
      for (int i = 0; i < kPerThread; ++i) h->observe((t + i) % 16);
    });
  for (auto& t : threads) t.join();
  const Histogram merged = h->snapshot();
  EXPECT_EQ(merged.count(), kThreads * kPerThread);
  EXPECT_LE(merged.max(), 15);
}

// ---------------------------------------------------------------------------
// Prometheus exposition

TEST(Exposition, NameSanitization) {
  EXPECT_EQ(exposition_name("solver.decisions"), "rtlsat_solver_decisions");
}

TEST(Exposition, RoundTripsThroughParser) {
  MetricsRegistry registry;
  registry.counter("t.imports", {{"worker", "0"}})->add(5);
  registry.counter("t.imports", {{"worker", "1"}})->add(9);
  registry.gauge("t.trail")->set(123);
  HistogramMetric* h = registry.histogram("t.lbd", {{"worker", "0"}});
  for (int i = 1; i <= 10; ++i) h->observe(i);

  std::ostringstream out;
  registry.expose(out);
  const std::string text = out.str();
  // One # TYPE line per family even with several label sets.
  EXPECT_EQ(text.find("# TYPE rtlsat_t_imports counter"),
            text.rfind("# TYPE rtlsat_t_imports counter"));

  std::map<std::string, double> parsed;
  std::string error;
  ASSERT_TRUE(parse_exposition(text, &parsed, &error)) << error;
  EXPECT_EQ(parsed.at("rtlsat_t_imports{worker=\"0\"}"), 5);
  EXPECT_EQ(parsed.at("rtlsat_t_imports{worker=\"1\"}"), 9);
  EXPECT_EQ(parsed.at("rtlsat_t_trail"), 123);
  EXPECT_EQ(parsed.at("rtlsat_t_lbd_count{worker=\"0\"}"), 10);
  EXPECT_EQ(parsed.at("rtlsat_t_lbd_sum{worker=\"0\"}"), 55);
  // Cumulative buckets: the largest le bound holds every observation.
  double largest = -1;
  for (const auto& [key, value] : parsed)
    if (key.rfind("rtlsat_t_lbd_bucket", 0) == 0 &&
        key.find("le=\"+Inf\"") != std::string::npos)
      largest = value;
  EXPECT_EQ(largest, 10);
}

// The acceptance-criterion round trip: the exposition and the sampler JSONL
// series are two views of one scrape, so every counter/gauge the sampler
// writes must appear in expose() with the same value.
TEST(Exposition, AgreesWithSamplerSeries) {
  MetricsRegistry registry;
  SolverGauges gauges =
      make_solver_gauges(&registry, {{"worker", "0"}, {"name", "cfg"}});
  gauges.decisions->set(100);
  gauges.trail->set(17);
  gauges.clause_db_bytes->set(4096);
  gauges.lbd->observe(3);
  gauges.lbd->observe(5);

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
    // Skip the line-framing fields, the derived rates, and the label echo —
    // only raw metric fields have exposition counterparts (histograms expand
    // into _count/_sum there, checked via lbd_count below).
    if (key == "t_s" || key == "source" || key == "name" || key == "worker")
      continue;
    if (key.size() >= 6 && key.rfind("_per_s") == key.size() - 6) continue;
    if (!value.is_number()) continue;
    if (key.find(".lbd_") != std::string::npos) continue;
    EXPECT_EQ(exposed.at(exposition_name(key) + label_suffix), value.number)
        << key;
    ++checked;
  }
  EXPECT_GE(checked, 10);  // the full SolverGauges family was cross-checked
  EXPECT_EQ(exposed.at("rtlsat_solver_lbd_count" + label_suffix), 2);
  const trace::JsonValue* lbd_count = line.find("solver.lbd_count");
  ASSERT_NE(lbd_count, nullptr);
  EXPECT_EQ(lbd_count->number, 2);
}

// ---------------------------------------------------------------------------
// Sampler

TEST(Sampler, FakeClockRatesAreExactAndFirstSampleHasNone) {
  MetricsRegistry registry;
  Gauge* decisions = registry.gauge("solver.decisions", {}, /*monotone=*/true);
  Gauge* trail = registry.gauge("solver.trail");

  double now = 0.0;
  SamplerOptions options;
  options.collect_in_memory = true;
  options.include_process = false;
  options.clock = [&now] { return now; };
  Sampler sampler(&registry, options);

  decisions->set(100);
  trail->set(50);
  sampler.tick();  // t=0: establishes the baseline, no rate yet

  now = 2.0;
  decisions->set(700);
  trail->set(60);
  sampler.tick();  // t=2: rate = (700-100)/2

  const std::vector<std::string> lines = sampler.drain();
  ASSERT_EQ(lines.size(), 2u);
  const trace::JsonValue first = parse_line(lines[0]);
  const trace::JsonValue second = parse_line(lines[1]);

  EXPECT_EQ(first.find("t_s")->number, 0.0);
  EXPECT_EQ(second.find("t_s")->number, 2.0);
  EXPECT_EQ(first.find("solver.decisions")->number, 100);
  EXPECT_EQ(first.find("solver.decisions_per_s"), nullptr);
  EXPECT_EQ(second.find("solver.decisions")->number, 700);
  ASSERT_NE(second.find("solver.decisions_per_s"), nullptr);
  EXPECT_DOUBLE_EQ(second.find("solver.decisions_per_s")->number, 300.0);
  // Plain gauges never get a rate.
  EXPECT_EQ(first.find("solver.trail_per_s"), nullptr);
  EXPECT_EQ(second.find("solver.trail_per_s"), nullptr);
}

TEST(Sampler, BackwardsValueResetsTheRateBaseline) {
  MetricsRegistry registry;
  Gauge* decisions = registry.gauge("solver.decisions", {}, /*monotone=*/true);
  double now = 0.0;
  SamplerOptions options;
  options.collect_in_memory = true;
  options.include_process = false;
  options.clock = [&now] { return now; };
  Sampler sampler(&registry, options);

  decisions->set(1000);
  sampler.tick();
  now = 1.0;
  decisions->set(10);  // handle reused for a fresh solve
  sampler.tick();
  now = 2.0;
  decisions->set(110);
  sampler.tick();

  const std::vector<std::string> lines = sampler.drain();
  ASSERT_EQ(lines.size(), 3u);
  // The backwards move reports no rate; the next sample differences against
  // the new baseline.
  EXPECT_EQ(parse_line(lines[1]).find("solver.decisions_per_s"), nullptr);
  const trace::JsonValue third = parse_line(lines[2]);
  ASSERT_NE(third.find("solver.decisions_per_s"), nullptr);
  EXPECT_DOUBLE_EQ(third.find("solver.decisions_per_s")->number, 100.0);
}

TEST(Sampler, WritesProcessLineAndLabelEchoToSink) {
  const std::string path = temp_path("rtlsat_sampler_sink.jsonl");
  std::filesystem::remove(path);
  {
    MetricsRegistry registry;
    registry.gauge("solver.trail", {{"worker", "3"}})->set(9);
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
      EXPECT_EQ(line.find("solver.trail")->number, 9);
    }
  }
  EXPECT_TRUE(saw_worker);
  EXPECT_TRUE(saw_process);
  std::filesystem::remove(path);
}

TEST(Sampler, StopTakesAFinalSampleAndIsIdempotent) {
  MetricsRegistry registry;
  registry.gauge("solver.trail")->set(1);
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

// The saturating-accumulator circuit from tests/trace — small, but forces
// decisions and conflicts through the structural search.
core::SolveResult solve_quickstartish(metrics::SolverGauges* gauges,
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
  options.gauges = gauges;
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

// Zero-drift: attaching gauges AND a live background sampler must not move a
// single search counter (the sampler only reads; publication only stores).
TEST(ZeroDrift, GaugesAndLiveSamplerDoNotChangeTheSearch) {
  Stats baseline_stats;
  const core::SolveResult baseline =
      solve_quickstartish(nullptr, &baseline_stats);

  MetricsRegistry registry;
  SolverGauges gauges = make_solver_gauges(&registry, {{"solver", "hdpll"}});
  SamplerOptions options;
  options.collect_in_memory = true;
  options.interval_seconds = 0.001;  // sample as hard as possible
  Sampler sampler(&registry, options);
  sampler.start();
  Stats sampled_stats;
  const core::SolveResult sampled =
      solve_quickstartish(&gauges, &sampled_stats);
  sampler.stop();

  EXPECT_EQ(sampled.status, baseline.status);
  EXPECT_EQ(search_counters(baseline_stats), search_counters(sampled_stats));
  EXPECT_GE(sampler.samples(), 1);

  // The published totals agree with the per-worker Stats view.
  EXPECT_EQ(gauges.decisions->value(), baseline_stats.get("hdpll.decisions"));
  EXPECT_EQ(gauges.conflicts->value(), baseline_stats.get("hdpll.conflicts"));
  EXPECT_EQ(gauges.phase->value(),
            static_cast<std::int64_t>(SolverPhase::kIdle));  // solve finished
}

TEST(SatSolver, PublishesGaugesAndMemoryAccounting) {
  MetricsRegistry registry;
  SolverGauges gauges = make_solver_gauges(&registry, {{"solver", "sat"}});
  sat::SolverOptions options;
  options.gauges = &gauges;
  sat::Solver solver(options);
  // Pigeonhole(4): UNSAT, forces real conflict analysis and learned clauses.
  const int holes = 4, pigeons = 5;
  std::vector<std::vector<sat::Var>> p(pigeons, std::vector<sat::Var>(holes));
  for (auto& row : p)
    for (auto& v : row) v = solver.new_var();
  for (auto& row : p) {
    std::vector<sat::Lit> clause;
    for (auto v : row) clause.push_back(sat::Lit(v, true));
    solver.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int i = 0; i < pigeons; ++i)
      for (int j = i + 1; j < pigeons; ++j)
        solver.add_clause({sat::Lit(p[i][h], false), sat::Lit(p[j][h], false)});

  EXPECT_GT(solver.memory_bytes(), 0);
  ASSERT_EQ(solver.solve(), sat::Result::kUnsat);
  EXPECT_GT(gauges.decisions->value(), 0);
  EXPECT_GT(gauges.conflicts->value(), 0);
  EXPECT_GT(gauges.propagations->value(), 0);
  EXPECT_GT(gauges.clause_db_bytes->value(), 0);
  EXPECT_GT(gauges.implication_graph_bytes->value(), 0);
  // Every learned clause contributed an LBD observation.
  EXPECT_GT(gauges.lbd->snapshot().count(), 0);
}

// ---------------------------------------------------------------------------
// Portfolio: per-worker series and heartbeats

TEST(Portfolio, SamplesAndHeartbeatsCarryWorkerIds) {
  ir::Circuit c("t");
  const ir::NetId acc = c.add_input("acc", 8);
  const ir::NetId in = c.add_input("in", 8);
  const ir::NetId cap = c.add_const(200, 8);
  const ir::NetId saturated = c.add_min(c.add_add(acc, in), cap);
  const ir::NetId goal = c.add_and(c.add_eq(saturated, cap),
                                   c.add_lt(acc, c.add_const(100, 8)));

  const std::string progress_path = temp_path("rtlsat_portfolio_progress.jsonl");
  std::filesystem::remove(progress_path);
  MetricsRegistry registry;
  std::set<std::string> progress_workers;
  {
    trace::JsonlSink progress_sink(progress_path);
    ASSERT_TRUE(progress_sink.ok());
    portfolio::PortfolioOptions options;
    options.jobs = 2;
    options.deterministic = true;
    options.metrics = &registry;
    options.progress_sink = &progress_sink;
    options.progress_interval_seconds = 0.0;  // heartbeat on every report
    portfolio::Portfolio race(c, goal, true, options);
    (void)race.solve();
  }

  // Every worker registered its own labeled gauge family.
  std::set<std::string> sources;
  bool saw_decisions = false;
  for (const MetricsRegistry::Sample& sample : registry.scrape()) {
    sources.insert(sample.source);
    if (sample.name == "solver.decisions" && sample.value > 0)
      saw_decisions = true;
  }
  for (int w = 0; w < 2; ++w) {
    bool found = false;
    const std::string needle = "worker=" + std::to_string(w);
    for (const std::string& source : sources)
      if (source.find(needle) != std::string::npos) found = true;
    EXPECT_TRUE(found) << needle;
  }
  EXPECT_TRUE(saw_decisions);

  // A sampler scraping that registry emits one line per worker source.
  SamplerOptions soptions;
  soptions.collect_in_memory = true;
  soptions.include_process = false;
  Sampler sampler(&registry, soptions);
  sampler.tick();
  std::set<std::string> sampled_workers;
  for (const std::string& raw : sampler.drain()) {
    const trace::JsonValue line = parse_line(raw);
    if (line.find("worker") != nullptr)
      sampled_workers.insert(line.find("worker")->string);
  }
  EXPECT_EQ(sampled_workers, (std::set<std::string>{"0", "1"}));

  // Heartbeat lines are tagged "<index>:<config name>".
  const std::vector<std::string> lines = split_lines(read_file(progress_path));
  ASSERT_GE(lines.size(), 2u);  // at least the finish() report per worker
  for (const std::string& raw : lines) {
    const trace::JsonValue line = parse_line(raw);
    ASSERT_NE(line.find("worker"), nullptr) << raw;
    const std::string tag = line.find("worker")->string;
    ASSERT_GE(tag.size(), 2u);
    progress_workers.insert(tag.substr(0, tag.find(':')));
  }
  EXPECT_EQ(progress_workers, (std::set<std::string>{"0", "1"}));
  std::filesystem::remove(progress_path);
}

// ---------------------------------------------------------------------------
// Process memory

TEST(Memory, ReadProcMemoryReportsResidentSet) {
  const ProcMemory mem = read_proc_memory();
#ifdef __linux__
  ASSERT_TRUE(mem.ok);
  EXPECT_GT(mem.rss_kb, 0);
  EXPECT_GE(mem.rss_peak_kb, mem.rss_kb);
#else
  EXPECT_FALSE(mem.ok);
#endif
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

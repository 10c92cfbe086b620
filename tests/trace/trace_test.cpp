#include "trace/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bmc/unroll.h"
#include "core/hdpll.h"
#include "itc99/itc99.h"
#include "portfolio/portfolio.h"
#include "sat/solver.h"
#include "trace/json.h"
#include "trace/memory.h"
#include "trace/progress.h"
#include "trace/sink.h"

namespace rtlsat::trace {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<JsonValue> parse_lines(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::vector<JsonValue> out;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValue doc;
    std::string error;
    EXPECT_TRUE(json_parse(line, &doc, &error)) << error << ": " << line;
    EXPECT_TRUE(doc.is_object()) << line;
    out.push_back(std::move(doc));
  }
  return out;
}

// Keeps every heartbeat line in memory instead of writing a file.
struct CollectSink : JsonlSink {
  std::mutex mu;
  std::vector<std::string> lines;
  void write_line(const std::string& line) override {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  }
  JsonValue last() {
    std::lock_guard<std::mutex> lock(mu);
    JsonValue doc;
    std::string error;
    EXPECT_FALSE(lines.empty());
    if (!lines.empty()) {
      EXPECT_TRUE(json_parse(lines.back(), &doc, &error)) << error;
    }
    return doc;
  }
};

double field(const JsonValue& doc, const char* name) {
  const JsonValue* v = doc.find(name);
  EXPECT_NE(v, nullptr) << name;
  return v != nullptr ? v->number : -1;
}

// ---------------------------------------------------------------------------
// Binary event encoding

TEST(Event, EncodeDecodeRoundTrip) {
  const Event original{.t_us = 123456789,
                       .a = -42,
                       .b = std::int64_t{1} << 40,
                       .level = 17,
                       .kind = EventKind::kLearnedRelation};
  std::vector<std::uint8_t> bytes;
  encode_event(original, bytes);
  ASSERT_EQ(bytes.size(), kEncodedEventSize);

  Event decoded;
  ASSERT_TRUE(decode_event(bytes.data(), bytes.size(), decoded));
  EXPECT_EQ(decoded, original);
}

TEST(Event, DecodeRejectsTruncation) {
  const Event original{.t_us = 1, .a = 2, .b = 3, .level = 4,
                       .kind = EventKind::kRestart};
  std::vector<std::uint8_t> bytes;
  encode_event(original, bytes);
  Event decoded;
  for (std::size_t size = 0; size < bytes.size(); ++size)
    EXPECT_FALSE(decode_event(bytes.data(), size, decoded)) << size;
}

TEST(Event, DecodeRejectsInvalidKind) {
  Event original{.kind = EventKind::kDecision};
  std::vector<std::uint8_t> bytes;
  encode_event(original, bytes);
  bytes.back() = static_cast<std::uint8_t>(EventKind::kMaxKind);
  Event decoded;
  EXPECT_FALSE(decode_event(bytes.data(), bytes.size(), decoded));
  bytes.back() = 0xff;
  EXPECT_FALSE(decode_event(bytes.data(), bytes.size(), decoded));
}

TEST(Event, KindNamesAreStableAndDistinct) {
  std::vector<std::string> names;
  for (int k = 0; k < static_cast<int>(EventKind::kMaxKind); ++k)
    names.push_back(kind_name(static_cast<EventKind>(k)));
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j)
      EXPECT_NE(names[i], names[j]);
  }
  EXPECT_EQ(std::string(kind_name(EventKind::kDecision)), "decision");
  EXPECT_EQ(std::string(kind_name(EventKind::kPhaseBegin)), "phase_begin");
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Tracer, DefaultConstructedIsDisabled) {
  Tracer tracer;
  EXPECT_FALSE(tracer.enabled());
  EXPECT_FALSE(tracer.verbose());
  tracer.record(EventKind::kConflict, 3, 1, 2);
  EXPECT_EQ(tracer.events_recorded(), 0);
  EXPECT_TRUE(tracer.drain().empty());
}

TEST(Tracer, InMemoryCollection) {
  TracerOptions options;
  options.collect_in_memory = true;
  Tracer tracer(options);
  ASSERT_TRUE(tracer.enabled());
  tracer.record(EventKind::kDecision, 1, 10, 1);
  tracer.record(EventKind::kConflict, 2, 5);
  EXPECT_EQ(tracer.events_recorded(), 2);

  const std::vector<Event> events = tracer.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kDecision);
  EXPECT_EQ(events[0].a, 10);
  EXPECT_EQ(events[0].level, 1u);
  EXPECT_EQ(events[1].kind, EventKind::kConflict);
  EXPECT_LE(events[0].t_us, events[1].t_us);
  EXPECT_TRUE(tracer.drain().empty());  // drain moves everything out
}

TEST(Tracer, SmallRingFlushesWithoutLosingEvents) {
  TracerOptions options;
  options.collect_in_memory = true;
  options.ring_capacity = 4;
  Tracer tracer(options);
  for (int i = 0; i < 100; ++i)
    tracer.record(EventKind::kNarrowing, 0, i);
  EXPECT_EQ(tracer.events_recorded(), 100);
  const std::vector<Event> events = tracer.drain();
  ASSERT_EQ(events.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(events[i].a, i);  // order kept
}

TEST(Tracer, InternIdsAreStable) {
  TracerOptions options;
  options.collect_in_memory = true;
  Tracer tracer(options);
  const std::int64_t search = tracer.intern("search");
  const std::int64_t parse = tracer.intern("parse");
  EXPECT_NE(search, parse);
  EXPECT_EQ(tracer.intern("search"), search);
  EXPECT_EQ(tracer.phase_name(search), "search");
  EXPECT_EQ(tracer.phase_name(parse), "parse");
}

TEST(Tracer, ScopedPhaseEmitsBalancedEventsAndAccumulatesTime) {
  TracerOptions options;
  options.collect_in_memory = true;
  Tracer tracer(options);
  Stats stats;
  {
    ScopedPhase phase(&tracer, &stats, "search");
  }
  const std::vector<Event> events = tracer.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kPhaseBegin);
  EXPECT_EQ(events[1].kind, EventKind::kPhaseEnd);
  EXPECT_EQ(events[0].a, events[1].a);  // same interned name id
  EXPECT_EQ(tracer.phase_name(events[0].a), "search");
  // The phase-profiling convention: time lands in "time.<name>_us".
  EXPECT_EQ(stats.all().count("time.search_us"), 1u);
  EXPECT_GE(stats.get("time.search_us"), 0);
}

TEST(Tracer, ScopedPhaseToleratesNullPointers) {
  ScopedPhase both_null(nullptr, nullptr, "x");
  Stats stats;
  ScopedPhase no_tracer(nullptr, &stats, "y");
  Tracer disabled;
  ScopedPhase disabled_tracer(&disabled, nullptr, "z");
}

TEST(Tracer, JsonlSinkParsesBackLineByLine) {
  const std::string path = temp_path("rtlsat_trace_test.jsonl");
  {
    TracerOptions options;
    options.jsonl_path = path;
    Tracer tracer(options);
    tracer.record(EventKind::kDecision, 1, 7, 1);
    tracer.record(EventKind::kLearnedClause, 2, 5, 1);
    tracer.begin_phase("search");
    tracer.end_phase("search");
    tracer.close();
  }
  std::istringstream lines(read_file(path));
  std::string line;
  std::vector<JsonValue> parsed;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_parse(line, &doc, &error)) << error;
    ASSERT_TRUE(doc.is_object());
    ASSERT_NE(doc.find("t_us"), nullptr);
    ASSERT_NE(doc.find("kind"), nullptr);
    parsed.push_back(doc);
  }
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed[0].find("kind")->string, "decision");
  EXPECT_EQ(parsed[0].find("a")->number, 7);
  EXPECT_EQ(parsed[1].find("kind")->string, "learned_clause");
  EXPECT_EQ(parsed[2].find("kind")->string, "phase_begin");
  // Phase events carry the phase name, not just the interned id.
  ASSERT_NE(parsed[2].find("name"), nullptr);
  EXPECT_EQ(parsed[2].find("name")->string, "search");
  std::filesystem::remove(path);
}

TEST(Tracer, ChromeSinkIsValidTraceEventJson) {
  const std::string path = temp_path("rtlsat_trace_test.trace.json");
  {
    TracerOptions options;
    options.chrome_path = path;
    Tracer tracer(options);
    tracer.begin_phase("search");
    tracer.record(EventKind::kConflict, 4, 3);
    tracer.end_phase("search");
    tracer.close();
  }
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(read_file(path), &doc, &error)) << error;
  ASSERT_TRUE(doc.is_object());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 3u);
  // Phase brackets become duration begin/end events; everything else is an
  // instant or counter event. All carry ph/ts/name.
  std::vector<std::string> phases;
  for (const JsonValue& ev : events->array) {
    ASSERT_TRUE(ev.is_object());
    ASSERT_NE(ev.find("ph"), nullptr);
    ASSERT_NE(ev.find("ts"), nullptr);
    ASSERT_NE(ev.find("name"), nullptr);
    phases.push_back(ev.find("ph")->string);
  }
  EXPECT_EQ(phases.front(), "B");
  EXPECT_EQ(phases.back(), "E");
  std::filesystem::remove(path);
}

TEST(Tracer, CloseIsIdempotentAndDisables) {
  TracerOptions options;
  options.collect_in_memory = true;
  Tracer tracer(options);
  tracer.record(EventKind::kRestart, 0, 1);
  tracer.close();
  EXPECT_FALSE(tracer.enabled());
  tracer.record(EventKind::kRestart, 0, 2);  // dropped: closed
  tracer.close();                            // idempotent
  EXPECT_EQ(tracer.events_recorded(), 1);
}

// ---------------------------------------------------------------------------
// JSON writer / parser

TEST(Json, WriterEscapesAndNests) {
  JsonWriter w;
  w.begin_object();
  w.key("s").value("a\"b\\c\n\t");
  w.key("n").value(std::int64_t{-7});
  w.key("d").value(1.5);
  w.key("t").value(true);
  w.key("z").null();
  w.key("arr").begin_array().value(1).value(2).end_array();
  w.end_object();
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(json_parse(w.str(), &doc, &error)) << error << "\n" << w.str();
  EXPECT_EQ(doc.find("s")->string, "a\"b\\c\n\t");
  EXPECT_EQ(doc.find("n")->number, -7);
  EXPECT_EQ(doc.find("d")->number, 1.5);
  EXPECT_TRUE(doc.find("t")->boolean);
  EXPECT_EQ(doc.find("z")->kind, JsonValue::Kind::kNull);
  ASSERT_EQ(doc.find("arr")->array.size(), 2u);
  EXPECT_EQ(doc.find("arr")->array[1].number, 2);
}

TEST(Json, ParserAcceptsScalarsAndRejectsGarbage) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(json_parse("  42.5e1 ", &doc, &error));
  EXPECT_EQ(doc.number, 425);
  EXPECT_TRUE(json_parse("\"a\\u0041b\"", &doc, &error));
  EXPECT_TRUE(json_parse("[1, [2, {\"k\": null}]]", &doc, &error));
  EXPECT_FALSE(json_parse("", &doc, &error));
  EXPECT_FALSE(json_parse("{", &doc, &error));
  EXPECT_FALSE(json_parse("[1,]", &doc, &error));
  EXPECT_FALSE(json_parse("{\"a\":1} trailing", &doc, &error));
  EXPECT_FALSE(json_parse("nul", &doc, &error));
}

// ---------------------------------------------------------------------------
// Progress reporter (fake clock pins the cadence)

TEST(Progress, RateLimitsToInterval) {
  double now = 0.0;
  ProgressOptions options;
  options.banner = false;
  options.interval_seconds = 1.0;
  options.clock = [&now] { return now; };
  ProgressReporter reporter(options);

  ProgressSnapshot snapshot;
  for (int conflict = 0; conflict < 1000; ++conflict) {
    snapshot.conflicts = conflict;
    now = 0.01 * conflict;  // 1000 conflicts spread over 10 fake seconds
    if (reporter.due()) reporter.report(snapshot);
  }
  // One report per elapsed interval, not one per conflict.
  EXPECT_GE(reporter.reports(), 8);
  EXPECT_LE(reporter.reports(), 11);
}

TEST(Progress, FinishAlwaysReports) {
  double now = 0.0;
  ProgressOptions options;
  options.banner = false;
  options.interval_seconds = 1e9;  // due() never fires on its own
  options.clock = [&now] { return now; };
  ProgressReporter reporter(options);
  ProgressSnapshot snapshot;
  snapshot.conflicts = 5;
  if (reporter.due()) reporter.report(snapshot);
  EXPECT_EQ(reporter.reports(), 0);
  reporter.finish(snapshot);
  EXPECT_EQ(reporter.reports(), 1);
}

TEST(Progress, JsonlHeartbeatCarriesCounters) {
  const std::string path = temp_path("rtlsat_progress_test.jsonl");
  double now = 0.0;
  {
    JsonlSink sink(path);
    ASSERT_TRUE(sink.ok());
    ProgressOptions options;
    options.banner = false;
    options.sink = &sink;
    options.interval_seconds = 1.0;
    options.clock = [&now] { return now; };
    ProgressReporter reporter(options);
    ProgressSnapshot snapshot;
    snapshot.conflicts = 3;
    snapshot.decisions = 9;
    snapshot.propagations = 27;
    snapshot.clauses_imported = 4;
    snapshot.clause_db_bytes = 4096;
    now = 2.0;
    if (reporter.due()) reporter.report(snapshot);
    reporter.finish(snapshot);
  }
  const std::vector<JsonValue> heartbeats = parse_lines(read_file(path));
  EXPECT_EQ(heartbeats.size(), 2u);
  for (const JsonValue& doc : heartbeats) {
    EXPECT_EQ(field(doc, "conflicts"), 3);
    EXPECT_EQ(field(doc, "decisions"), 9);
    EXPECT_EQ(field(doc, "propagations"), 27);
    EXPECT_EQ(field(doc, "clauses_exported"), 0);
    EXPECT_EQ(field(doc, "clauses_imported"), 4);
    EXPECT_EQ(field(doc, "clause_db_bytes"), 4096);
    EXPECT_EQ(field(doc, "implication_graph_bytes"), 0);
    EXPECT_EQ(field(doc, "interval_store_bytes"), 0);
#ifdef __linux__
    EXPECT_GT(field(doc, "rss_kb"), 0);
#endif
  }
  std::filesystem::remove(path);
}

TEST(Progress, DueReadsTheClockOncePerCall) {
  // The solvers call due() once per conflict and build a snapshot only
  // when it returns true, so a conflict costs exactly one clock read.
  int reads = 0;
  double now = 0.0;
  ProgressOptions options;
  options.banner = false;
  options.interval_seconds = 1.0;
  options.clock = [&] {
    ++reads;
    return now;
  };
  ProgressReporter reporter(options);
  reads = 0;  // the constructor's epoch read
  EXPECT_FALSE(reporter.due());
  now = 1.5;
  EXPECT_TRUE(reporter.due());
  reporter.report(ProgressSnapshot{});
  EXPECT_FALSE(reporter.due());
  EXPECT_EQ(reads, 3);
  EXPECT_EQ(reporter.reports(), 1);
}

TEST(Progress, HeartbeatsCarrySchemaVersionAndSequence) {
  // Every heartbeat line carries v = kHeartbeatSchemaVersion and a
  // 0-based seq that advances by exactly 1 per line, tagged with the
  // worker label when one is set — the contract the serve protocol and
  // bench_json_validate's jsonl mode both rely on.
  CollectSink sink;
  double now = 0.0;
  ProgressOptions options;
  options.banner = false;
  options.interval_seconds = 1.0;
  options.clock = [&now] { return now; };
  options.sink = &sink;
  options.label = "w3";
  ProgressReporter reporter(options);
  ProgressSnapshot snapshot;
  for (int i = 1; i <= 3; ++i) {
    snapshot.conflicts = i;
    now = static_cast<double>(i) * 1.5;
    if (reporter.due()) reporter.report(snapshot);
  }
  reporter.finish(snapshot);
  ASSERT_EQ(sink.lines.size(), 4u);
  for (std::size_t i = 0; i < sink.lines.size(); ++i) {
    JsonValue doc;
    std::string error;
    ASSERT_TRUE(json_parse(sink.lines[i], &doc, &error)) << error;
    ASSERT_NE(doc.find("v"), nullptr);
    EXPECT_EQ(doc.find("v")->number, kHeartbeatSchemaVersion);
    ASSERT_NE(doc.find("seq"), nullptr);
    EXPECT_EQ(doc.find("seq")->number, static_cast<double>(i));
    ASSERT_NE(doc.find("worker"), nullptr);
    EXPECT_EQ(doc.find("worker")->string, "w3");
  }
}

TEST(Progress, BannerPrintsHeaderOnceAndRows) {
  std::FILE* stream = std::tmpfile();
  ASSERT_NE(stream, nullptr);
  double now = 0.0;
  ProgressOptions options;
  options.stream = stream;
  options.interval_seconds = 1.0;
  options.clock = [&now] { return now; };
  ProgressReporter reporter(options);
  ProgressSnapshot snapshot;
  for (int i = 1; i <= 3; ++i) {
    snapshot.conflicts = i * 100;
    now = static_cast<double>(i) * 1.5;
    if (reporter.due()) reporter.report(snapshot);
  }
  std::fflush(stream);
  std::rewind(stream);
  std::string text;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, stream)) > 0)
    text.append(buffer, n);
  std::fclose(stream);
  EXPECT_NE(text.find("conflicts"), std::string::npos);  // header
  EXPECT_NE(text.find("300"), std::string::npos);        // last row
  // The header appears once even though three rows were printed.
  EXPECT_EQ(text.find("conflicts"), text.rfind("conflicts"));
}

TEST(Progress, EmitsCounterEventsIntoTracer) {
  TracerOptions topts;
  topts.collect_in_memory = true;
  Tracer tracer(topts);
  ProgressOptions options;
  options.banner = false;
  options.interval_seconds = 0.0;
  options.tracer = &tracer;
  ProgressReporter reporter(options);
  ProgressSnapshot snapshot;
  snapshot.conflicts = 12;
  snapshot.decisions = 34;
  reporter.finish(snapshot);
  const std::vector<Event> events = tracer.drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kProgress);
  EXPECT_EQ(events[0].a, 12);
  EXPECT_EQ(events[0].b, 34);
}

// ---------------------------------------------------------------------------
// Zero-drift regression: tracing must observe the search, not perturb it.

core::SolveResult solve_quickstartish(trace::Tracer* tracer, Stats* stats,
                                      bool predicate_learning = true,
                                      ProgressReporter* progress = nullptr) {
  ir::Circuit c("t");
  const ir::NetId acc = c.add_input("acc", 8);
  const ir::NetId in = c.add_input("in", 8);
  const ir::NetId cap = c.add_const(200, 8);
  const ir::NetId saturated = c.add_min(c.add_add(acc, in), cap);
  const ir::NetId goal =
      c.add_and(c.add_eq(saturated, cap),
                c.add_lt(acc, c.add_const(100, 8)));
  core::HdpllOptions options;
  options.structural_decisions = true;
  options.predicate_learning = predicate_learning;
  options.tracer = tracer;
  options.progress = progress;
  core::HdpllSolver solver(c, options);
  solver.assume_bool(goal, true);
  const core::SolveResult result = solver.solve();
  *stats = solver.stats();
  return result;
}

// Strips the wall-clock-dependent "time.*" phase counters, which legitimately
// differ run to run.
std::map<std::string, std::int64_t> search_counters(const Stats& stats) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : stats.all())
    if (name.rfind("time.", 0) != 0) out[name] = value;
  return out;
}

TEST(ZeroDrift, EnabledTracerDoesNotChangeTheSearch) {
  Stats default_stats;
  const core::SolveResult with_default =
      solve_quickstartish(nullptr, &default_stats);

  Tracer disabled;
  Stats disabled_stats;
  const core::SolveResult with_disabled =
      solve_quickstartish(&disabled, &disabled_stats);
  EXPECT_EQ(disabled.events_recorded(), 0);

  TracerOptions topts;
  topts.collect_in_memory = true;
  topts.verbose = true;
  Tracer enabled(topts);
  Stats enabled_stats;
  const core::SolveResult with_enabled =
      solve_quickstartish(&enabled, &enabled_stats);
  EXPECT_GT(enabled.events_recorded(), 0);

  EXPECT_EQ(with_default.status, with_disabled.status);
  EXPECT_EQ(with_default.status, with_enabled.status);
  // Identical decision/conflict/propagation trajectories: the tracer is a
  // pure observer.
  EXPECT_EQ(search_counters(default_stats), search_counters(disabled_stats));
  EXPECT_EQ(search_counters(default_stats), search_counters(enabled_stats));
}

// A reporter due on every conflict, writing every heartbeat through a sink,
// must not move a single search counter.
TEST(ZeroDrift, ProgressReporterDoesNotChangeTheSearch) {
  Stats baseline_stats;
  const core::SolveResult baseline =
      solve_quickstartish(nullptr, &baseline_stats);

  CollectSink sink;
  ProgressOptions popts;
  popts.banner = false;
  popts.interval_seconds = 0;
  popts.sink = &sink;
  ProgressReporter progress(popts);
  Stats reported_stats;
  const core::SolveResult reported =
      solve_quickstartish(nullptr, &reported_stats, true, &progress);

  EXPECT_EQ(reported.status, baseline.status);
  EXPECT_GE(progress.reports(), 1);  // the final finish() report
  EXPECT_EQ(static_cast<std::int64_t>(sink.lines.size()), progress.reports());
  EXPECT_EQ(search_counters(baseline_stats), search_counters(reported_stats));
  // The final heartbeat's totals agree with the per-solver Stats view.
  const JsonValue last = sink.last();
  EXPECT_EQ(field(last, "decisions"), baseline_stats.get("hdpll.decisions"));
  EXPECT_EQ(field(last, "conflicts"), baseline_stats.get("hdpll.conflicts"));
}

// ---------------------------------------------------------------------------
// Heartbeat memory accounting: the final line carries the owning classes'
// byte counters exactly.

TEST(Heartbeat, HdpllBytesMatchItsAccounting) {
  const bmc::BmcInstance instance = bmc::unroll(itc99::build("b13"), "1", 30);
  CollectSink sink;
  ProgressOptions popts;
  popts.banner = false;
  popts.sink = &sink;
  ProgressReporter progress(popts);
  core::HdpllOptions options;
  options.structural_decisions = true;
  options.predicate_learning = true;
  options.progress = &progress;
  core::HdpllSolver solver(instance.circuit, options);
  solver.assume_bool(instance.goal, true);
  (void)solver.solve();

  const JsonValue last = sink.last();
  EXPECT_EQ(field(last, "v"), kHeartbeatSchemaVersion);
  EXPECT_EQ(field(last, "clause_db_bytes"), solver.clauses().memory_bytes());
  EXPECT_GT(solver.clauses().memory_bytes(), 0);
  EXPECT_EQ(field(last, "implication_graph_bytes"),
            solver.engine().implication_graph_bytes());
  EXPECT_EQ(field(last, "interval_store_bytes"),
            solver.engine().interval_store_bytes());
  EXPECT_GT(solver.engine().interval_store_bytes(), 0);
  EXPECT_EQ(field(last, "clauses_exported"), 0);  // no portfolio
}

TEST(Heartbeat, CdclBytesMatchItsAccounting) {
  CollectSink sink;
  ProgressOptions popts;
  popts.banner = false;
  popts.sink = &sink;
  ProgressReporter progress(popts);
  sat::SolverOptions options;
  options.progress = &progress;
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
  ASSERT_EQ(solver.solve(), sat::Result::kUnsat);

  const JsonValue last = sink.last();
  EXPECT_GT(field(last, "decisions"), 0);
  EXPECT_GT(field(last, "conflicts"), 0);
  EXPECT_GT(field(last, "propagations"), 0);
  EXPECT_EQ(field(last, "clause_db_bytes"), solver.memory_bytes());
  EXPECT_GT(solver.memory_bytes(), 0);
  EXPECT_GT(field(last, "implication_graph_bytes"), 0);
  EXPECT_EQ(field(last, "interval_store_bytes"), 0);  // no interval store
}

// Portfolio: every worker's heartbeats carry its "<index>:<config>" tag and
// the v2 fields, in one shared file.
TEST(Portfolio, SamplesAndHeartbeatsCarryWorkerIds) {
  ir::Circuit c("t");
  const ir::NetId acc = c.add_input("acc", 8);
  const ir::NetId in = c.add_input("in", 8);
  const ir::NetId cap = c.add_const(200, 8);
  const ir::NetId saturated = c.add_min(c.add_add(acc, in), cap);
  const ir::NetId goal = c.add_and(c.add_eq(saturated, cap),
                                   c.add_lt(acc, c.add_const(100, 8)));

  const std::string path = temp_path("rtlsat_portfolio_progress.jsonl");
  std::filesystem::remove(path);
  {
    JsonlSink sink(path);
    ASSERT_TRUE(sink.ok());
    portfolio::PortfolioOptions options;
    options.jobs = 2;
    options.deterministic = true;
    options.progress_sink = &sink;
    options.progress_interval_seconds = 0.0;  // heartbeat on every conflict
    portfolio::Portfolio race(c, goal, true, options);
    (void)race.solve();
  }

  const std::vector<JsonValue> lines = parse_lines(read_file(path));
  ASSERT_GE(lines.size(), 2u);  // at least the finish() report per worker
  std::set<std::string> workers;
  for (const JsonValue& line : lines) {
    EXPECT_EQ(field(line, "v"), kHeartbeatSchemaVersion);
    EXPECT_GE(field(line, "clause_db_bytes"), 0);
    EXPECT_GE(field(line, "clauses_imported"), 0);
    ASSERT_NE(line.find("worker"), nullptr);
    const std::string tag = line.find("worker")->string;
    ASSERT_GE(tag.size(), 2u);
    workers.insert(tag.substr(0, tag.find(':')));
  }
  EXPECT_EQ(workers, (std::set<std::string>{"0", "1"}));
  std::filesystem::remove(path);
}

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

// The cached-handle satellite: the solver exports its per-search totals both
// through the counters and the histograms the hooks feed.
TEST(SolverStats, HistogramsAndCountersArePopulated) {
  // Without predicate learning the saturation circuit forces at least one
  // decision and one conflict before the SAT witness (learned predicates —
  // and FME level-0 refutations — can otherwise end the search without
  // either counter moving).
  Stats stats;
  ASSERT_EQ(
      solve_quickstartish(nullptr, &stats, /*predicate_learning=*/false).status,
      core::SolveStatus::kSat);
  EXPECT_GT(stats.get("hdpll.decisions"), 0);
  EXPECT_GT(stats.get("hdpll.conflicts"), 0);
  if (stats.get("hdpll.learned_clauses") > 0) {
    const Histogram* lengths = stats.find_histogram("hdpll.learned_clause_len");
    ASSERT_NE(lengths, nullptr);
    EXPECT_EQ(lengths->count(), stats.get("hdpll.learned_clauses"));
    EXPECT_EQ(lengths->sum(), stats.get("hdpll.learned_literals"));
  }
}

}  // namespace
}  // namespace rtlsat::trace

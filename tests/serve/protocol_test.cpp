#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/net.h"
#include "trace/json.h"

namespace rtlsat::serve {
namespace {

using trace::JsonValue;
using trace::json_parse;

// ---------------------------------------------------------------------------
// Request round-trips

TEST(Protocol, SolveRequestRoundTrip) {
  Request request;
  request.kind = Request::Kind::kSolve;
  request.solve.rtl = "(circuit c (input a 4))";
  request.solve.goal = "g\"q";  // escapes must survive
  request.solve.value = false;
  request.solve.budget_seconds = 2.5;
  request.solve.jobs = 3;
  request.solve.deterministic = true;
  request.solve.use_cache = false;
  request.solve.use_bank = false;
  request.solve.progress = true;

  Request parsed;
  std::string error;
  ASSERT_TRUE(parse_request(encode_request(request), &parsed, &error)) << error;
  EXPECT_EQ(parsed.kind, Request::Kind::kSolve);
  EXPECT_EQ(parsed.solve.rtl, request.solve.rtl);
  EXPECT_EQ(parsed.solve.goal, request.solve.goal);
  EXPECT_EQ(parsed.solve.value, false);
  EXPECT_DOUBLE_EQ(parsed.solve.budget_seconds, 2.5);
  EXPECT_EQ(parsed.solve.jobs, 3);
  EXPECT_TRUE(parsed.solve.deterministic);
  EXPECT_FALSE(parsed.solve.use_cache);
  EXPECT_FALSE(parsed.solve.use_bank);
  EXPECT_TRUE(parsed.solve.progress);
}

TEST(Protocol, SolveRequestDefaultsMatchStruct) {
  // A minimal solve message (only rtl + goal) parses back to the documented
  // defaults, so older clients keep working as fields are added.
  Request request;
  request.kind = Request::Kind::kSolve;
  request.solve.rtl = "(circuit c)";
  request.solve.goal = "g";
  Request parsed;
  std::string error;
  ASSERT_TRUE(parse_request(encode_request(request), &parsed, &error)) << error;
  EXPECT_TRUE(parsed.solve.value);
  EXPECT_EQ(parsed.solve.budget_seconds, 0);
  EXPECT_EQ(parsed.solve.jobs, 0);
  EXPECT_FALSE(parsed.solve.deterministic);
  EXPECT_TRUE(parsed.solve.use_cache);
  EXPECT_TRUE(parsed.solve.use_bank);
  EXPECT_FALSE(parsed.solve.progress);
}

TEST(Protocol, ControlRequestsRoundTrip) {
  for (const Request::Kind kind :
       {Request::Kind::kCancel, Request::Kind::kStats, Request::Kind::kPing,
        Request::Kind::kShutdown}) {
    Request request;
    request.kind = kind;
    request.job = 42;
    Request parsed;
    std::string error;
    ASSERT_TRUE(parse_request(encode_request(request), &parsed, &error))
        << error;
    EXPECT_EQ(parsed.kind, kind);
    if (kind == Request::Kind::kCancel) {
      EXPECT_EQ(parsed.job, 42u);
    }
  }
}

TEST(Protocol, ParseRequestRejectsGarbage) {
  Request parsed;
  std::string error;
  EXPECT_FALSE(parse_request("not json", &parsed, &error));
  EXPECT_FALSE(parse_request("[]", &parsed, &error));
  EXPECT_FALSE(parse_request("{}", &parsed, &error));
  EXPECT_FALSE(parse_request("{\"type\":\"florble\"}", &parsed, &error));
  // A solve without rtl/goal is malformed, not defaulted.
  EXPECT_FALSE(parse_request("{\"type\":\"solve\"}", &parsed, &error));
}

// ---------------------------------------------------------------------------
// Server frame round-trips

TEST(Protocol, QueuedResultErrorRoundTrip) {
  ServerMsg msg;
  std::string error;
  ASSERT_TRUE(parse_server_msg(encode_queued(7, 99), &msg, &error)) << error;
  EXPECT_EQ(msg.kind, ServerMsg::Kind::kQueued);
  EXPECT_EQ(msg.v, kProtocolVersion);
  EXPECT_EQ(msg.seq, 7);
  EXPECT_TRUE(msg.has_job);
  EXPECT_EQ(msg.job, 99u);

  ResultMsg result;
  result.verdict = "sat";
  result.cache_hit = true;
  result.solve_seconds = 1.5;
  result.service_seconds = 0.25;
  result.winner = "hdpll+pred";
  result.model.emplace_back("a", 4);
  result.model.emplace_back("b", 96);
  ASSERT_TRUE(parse_server_msg(encode_result(8, 99, result), &msg, &error))
      << error;
  EXPECT_EQ(msg.kind, ServerMsg::Kind::kResult);
  EXPECT_EQ(msg.seq, 8);
  EXPECT_EQ(msg.job, 99u);
  EXPECT_EQ(msg.result.verdict, "sat");
  EXPECT_TRUE(msg.result.cache_hit);
  EXPECT_DOUBLE_EQ(msg.result.solve_seconds, 1.5);
  EXPECT_DOUBLE_EQ(msg.result.service_seconds, 0.25);
  EXPECT_EQ(msg.result.winner, "hdpll+pred");
  ASSERT_EQ(msg.result.model.size(), 2u);
  EXPECT_EQ(msg.result.model[0].first, "a");
  EXPECT_EQ(msg.result.model[0].second, 4);
  EXPECT_EQ(msg.result.model[1].second, 96);

  ASSERT_TRUE(parse_server_msg(encode_error(9, "boom"), &msg, &error));
  EXPECT_EQ(msg.kind, ServerMsg::Kind::kError);
  EXPECT_FALSE(msg.has_job);
  EXPECT_EQ(msg.message, "boom");

  ASSERT_TRUE(parse_server_msg(encode_job_error(10, 5, "queue full"), &msg,
                               &error));
  EXPECT_EQ(msg.kind, ServerMsg::Kind::kError);
  EXPECT_TRUE(msg.has_job);
  EXPECT_EQ(msg.job, 5u);
  EXPECT_EQ(msg.message, "queue full");
}

TEST(Protocol, PresolveFlagAndCountersRoundTrip) {
  // The presolve request flag and the result's presolve.* counters are
  // additive v1 fields: absent on the wire by default, round-tripping
  // verbatim when set.
  Request request;
  request.kind = Request::Kind::kSolve;
  request.solve.rtl = "(circuit c)";
  request.solve.goal = "g";
  EXPECT_EQ(encode_request(request).find("presolve"), std::string::npos);
  request.solve.presolve = true;
  Request parsed;
  std::string error;
  ASSERT_TRUE(parse_request(encode_request(request), &parsed, &error)) << error;
  EXPECT_TRUE(parsed.solve.presolve);

  ResultMsg result;
  result.verdict = "unsat";
  result.presolve.emplace_back("presolve.decided", 1);
  result.presolve.emplace_back("presolve.nets_simplified", 12);
  ServerMsg msg;
  ASSERT_TRUE(parse_server_msg(encode_result(3, 1, result), &msg, &error))
      << error;
  ASSERT_EQ(msg.result.presolve.size(), 2u);
  EXPECT_EQ(msg.result.presolve[0].first, "presolve.decided");
  EXPECT_EQ(msg.result.presolve[0].second, 1);
  EXPECT_EQ(msg.result.presolve[1].first, "presolve.nets_simplified");
  EXPECT_EQ(msg.result.presolve[1].second, 12);

  // Counter-free results stay byte-compatible with older clients.
  ResultMsg bare;
  bare.verdict = "unsat";
  EXPECT_EQ(encode_result(4, 1, bare).find("presolve"), std::string::npos);
}

TEST(Protocol, ProgressEmbedsHeartbeatVerbatim) {
  // The heartbeat's own (v, seq) pair is scoped to the worker stream and
  // must survive the embedding untouched.
  const std::string hb =
      "{\"v\":1,\"seq\":3,\"worker\":\"w0\",\"conflicts\":12,\"decisions\":7}";
  ServerMsg msg;
  std::string error;
  ASSERT_TRUE(parse_server_msg(encode_progress(4, 2, hb), &msg, &error))
      << error;
  EXPECT_EQ(msg.kind, ServerMsg::Kind::kProgress);
  EXPECT_EQ(msg.seq, 4);
  EXPECT_EQ(msg.job, 2u);
  JsonValue doc;
  ASSERT_TRUE(json_parse(msg.hb, &doc, &error)) << error;
  EXPECT_EQ(doc.find("v")->number, 1);
  EXPECT_EQ(doc.find("seq")->number, 3);
  EXPECT_EQ(doc.find("worker")->string, "w0");
  EXPECT_EQ(doc.find("conflicts")->number, 12);
}

TEST(Protocol, StatsPongByeRoundTrip) {
  ServerStats stats;
  stats.uptime_seconds = 12.5;
  stats.connections = 2;
  stats.queue_depth = 3;
  stats.in_flight = 1;
  stats.jobs_done = 40;
  stats.cache_hits = 30;
  stats.cache_misses = 10;
  stats.cache_entries = 8;
  stats.bank_pools = 4;
  stats.cache_hit_ratio = 0.75;
  stats.jobs_per_second = 3.2;

  ServerMsg msg;
  std::string error;
  ASSERT_TRUE(parse_server_msg(encode_stats(1, stats), &msg, &error)) << error;
  EXPECT_EQ(msg.kind, ServerMsg::Kind::kStats);
  EXPECT_DOUBLE_EQ(msg.stats.uptime_seconds, 12.5);
  EXPECT_EQ(msg.stats.connections, 2);
  EXPECT_EQ(msg.stats.queue_depth, 3);
  EXPECT_EQ(msg.stats.in_flight, 1);
  EXPECT_EQ(msg.stats.jobs_done, 40);
  EXPECT_EQ(msg.stats.cache_hits, 30);
  EXPECT_EQ(msg.stats.cache_misses, 10);
  EXPECT_EQ(msg.stats.cache_entries, 8);
  EXPECT_EQ(msg.stats.bank_pools, 4);
  EXPECT_DOUBLE_EQ(msg.stats.cache_hit_ratio, 0.75);
  EXPECT_DOUBLE_EQ(msg.stats.jobs_per_second, 3.2);

  ASSERT_TRUE(parse_server_msg(encode_pong(2), &msg, &error));
  EXPECT_EQ(msg.kind, ServerMsg::Kind::kPong);
  ASSERT_TRUE(parse_server_msg(encode_bye(3), &msg, &error));
  EXPECT_EQ(msg.kind, ServerMsg::Kind::kBye);
}

TEST(Protocol, ParseServerMsgEnforcesVersionAndSeq) {
  ServerMsg msg;
  std::string error;
  EXPECT_FALSE(parse_server_msg("{\"type\":\"pong\",\"seq\":0}", &msg, &error));
  EXPECT_FALSE(
      parse_server_msg("{\"type\":\"pong\",\"v\":2,\"seq\":0}", &msg, &error));
  EXPECT_FALSE(parse_server_msg("{\"type\":\"pong\",\"v\":1}", &msg, &error));
  EXPECT_FALSE(parse_server_msg("{\"type\":\"pong\",\"v\":1,\"seq\":0.5}",
                                &msg, &error));
  EXPECT_TRUE(parse_server_msg("{\"type\":\"pong\",\"v\":1,\"seq\":0}", &msg,
                               &error));
}

// ---------------------------------------------------------------------------
// `serve --metrics` time series

JsonValue parse_object(const std::string& line) {
  JsonValue doc;
  std::string error;
  EXPECT_TRUE(json_parse(line, &doc, &error)) << error << ": " << line;
  EXPECT_TRUE(doc.is_object()) << line;
  return doc;
}

TEST(Sampler, FakeClockRatesAreExactAndFirstSampleHasNone) {
  StatsSample first;
  first.t_s = 0;
  first.stats.jobs_done = 100;
  first.stats.cache_hits = 40;
  first.stats.cache_misses = 10;
  first.stats.queue_depth = 50;
  StatsSample second = first;
  second.t_s = 2;
  second.stats.jobs_done = 700;
  second.stats.cache_hits = 41;
  second.stats.queue_depth = 60;
  const trace::ProcMemory no_memory;

  const std::vector<std::string> a = encode_sample(first, nullptr, no_memory);
  const std::vector<std::string> b = encode_sample(second, &first, no_memory);
  ASSERT_EQ(a.size(), 1u);  // !memory.ok: no process line
  ASSERT_EQ(b.size(), 1u);
  const JsonValue x = parse_object(a[0]);
  const JsonValue y = parse_object(b[0]);
  EXPECT_EQ(x.find("source")->string, "main");
  EXPECT_EQ(x.find("t_s")->number, 0.0);
  EXPECT_EQ(y.find("t_s")->number, 2.0);
  EXPECT_EQ(x.find("serve.jobs_done")->number, 100);
  EXPECT_EQ(y.find("serve.jobs_done")->number, 700);
  EXPECT_EQ(y.find("serve.queue_depth")->number, 60);
  for (const char* rate : {"serve.jobs_done_per_s", "serve.cache_hits_per_s",
                           "serve.cache_misses_per_s"}) {
    EXPECT_EQ(x.find(rate), nullptr) << rate;
    ASSERT_NE(y.find(rate), nullptr) << rate;
  }
  EXPECT_DOUBLE_EQ(y.find("serve.jobs_done_per_s")->number, 300.0);
  EXPECT_DOUBLE_EQ(y.find("serve.cache_hits_per_s")->number, 0.5);
  EXPECT_DOUBLE_EQ(y.find("serve.cache_misses_per_s")->number, 0.0);
  // Levels never get a rate.
  EXPECT_EQ(y.find("serve.queue_depth_per_s"), nullptr);
  // A previous sample that is not older gives no rate either.
  const JsonValue z = parse_object(encode_sample(second, &second, no_memory)[0]);
  EXPECT_EQ(z.find("serve.jobs_done_per_s"), nullptr);
}

// The main line carries every stats-frame field under its serve.* name.
TEST(Sampler, MainLineCarriesEveryStatsField) {
  StatsSample sample;
  sample.t_s = 1.5;
  sample.stats.uptime_seconds = 1.5;
  sample.stats.bmc_sessions = 3;
  const JsonValue main_line =
      parse_object(encode_sample(sample, nullptr, trace::ProcMemory{})[0]);
  const JsonValue stats_frame = parse_object(encode_stats(0, sample.stats));
  int fields = 0;
  for (const auto& [key, value] : stats_frame.object) {
    if (key == "v" || key == "seq" || key == "type") continue;
    const JsonValue* sampled = main_line.find("serve." + key);
    ASSERT_NE(sampled, nullptr) << key;
    EXPECT_EQ(sampled->number, value.number) << key;
    ++fields;
  }
  EXPECT_EQ(fields, 12);
  EXPECT_EQ(main_line.find("serve.bmc_sessions")->number, 3);
}

TEST(Sampler, WritesProcessLine) {
  StatsSample sample;
  sample.t_s = 0.25;
  trace::ProcMemory memory;
  memory.ok = true;
  memory.rss_kb = 14200;
  memory.rss_peak_kb = 14800;
  const std::vector<std::string> lines =
      encode_sample(sample, nullptr, memory);
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue process = parse_object(lines[1]);
  EXPECT_EQ(process.find("source")->string, "process");
  EXPECT_EQ(process.find("t_s")->number, 0.25);
  EXPECT_EQ(process.find("rss_kb")->number, 14200);
  EXPECT_EQ(process.find("rss_peak_kb")->number, 14800);
}

// ---------------------------------------------------------------------------
// Length framing over a real socket pair

TEST(Net, FrameRoundTripOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payloads[] = {"{}", "{\"k\":\"v\"}",
                                  std::string(100000, 'x')};
  std::thread writer([&] {
    for (const std::string& payload : payloads)
      ASSERT_TRUE(write_frame(fds[0], payload));
    close_fd(fds[0]);
  });
  for (const std::string& payload : payloads) {
    std::string got, error;
    ASSERT_TRUE(read_frame(fds[1], &got, &error)) << error;
    EXPECT_EQ(got, payload);
  }
  // Peer closed cleanly: read fails with an *empty* error (EOF marker).
  std::string got, error;
  EXPECT_FALSE(read_frame(fds[1], &got, &error));
  EXPECT_TRUE(error.empty());
  writer.join();
  close_fd(fds[1]);
}

TEST(Net, ReadFrameRejectsMalformedLength) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string junk = "notanumber\n{}";
  ASSERT_GT(::send(fds[0], junk.data(), junk.size(), 0), 0);
  std::string got, error;
  EXPECT_FALSE(read_frame(fds[1], &got, &error));
  EXPECT_FALSE(error.empty());
  close_fd(fds[0]);
  close_fd(fds[1]);
}

TEST(Net, ReadFrameRejectsOversizedLength) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string huge = "9999999999\n";  // over kMaxFrameBytes
  ASSERT_GT(::send(fds[0], huge.data(), huge.size(), 0), 0);
  std::string got, error;
  EXPECT_FALSE(read_frame(fds[1], &got, &error));
  EXPECT_FALSE(error.empty());
  close_fd(fds[0]);
  close_fd(fds[1]);
}

}  // namespace
}  // namespace rtlsat::serve

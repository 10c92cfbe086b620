// End-to-end tests of the serve daemon over real loopback TCP: solve,
// both cache tiers, cancellation, stats, progress streaming, and drain.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bmc/unroll.h"
#include "ir/circuit.h"
#include "itc99/itc99.h"
#include "parser/rtl_format.h"
#include "serve/client.h"
#include "trace/json.h"
#include "trace/progress.h"

namespace rtlsat::serve {
namespace {

// a + b == 100 ∧ a < 20 — SAT, with an independently checkable witness.
ir::Circuit sat_circuit(const std::string& name, const std::string& a_name,
                        const std::string& b_name) {
  ir::Circuit c(name);
  const ir::NetId a = c.add_input(a_name, 8);
  const ir::NetId b = c.add_input(b_name, 8);
  const ir::NetId goal = c.add_and(
      c.add_eq(c.add_add(a, b), c.add_const(100, 8)),
      c.add_lt(a, c.add_const(20, 8)));
  c.set_net_name(goal, "goal");
  return c;
}

// Checks a result model against the circuit it was produced for.
void expect_model_satisfies(const ir::Circuit& circuit,
                            const ResultMsg& result, bool value) {
  std::unordered_map<ir::NetId, std::int64_t> inputs;
  for (const auto& [name, v] : result.model) {
    const ir::NetId net = circuit.find_net(name);
    ASSERT_NE(net, ir::kNoNet) << "model names unknown net " << name;
    inputs[net] = v;
  }
  const std::vector<std::int64_t> values = circuit.evaluate(inputs);
  const ir::NetId goal = circuit.find_net("goal");
  ASSERT_NE(goal, ir::kNoNet);
  EXPECT_EQ(values[goal] != 0, value);
}

struct Harness {
  Server server;
  Client client;
  int port = 0;

  explicit Harness(ServerOptions options = {}) : server(std::move(options)) {
    std::string error;
    EXPECT_TRUE(server.start(&error)) << error;
    port = server.port();
    EXPECT_TRUE(client.connect("127.0.0.1", port, &error)) << error;
  }
  ~Harness() {
    client.disconnect();
    server.drain();
    server.wait();
  }
};

TEST(ServerTest, SolvesSatWithCheckableWitness) {
  Harness h;
  const ir::Circuit circuit = sat_circuit("c", "a", "b");
  SolveRequest request;
  request.rtl = parser::write_circuit(circuit);
  request.goal = "goal";
  ResultMsg result;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &result, &error)) << error;
  EXPECT_EQ(result.verdict, "sat");
  EXPECT_FALSE(result.cache_hit);
  EXPECT_FALSE(result.winner.empty());
  expect_model_satisfies(circuit, result, true);
}

TEST(ServerTest, SolvesUnsatGoalValueFalseOnTautology) {
  Harness h;
  ir::Circuit c("taut");
  const ir::NetId x = c.add_input("x", 4);
  c.set_net_name(c.add_le(c.add_const(0, 4), x), "goal");
  SolveRequest request;
  request.rtl = parser::write_circuit(c);
  request.goal = "goal";
  request.value = false;  // no assignment falsifies 0 <= x
  ResultMsg result;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &result, &error)) << error;
  EXPECT_EQ(result.verdict, "unsat");
}

TEST(ServerTest, ByteIdenticalRepeatHitsExactTier) {
  Harness h;
  const ir::Circuit circuit = sat_circuit("c", "a", "b");
  SolveRequest request;
  request.rtl = parser::write_circuit(circuit);
  request.goal = "goal";
  ResultMsg first, second;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &first, &error)) << error;
  ASSERT_TRUE(h.client.solve(request, &second, &error)) << error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.verdict, "sat");
  EXPECT_EQ(second.model, first.model);
  // The stored result carries the original solve time, not zero.
  EXPECT_EQ(second.solve_seconds, first.solve_seconds);
}

TEST(ServerTest, IsomorphicQueryHitsCanonicalTier) {
  Harness h;
  const ir::Circuit original = sat_circuit("left", "a", "b");
  const ir::Circuit renamed = sat_circuit("right", "p", "q");
  SolveRequest request;
  request.rtl = parser::write_circuit(original);
  request.goal = "goal";
  ResultMsg first;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &first, &error)) << error;

  // Different bytes, different names — same canonical cone. The transferred
  // witness must satisfy the *renamed* circuit.
  request.rtl = parser::write_circuit(renamed);
  ResultMsg second;
  ASSERT_TRUE(h.client.solve(request, &second, &error)) << error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.verdict, "sat");
  expect_model_satisfies(renamed, second, true);
}

TEST(ServerTest, CacheBypassSolvesFresh) {
  Harness h;
  const ir::Circuit circuit = sat_circuit("c", "a", "b");
  SolveRequest request;
  request.rtl = parser::write_circuit(circuit);
  request.goal = "goal";
  request.use_cache = false;
  ResultMsg first, second;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &first, &error)) << error;
  ASSERT_TRUE(h.client.solve(request, &second, &error)) << error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_FALSE(second.cache_hit);
}

TEST(ServerTest, PresolveSolveReportsCountersAndCacheReplaysThem) {
  Harness h;
  // eq(zext(a), 200) with a 4-bit is decided by the presolver alone.
  ir::Circuit c("dec");
  const ir::NetId a = c.add_input("a", 4);
  c.set_net_name(c.add_eq(c.add_zext(a, 8), c.add_const(200, 8)), "goal");
  SolveRequest request;
  request.rtl = parser::write_circuit(c);
  request.goal = "goal";
  request.presolve = true;
  ResultMsg first, second;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &first, &error)) << error;
  EXPECT_EQ(first.verdict, "unsat");
  EXPECT_FALSE(first.cache_hit);
  bool decided = false;
  for (const auto& [name, value] : first.presolve)
    if (name == "presolve.decided" && value == 1) decided = true;
  EXPECT_TRUE(decided) << "presolve.decided counter missing from result";
  // A byte-identical repeat hits the cache and replays the same counters.
  ASSERT_TRUE(h.client.solve(request, &second, &error)) << error;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.presolve, first.presolve);
}

TEST(ServerTest, PresolveSatSolveKeepsCheckableWitness) {
  Harness h;
  const ir::Circuit circuit = sat_circuit("c", "a", "b");
  SolveRequest request;
  request.rtl = parser::write_circuit(circuit);
  request.goal = "goal";
  request.presolve = true;
  ResultMsg result;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &result, &error)) << error;
  EXPECT_EQ(result.verdict, "sat");
  expect_model_satisfies(circuit, result, true);
}

TEST(ServerTest, RejectsBadRtlAndUnknownGoal) {
  Harness h;
  SolveRequest request;
  request.rtl = "this is not rtl";
  request.goal = "goal";
  ResultMsg result;
  std::string error;
  EXPECT_FALSE(h.client.solve(request, &result, &error));
  EXPECT_NE(error.find("parse error"), std::string::npos) << error;

  // The connection survives a rejected request.
  request.rtl = parser::write_circuit(sat_circuit("c", "a", "b"));
  request.goal = "no_such_net";
  EXPECT_FALSE(h.client.solve(request, &result, &error));
  EXPECT_NE(error.find("unknown goal"), std::string::npos) << error;
  request.goal = "goal";
  EXPECT_TRUE(h.client.solve(request, &result, &error)) << error;
}

TEST(ServerTest, StatsReflectCacheTraffic) {
  Harness h;
  const ir::Circuit circuit = sat_circuit("c", "a", "b");
  SolveRequest request;
  request.rtl = parser::write_circuit(circuit);
  request.goal = "goal";
  ResultMsg result;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &result, &error)) << error;
  ASSERT_TRUE(h.client.solve(request, &result, &error)) << error;

  ServerStats stats;
  ASSERT_TRUE(h.client.stats(&stats, &error)) << error;
  EXPECT_EQ(stats.connections, 1);
  EXPECT_EQ(stats.jobs_done, 2);
  EXPECT_GE(stats.cache_hits, 1);
  EXPECT_GE(stats.cache_misses, 1);
  EXPECT_GE(stats.cache_entries, 1);
  EXPECT_GT(stats.cache_hit_ratio, 0);
  EXPECT_GT(stats.uptime_seconds, 0);
  EXPECT_TRUE(h.client.ping(&error)) << error;
}

TEST(ServerTest, CancelFromSecondConnectionStopsRunningJob) {
  ServerOptions options;
  options.solve_workers = 1;
  options.max_budget_seconds = 60;
  Harness h(options);
  // An instance the solver needs many seconds for, so cancellation — not
  // completion — ends it. (b13_1(200), used before, now solves in about
  // 0.3 s with one HDPLL+S+P worker and raced the cancel; b13_5(300) takes
  // about 5 s on a 4-thread x86 container.)
  bmc::BmcInstance hard = bmc::unroll(itc99::build("b13"), "5", 300);
  hard.circuit.set_name("b13_5_k300");
  SolveRequest request;
  request.rtl = parser::write_circuit(hard.circuit);
  request.goal = hard.circuit.net_name(hard.goal);
  request.budget_seconds = 60;
  request.jobs = 1;
  request.use_cache = false;

  std::uint64_t job = 0;
  std::string error;
  ASSERT_TRUE(h.client.submit(request, &job, &error)) << error;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  Client other;
  ASSERT_TRUE(other.connect("127.0.0.1", h.port, &error)) << error;
  ASSERT_TRUE(other.cancel(job, &error)) << error;

  ResultMsg result;
  ASSERT_TRUE(h.client.wait(job, &result, &error)) << error;
  EXPECT_EQ(result.verdict, "cancelled");
  EXPECT_LT(result.service_seconds, 30);
}

TEST(ServerTest, ProgressFramesCarryVersionedHeartbeats) {
  ServerOptions options;
  options.progress_interval_seconds = 0.001;
  Harness h(options);
  bmc::BmcInstance instance = bmc::unroll(itc99::build("b01"), "1", 8);
  instance.circuit.set_name("b01_1_k8");
  SolveRequest request;
  request.rtl = parser::write_circuit(instance.circuit);
  request.goal = instance.circuit.net_name(instance.goal);
  request.progress = true;
  request.use_cache = false;

  std::vector<std::string> heartbeats;
  ResultMsg result;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &result, &error,
                             [&](const std::string& hb) {
                               heartbeats.push_back(hb);
                             }))
      << error;
  ASSERT_FALSE(heartbeats.empty());
  for (const std::string& hb : heartbeats) {
    trace::JsonValue doc;
    ASSERT_TRUE(trace::json_parse(hb, &doc, &error)) << error;
    ASSERT_NE(doc.find("v"), nullptr);
    EXPECT_EQ(doc.find("v")->number, trace::kHeartbeatSchemaVersion);
    ASSERT_NE(doc.find("seq"), nullptr);
    ASSERT_NE(doc.find("conflicts"), nullptr);
    ASSERT_NE(doc.find("clause_db_bytes"), nullptr);
  }
}

TEST(ServerTest, DrainRejectsNewSolvesThenExitsCleanly) {
  Server server{ServerOptions{}};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;
  // A ping round-trip proves the server-side reader accepted this
  // connection — drain() stops *accepting*, and a connection still in the
  // kernel backlog at that point is dropped by design.
  ASSERT_TRUE(client.ping(&error)) << error;

  server.drain();
  SolveRequest request;
  request.rtl = parser::write_circuit(sat_circuit("c", "a", "b"));
  request.goal = "goal";
  ResultMsg result;
  EXPECT_FALSE(client.solve(request, &result, &error));
  EXPECT_NE(error.find("draining"), std::string::npos) << error;

  client.disconnect();
  server.wait();  // must return: no jobs, no readers, accept unblocked
}

// ---- BMC over the wire ----------------------------------------------------

SolveRequest bmc_request(const std::string& seq_rtl, int bound) {
  SolveRequest request;
  request.seq_rtl = seq_rtl;
  request.property = "1";
  request.bound = bound;
  return request;
}

TEST(ServerBmcTest, SweepingBoundsReusesOneWarmSession) {
  Harness h;
  const ir::SeqCircuit seq = itc99::build("b01");
  const std::string seq_rtl = parser::write_seq_circuit(seq);
  std::string error;
  // b01 property 1: UNSAT through bound 9, first counterexample at 10. All
  // ten bounds run on one warm incremental session server-side; use_cache
  // off so every bound genuinely solves.
  ResultMsg last;
  for (int bound = 1; bound <= 10; ++bound) {
    SolveRequest request = bmc_request(seq_rtl, bound);
    request.use_cache = false;
    ASSERT_TRUE(h.client.solve(request, &last, &error)) << error;
    EXPECT_EQ(last.verdict, bound < 10 ? "unsat" : "sat") << "bound " << bound;
    EXPECT_FALSE(last.cache_hit);
  }
  ServerStats stats;
  ASSERT_TRUE(h.client.stats(&stats, &error)) << error;
  EXPECT_EQ(stats.bmc_sessions, 1);
  EXPECT_EQ(stats.jobs_done, 10);

  // The growing circuit is node-for-node unroll(10)'s, so the witness's
  // frame-stamped input names must replay on a fresh one-shot unrolling.
  const bmc::BmcInstance one_shot = bmc::unroll(seq, "1", 10);
  std::unordered_map<ir::NetId, std::int64_t> inputs;
  for (const auto& [name, value] : last.model) {
    const ir::NetId net = one_shot.circuit.find_net(name);
    ASSERT_NE(net, ir::kNoNet) << "model names unknown net " << name;
    inputs[net] = value;
  }
  const std::vector<std::int64_t> values = one_shot.circuit.evaluate(inputs);
  EXPECT_EQ(values[one_shot.goal], 1);
}

TEST(ServerBmcTest, ByteIdenticalBoundHitsExactTier) {
  Harness h;
  const std::string seq_rtl = parser::write_seq_circuit(itc99::build("b01"));
  const SolveRequest request = bmc_request(seq_rtl, 3);
  ResultMsg first, second;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &first, &error)) << error;
  ASSERT_TRUE(h.client.solve(request, &second, &error)) << error;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.verdict, first.verdict);
  // A different bound on the same design is a different cache entry (but
  // the same warm session).
  SolveRequest deeper = bmc_request(seq_rtl, 4);
  ResultMsg third;
  ASSERT_TRUE(h.client.solve(deeper, &third, &error)) << error;
  EXPECT_FALSE(third.cache_hit);
  ServerStats stats;
  ASSERT_TRUE(h.client.stats(&stats, &error)) << error;
  EXPECT_EQ(stats.bmc_sessions, 1);
}

TEST(ServerBmcTest, BankBypassUsesThrowawaySessions) {
  Harness h;
  const std::string seq_rtl = parser::write_seq_circuit(itc99::build("b02"));
  SolveRequest request = bmc_request(seq_rtl, 2);
  request.use_cache = false;
  request.use_bank = false;
  ResultMsg result;
  std::string error;
  ASSERT_TRUE(h.client.solve(request, &result, &error)) << error;
  EXPECT_EQ(result.verdict, "unsat");
  ServerStats stats;
  ASSERT_TRUE(h.client.stats(&stats, &error)) << error;
  EXPECT_EQ(stats.bmc_sessions, 0);
}

TEST(ServerBmcTest, RejectsBadSeqRtlAndUnknownProperty) {
  Harness h;
  SolveRequest request = bmc_request("this is not rtl", 2);
  ResultMsg result;
  std::string error;
  EXPECT_FALSE(h.client.solve(request, &result, &error));
  EXPECT_NE(error.find("parse error"), std::string::npos) << error;

  const std::string seq_rtl = parser::write_seq_circuit(itc99::build("b02"));
  request = bmc_request(seq_rtl, 2);
  request.property = "no_such_property";
  EXPECT_FALSE(h.client.solve(request, &result, &error));
  EXPECT_NE(error.find("unknown property"), std::string::npos) << error;

  // The connection survives rejected requests.
  request.property = "1";
  EXPECT_TRUE(h.client.solve(request, &result, &error)) << error;
  EXPECT_EQ(result.verdict, "unsat");
}

TEST(ServerTest, ShutdownRequestDrainsServer) {
  Server server{ServerOptions{}};
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  Client client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(client.shutdown_server(&error)) << error;
  client.disconnect();
  server.wait();
}

}  // namespace
}  // namespace rtlsat::serve

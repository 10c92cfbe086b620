// Incremental BMC: one growing unrolling + one persistent solver must give
// verdicts interchangeable with fresh-per-frame unroll()+solve(), and SAT
// witnesses must replay on the growing circuit independently of the
// solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "bmc/incremental.h"
#include "bmc/sweep.h"
#include "bmc/unroll.h"
#include "ir/analysis.h"
#include "itc99/itc99.h"
#include "trace/trace.h"
#include "util/timer.h"

namespace rtlsat::bmc {
namespace {

core::HdpllOptions solver_options() {
  core::HdpllOptions options;
  options.structural_decisions = true;
  options.predicate_learning = true;
  options.timeout_seconds = 60;
  return options;
}

core::SolveStatus fresh_verdict(const ir::SeqCircuit& seq,
                                const std::string& property, int bound,
                                bool cumulative) {
  const BmcInstance instance = cumulative ? unroll_any(seq, property, bound)
                                          : unroll(seq, property, bound);
  core::HdpllSolver solver(instance.circuit, solver_options());
  solver.assume_bool(instance.goal, true);
  return solver.solve().status;
}

TEST(IncrementalBmc, MatchesFreshUnrollAcrossBounds) {
  // b01 property 1: UNSAT through bound 9, first counterexample at 10.
  const ir::SeqCircuit seq = itc99::build("b01");
  IncrementalBmc inc(seq, "1", solver_options());
  for (int bound = 1; bound <= 10; ++bound) {
    const core::SolveResult r = inc.solve_bound(bound);
    EXPECT_EQ(r.status, fresh_verdict(seq, "1", bound, /*cumulative=*/false))
        << inc.name(bound);
  }
  EXPECT_FALSE(inc.solver().root_unsat());
}

TEST(IncrementalBmc, SatWitnessReplaysOnGrowingCircuit) {
  const ir::SeqCircuit seq = itc99::build("b01");
  IncrementalBmc inc(seq, "1", solver_options());
  const core::SolveResult r = inc.solve_bound(10);
  ASSERT_EQ(r.status, core::SolveStatus::kSat);
  // Replay independently of the solver: the model must drive the bound-10
  // goal (= ¬P in frame 10) to 1 on the circuit itself.
  const ir::NetId goal = inc.ensure_bound(10);
  const auto values = inc.circuit().evaluate(r.input_model);
  EXPECT_EQ(values[goal], 1);
}

TEST(IncrementalBmc, GrowingCircuitMatchesOneShotFrames) {
  // Frame-for-frame structural equivalence with the one-shot unroller:
  // after ensure_bound(k) the circuit holds exactly unroll(k)'s nets, in
  // the same order with the same per-frame input names.
  const ir::SeqCircuit seq = itc99::build("b02");
  IncrementalBmc inc(seq, "1", solver_options());
  inc.ensure_bound(3);
  const BmcInstance one_shot = unroll(seq, "1", 3);
  ASSERT_EQ(inc.frame_map().size(), one_shot.frame_map.size());
  for (std::size_t f = 0; f < one_shot.frame_map.size(); ++f)
    EXPECT_EQ(inc.frame_map()[f], one_shot.frame_map[f]) << "frame " << f;
  for (ir::NetId id = 0; id < one_shot.circuit.num_nets(); ++id) {
    EXPECT_EQ(inc.circuit().node(id).op, one_shot.circuit.node(id).op)
        << "net " << id;
  }
}

TEST(IncrementalBmc, CumulativeGoalMatchesUnrollAny) {
  const ir::SeqCircuit seq = itc99::build("b01");
  IncrementalBmc inc(seq, "1", solver_options(), /*cumulative=*/true);
  for (int bound = 1; bound <= 11; ++bound) {
    const core::SolveResult r = inc.solve_bound(bound);
    EXPECT_EQ(r.status, fresh_verdict(seq, "1", bound, /*cumulative=*/true))
        << inc.name(bound);
  }
}

TEST(IncrementalBmc, BoundsCanRepeatAndGoBackwards) {
  const ir::SeqCircuit seq = itc99::build("b02");
  IncrementalBmc inc(seq, "1", solver_options());
  const auto s3 = inc.solve_bound(3).status;
  const auto s1 = inc.solve_bound(1).status;
  const auto s3_again = inc.solve_bound(3).status;
  EXPECT_EQ(s1, fresh_verdict(seq, "1", 1, false));
  EXPECT_EQ(s3, fresh_verdict(seq, "1", 3, false));
  EXPECT_EQ(s3_again, s3);
}

// The bmc_sweep configuration of `rtlbench --selftest`: b13 property 1,
// HDPLL+S+P with the paper's relation threshold, bounds 1..60 on one
// solver. Growing the circuit must not change anything the search sees,
// so the counts stay those of the rebuild-every-bound solver.
TEST(IncrementalBmc, PinnedCountsUnchanged) {
  const ir::SeqCircuit seq = itc99::build("b13");
  core::HdpllOptions options = solver_options();
  options.learning.max_relations = 2000;
  IncrementalBmc inc(seq, "1", options);
  for (int bound = 1; bound <= 60; ++bound) {
    ASSERT_EQ(inc.solve_bound(bound).status, core::SolveStatus::kUnsat)
        << inc.name(bound);
  }
  EXPECT_EQ(inc.solver().stats().get("hdpll.decisions"), 43);
  EXPECT_EQ(inc.solver().stats().get("hdpll.conflicts"), 103);
  // Queue pops: rule calls that ran plus pops that found their node
  // settled.
  EXPECT_EQ(inc.solver().engine().num_propagations() +
                inc.solver().engine().num_skipped_wakeups(),
            304366);
}

// Deep growth: the engine's reader index, extended frame by frame over
// 100 bounds of b13, equals a rebuild (ir::fanouts) every 10 bounds.
TEST(IncrementalBmc, ReaderIndexMatchesFanoutsWhenDeep) {
  const ir::SeqCircuit seq = itc99::build("b13");
  IncrementalBmc inc(seq, "1", solver_options());
  for (int bound = 1; bound <= 100; ++bound) {
    inc.solve_bound(bound);
    if (bound % 10 != 0) continue;
    const auto fanouts = ir::fanouts(inc.circuit());
    const prop::Engine& engine = inc.solver().engine();
    for (ir::NetId id = 0; id < inc.circuit().num_nets(); ++id) {
      ASSERT_TRUE(std::ranges::equal(engine.readers(id), fanouts[id]))
          << "bound " << bound << ", net " << id;
    }
  }
}

// A traced sweep sees its unrolling: each growth step records one kUnroll
// event (nets after the step, bound) on the solver's tracer, and a bound
// that appends nothing records none.
TEST(IncrementalBmc, UnrollEventsGoToTheSolverTracer) {
  trace::TracerOptions tracer_options;
  tracer_options.collect_in_memory = true;
  trace::Tracer tracer(tracer_options);
  core::HdpllOptions options = solver_options();
  options.tracer = &tracer;
  const ir::SeqCircuit seq = itc99::build("b02");
  IncrementalBmc inc(seq, "1", options);
  std::vector<std::int64_t> grown_nets;
  for (int bound : {1, 2, 2, 4, 3}) {
    const auto before = inc.circuit().num_nets();
    inc.solve_bound(bound);
    if (inc.circuit().num_nets() != before)
      grown_nets.push_back(static_cast<std::int64_t>(inc.circuit().num_nets()));
  }
  std::vector<trace::Event> unrolls;
  for (const trace::Event& event : tracer.drain()) {
    if (event.kind == trace::EventKind::kUnroll) unrolls.push_back(event);
  }
  ASSERT_EQ(grown_nets.size(), 3u);  // bounds 1, 2 and 4
  ASSERT_EQ(unrolls.size(), grown_nets.size());
  const int grown_bounds[] = {1, 2, 4};
  for (std::size_t i = 0; i < unrolls.size(); ++i) {
    EXPECT_EQ(unrolls[i].a, grown_nets[i]);
    EXPECT_EQ(unrolls[i].b, grown_bounds[i]);
  }
}

// The deep sweep both the verdict and the speedup checks below run: b13
// property 2 with every bound 1..24 solved.
constexpr int kDeepBound = 24;

SweepOptions deep_sweep_options(bool incremental) {
  SweepOptions options;
  options.solver = solver_options();
  options.stop_at_sat = false;
  options.incremental = incremental;
  return options;
}

TEST(IncrementalSweep, AgreesWithFreshSweep) {
  struct Row {
    const char* circuit;
    const char* property;
    int max_bound;
    bool stop_at_sat;
  };
  for (const Row& row : {Row{"b01", "1", 12, true},
                         Row{"b13", "2", kDeepBound, false}}) {
    const ir::SeqCircuit seq = itc99::build(row.circuit);
    SweepOptions fresh = deep_sweep_options(/*incremental=*/false);
    fresh.stop_at_sat = row.stop_at_sat;
    SweepOptions incremental = fresh;
    incremental.incremental = true;
    const SweepResult a = sweep(seq, row.property, row.max_bound, fresh);
    const SweepResult b = sweep(seq, row.property, row.max_bound, incremental);
    ASSERT_EQ(a.frames.size(), b.frames.size()) << row.circuit;
    EXPECT_EQ(a.first_sat_bound, b.first_sat_bound) << row.circuit;
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
      EXPECT_EQ(a.frames[i].status, b.frames[i].status) << a.frames[i].name;
      EXPECT_EQ(a.frames[i].name, b.frames[i].name);
    }
  }
}

TEST(IncrementalSweep, FasterThanFreshOnDeepSweep) {
#if defined(RTLSAT_SELFCHECK) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "wall-time floor; instrumented builds distort it";
#endif
  // Best of 3 per path, alternating which path runs first, so a burst of
  // host load hits both paths alike.
  const ir::SeqCircuit seq = itc99::build("b13");
  double best[2] = {1e9, 1e9};  // [fresh, incremental] seconds
  for (int round = 0; round < 3; ++round) {
    for (const bool incremental : {round % 2 == 0, round % 2 != 0}) {
      const Timer timer;
      const SweepResult r =
          sweep(seq, "2", kDeepBound, deep_sweep_options(incremental));
      const double seconds = timer.seconds();
      ASSERT_EQ(r.frames.size(), static_cast<std::size_t>(kDeepBound));
      best[incremental] = std::min(best[incremental], seconds);
    }
  }
  const double speedup = best[0] / best[1];
  RecordProperty("speedup", std::to_string(speedup));
  EXPECT_GE(speedup, 1.5) << "fresh " << best[0] << " s, incremental "
                          << best[1] << " s";
}

TEST(IncrementalSweep, CertifyFallsBackToSelfContainedFrames) {
  // certify + incremental: the sweep must still produce per-frame
  // certificates (the incremental solver cannot), so it falls back.
  const ir::SeqCircuit seq = itc99::build("b02");
  SweepOptions options;
  options.solver = solver_options();
  options.certify = true;
  options.incremental = true;
  const SweepResult result = sweep(seq, "1", 2, options);
  ASSERT_EQ(result.frames.size(), 2u);
  for (const FrameResult& frame : result.frames) {
    EXPECT_TRUE(frame.certified) << frame.name << ": " << frame.cert_error;
    EXPECT_GT(frame.cert_records, 0) << frame.name;
  }
}

TEST(CertPath, DistinctNamesNeverCollide) {
  // The old sanitizer mapped every non-filename character to '_', so
  // "b13_2(4)" and "b13_2[4]" shared one certificate file and the second
  // frame silently overwrote the first.
  const std::string a = cert_path_for_testing("certs", "b13_2(4)");
  const std::string b = cert_path_for_testing("certs", "b13_2[4]");
  EXPECT_NE(a, b);
  // Still filesystem-safe and stable for clean names.
  EXPECT_EQ(cert_path_for_testing("certs", "plain-name_1"),
            "certs/plain-name_1.cert.jsonl");
  for (const std::string& p : {a, b}) {
    for (const char ch : p.substr(6)) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
                  ch == '-' || ch == '.')
          << p;
    }
  }
}

}  // namespace
}  // namespace rtlsat::bmc

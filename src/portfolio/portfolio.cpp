#include "portfolio/portfolio.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "bitblast/bitblast.h"
#include "presolve/simplify.h"
#include "trace/progress.h"
#include "trace/sink.h"
#include "util/stop_token.h"
#include "util/timer.h"

namespace rtlsat::portfolio {

using Clock = std::chrono::steady_clock;
using ir::NetId;

std::vector<WorkerConfig> default_lineup(int jobs, int learn_threshold) {
  const auto hdpll_config = [&](const char* name, bool structural,
                                bool predicates) {
    WorkerConfig w;
    w.name = name;
    w.hdpll.structural_decisions = structural;
    w.hdpll.predicate_learning = predicates;
    w.hdpll.learning.max_relations = learn_threshold;
    return w;
  };

  std::vector<WorkerConfig> lineup;
  const int n = std::max(jobs, 1);
  for (int i = 0; i < n; ++i) {
    switch (i) {
      case 0:
        // The paper's strongest configuration leads, and wins index
        // tie-breaks in deterministic mode.
        lineup.push_back(hdpll_config("HDPLL+S+P", true, true));
        break;
      case 1: {
        // The structure-blind baseline is the best complement: it wins on
        // exactly the instances the word-level engines lose.
        WorkerConfig w;
        w.name = "bitblast";
        w.bitblast = true;
        lineup.push_back(std::move(w));
        break;
      }
      case 2:
        lineup.push_back(hdpll_config("HDPLL+S", true, false));
        break;
      case 3:
        lineup.push_back(hdpll_config("HDPLL", false, false));
        break;
      default: {
        // Extra slots: seed/parameter-perturbed copies of the strongest
        // configuration — diversity through restart cadence and decay.
        const int k = i - 3;
        WorkerConfig w = hdpll_config("", true, true);
        w.name = "HDPLL+S+P#" + std::to_string(k);
        w.hdpll.random_seed = static_cast<std::uint64_t>(k) * 2654435761u + 1;
        w.hdpll.restart_interval = 64 << (k % 4);
        w.hdpll.activity_decay = (k % 2) == 0 ? 0.92 : 0.97;
        lineup.push_back(std::move(w));
        break;
      }
    }
  }
  return lineup;
}

Portfolio::Portfolio(const ir::Circuit& circuit, NetId goal, bool goal_value,
                     PortfolioOptions options, std::vector<WorkerConfig> lineup)
    : circuit_(circuit),
      goal_(goal),
      goal_value_(goal_value),
      options_(options),
      lineup_(std::move(lineup)) {
  if (lineup_.empty())
    lineup_ = default_lineup(options_.jobs, options_.learn_threshold);
}

namespace {

// Everything one racer owns. The HdpllSolver outlives the race so the
// cross-check can replay the winner's model against the loser's level-0
// interval store.
struct WorkerSlot {
  WorkerConfig config;
  std::unique_ptr<PoolExchange> exchange;
  std::unique_ptr<core::HdpllSolver> solver;  // HDPLL workers only
  std::unique_ptr<trace::ProgressReporter> progress;
  char verdict = '?';
  double seconds = 0;
  std::unordered_map<NetId, std::int64_t> model;
  Stats stats;
  Clock::time_point end_time{};
  bool ran = false;
};

char hdpll_verdict(core::SolveStatus status) {
  switch (status) {
    case core::SolveStatus::kSat: return 'S';
    case core::SolveStatus::kUnsat: return 'U';
    case core::SolveStatus::kTimeout: return 'T';
    case core::SolveStatus::kCancelled: return 'C';
  }
  return '?';
}

char sat_verdict(sat::Result result) {
  switch (result) {
    case sat::Result::kSat: return 'S';
    case sat::Result::kUnsat: return 'U';
    case sat::Result::kTimeout: return 'T';
    case sat::Result::kCancelled: return 'C';
  }
  return '?';
}

}  // namespace

PortfolioResult Portfolio::solve() {
  if (!options_.presolve) return solve({});
  Timer timer;
  presolve::GoalPresolve pre =
      presolve::presolve_goal(circuit_, goal_, goal_value_);
  if (pre.decided) {
    // Decided without a single solver call: no race, no workers.
    PortfolioResult result;
    result.status =
        pre.sat ? core::SolveStatus::kSat : core::SolveStatus::kUnsat;
    result.winner_name = "presolve";
    if (pre.sat) result.input_model = std::move(pre.model);
    pre.stats.add_to(result.stats);
    result.stats.add("presolve.decided", 1);
    if (options_.crosscheck && result.status == core::SolveStatus::kSat) {
      const auto values = circuit_.evaluate(result.input_model);
      if ((values[goal_] != 0) != goal_value_) {
        result.crosscheck_violations.push_back(
            "presolve model does not satisfy the goal under circuit "
            "evaluation");
      }
    }
    result.seconds = timer.seconds();
    return result;
  }
  // Undecided: race the simplified instance (presolve off — one level of
  // rewriting is all there is) and translate the verdict back.
  PortfolioOptions inner_options = options_;
  inner_options.presolve = false;
  Portfolio inner(pre.circuit, pre.goal, goal_value_, inner_options, lineup_);
  PortfolioResult result = inner.solve();
  pre.stats.add_to(result.stats);
  if (result.status == core::SolveStatus::kSat) {
    // Model transfer by input name: every simplified input is the image of
    // a same-named original input; an input the rewrite erased is
    // unconstrained, so any value — 0 — completes the witness.
    std::unordered_map<NetId, std::int64_t> model;
    for (const NetId in : circuit_.inputs()) {
      const NetId mapped = pre.circuit.find_net(circuit_.net_name(in));
      const auto it = mapped == ir::kNoNet ? result.input_model.end()
                                           : result.input_model.find(mapped);
      model[in] = it == result.input_model.end() ? 0 : it->second;
    }
    result.input_model = std::move(model);
    if (options_.crosscheck) {
      // The inner race already cross-checked the simplified instance; this
      // pass catches net-map bugs in the rewrite itself.
      const auto values = circuit_.evaluate(result.input_model);
      if ((values[goal_] != 0) != goal_value_) {
        result.crosscheck_violations.push_back(
            "presolve-mapped model does not satisfy the original goal");
      }
    }
  }
  result.seconds = timer.seconds();
  return result;
}

PortfolioResult Portfolio::solve(
    const std::vector<std::pair<ir::NetId, Interval>>& assumptions) {
  Timer timer;
  PortfolioResult result;
  const int n = static_cast<int>(lineup_.size());

  ClausePool local_pool(
      ClausePoolOptions{.max_clause_len = options_.share_max_len});
  ClausePool* pool = options_.pool != nullptr ? options_.pool : &local_pool;
  // With a race-local pool, sharing needs at least two HDPLL workers;
  // otherwise skip the endpoints entirely so a 1-worker portfolio matches a
  // direct solve (PortfolioTest.OneWorkerPortfolioMatchesDirectSolve). An
  // external cross-job pool shares regardless — the peers are other jobs.
  const int hdpll_workers = static_cast<int>(
      std::count_if(lineup_.begin(), lineup_.end(),
                    [](const WorkerConfig& w) { return !w.bitblast; }));
  const bool share = options_.share_clauses &&
                     (options_.pool != nullptr || hdpll_workers >= 2);
  std::vector<WorkerSlot> slots(lineup_.size());
  for (int i = 0; i < n; ++i) {
    slots[i].config = lineup_[i];
    if (share && !lineup_[i].bitblast) {
      slots[i].exchange =
          std::make_unique<PoolExchange>(pool, options_.worker_id_base + i);
    }
    if (options_.progress_sink != nullptr) {
      trace::ProgressOptions progress_options;
      progress_options.banner = false;
      progress_options.interval_seconds = options_.progress_interval_seconds;
      progress_options.sink = options_.progress_sink;
      progress_options.label = std::to_string(i) + ":" + lineup_[i].name;
      slots[i].progress =
          std::make_unique<trace::ProgressReporter>(progress_options);
    }
  }

  StopSource source;
  // First decisive worker; parallel mode resolves races with one CAS, so
  // exactly one thread fires the stop and records the stop time.
  std::atomic<int> winner{-1};
  Clock::time_point stop_time{};

  const auto run_worker = [&](int index, const StopToken& token) {
    WorkerSlot& slot = slots[index];
    slot.ran = true;
    Timer worker_timer;
    if (slot.config.bitblast) {
      if (!assumptions.empty()) {
        // No word-level assumption channel into the bit-blast baseline;
        // racing it on the unstrengthened instance would produce verdicts
        // for a different question. Sit this one out.
        slot.verdict = '?';
        slot.seconds = worker_timer.seconds();
        slot.end_time = Clock::now();
        return;
      }
      sat::SolverOptions sat_options;
      sat_options.stop = token;
      sat_options.self_check = options_.self_check;
      sat_options.tracer = options_.tracer;
      sat_options.progress = slot.progress.get();
      const bitblast::CheckResult check =
          bitblast::check_sat(circuit_, goal_, goal_value_, sat_options);
      slot.verdict = sat_verdict(check.result);
      if (check.result == sat::Result::kSat) slot.model = check.input_model;
    } else {
      core::HdpllOptions hdpll_options = slot.config.hdpll;
      hdpll_options.stop = token;
      hdpll_options.self_check = options_.self_check;
      hdpll_options.tracer = options_.tracer;
      hdpll_options.exchange = slot.exchange.get();
      hdpll_options.progress = slot.progress.get();
      slot.solver =
          std::make_unique<core::HdpllSolver>(circuit_, hdpll_options);
      slot.solver->assume_bool(goal_, goal_value_);
      const core::SolveResult solved = slot.solver->solve(assumptions);
      slot.verdict = hdpll_verdict(solved.status);
      if (solved.status == core::SolveStatus::kSat)
        slot.model = solved.input_model;
      slot.stats = slot.solver->stats();
    }
    slot.seconds = worker_timer.seconds();
    slot.end_time = Clock::now();
    if (slot.verdict == 'S' || slot.verdict == 'U') {
      int expected = -1;
      if (winner.compare_exchange_strong(expected, index)) {
        // Order matters: a loser observing the flag must find stop_time
        // already written. The threads' join gives the main thread its
        // own happens-before edge for both.
        stop_time = Clock::now();
        source.request_stop();
      }
    }
  };

  if (options_.deterministic) {
    // Sequential, in index order, no cancellation: the pool's content at
    // every import point is a pure function of the lineup, so verdicts,
    // models, and counters reproduce run to run (see header). Every
    // worker runs — later workers still import the earlier ones' clauses
    // and feed the cross-check.
    for (int i = 0; i < n; ++i) {
      const double remaining =
          options_.budget_seconds <= 0
              ? 0
              : std::max(options_.budget_seconds - timer.seconds(), 1e-3);
      run_worker(i, options_.stop.with_deadline(remaining));
    }
  } else {
    const StopToken token = source.token()
                                .combined(options_.stop)
                                .with_deadline(options_.budget_seconds);
    std::vector<std::thread> threads;
    threads.reserve(lineup_.size());
    for (int i = 0; i < n; ++i)
      threads.emplace_back([&run_worker, &token, i] { run_worker(i, token); });
    for (std::thread& t : threads) t.join();
  }

  // ---- merge reports (single-threaded from here on).
  int winner_index = winner.load();
  if (options_.deterministic) {
    // Lowest-index decisive worker wins the tie-break by construction of
    // the sequential loop order.
    winner_index = -1;
    for (int i = 0; i < n && winner_index < 0; ++i) {
      if (slots[i].verdict == 'S' || slots[i].verdict == 'U') winner_index = i;
    }
  }

  for (int i = 0; i < n; ++i) {
    WorkerSlot& slot = slots[i];
    WorkerReport report;
    report.name = slot.config.name;
    report.verdict = slot.verdict;
    report.seconds = slot.seconds;
    report.clauses_exported = slot.stats.get("hdpll.clauses_exported");
    report.clauses_imported = slot.stats.get("hdpll.clauses_imported");
    if (slot.verdict == 'C') {
      report.cancel_latency =
          std::chrono::duration<double>(slot.end_time - stop_time).count();
    }
    result.stats.merge(slot.stats);
    report.stats = std::move(slot.stats);
    result.workers.push_back(std::move(report));
  }
  result.stats.add("portfolio.workers", n);
  result.stats.add("portfolio.pool_clauses",
                   static_cast<std::int64_t>(pool->size()));

  result.winner = winner_index;
  if (winner_index >= 0) {
    WorkerSlot& win = slots[winner_index];
    result.winner_name = win.config.name;
    result.status = win.verdict == 'S' ? core::SolveStatus::kSat
                                       : core::SolveStatus::kUnsat;
    result.input_model = std::move(win.model);
  } else {
    // No decisive worker: if the *caller's* token fired (serve cancel,
    // shutdown) the race was cancelled; otherwise the budget ran out. The
    // internal first-verdict-wins source never trips this — it only fires
    // alongside a winner.
    result.status = options_.stop.stop_requested()
                        ? core::SolveStatus::kCancelled
                        : core::SolveStatus::kTimeout;
  }

  if (options_.crosscheck && winner_index >= 0) {
    for (int i = 0; i < n; ++i) {
      if (i == winner_index) continue;
      const char v = slots[i].verdict;
      if ((v == 'S' || v == 'U') && v != slots[winner_index].verdict) {
        result.crosscheck_violations.push_back(
            "verdict disagreement: " + result.winner_name + " says " +
            slots[winner_index].verdict + std::string(" but ") +
            slots[i].config.name + " says " + v);
      }
    }
    if (result.status == core::SolveStatus::kSat) {
      const auto values = circuit_.evaluate(result.input_model);
      if ((values[goal_] != 0) != goal_value_) {
        result.crosscheck_violations.push_back(
            "winner model does not satisfy the goal under circuit "
            "evaluation");
      }
      for (const auto& [net, interval] : assumptions) {
        if (!interval.contains(values[net])) {
          result.crosscheck_violations.push_back(
              "winner model violates assumption on " + circuit_.net_name(net));
        }
      }
      for (int i = 0; i < n; ++i) {
        if (i == winner_index || slots[i].solver == nullptr) continue;
        for (const std::string& v :
             slots[i].solver->crosscheck_model(result.input_model)) {
          result.crosscheck_violations.push_back(slots[i].config.name + ": " +
                                                 v);
        }
      }
    }
  }

  result.seconds = timer.seconds();
  return result;
}

}  // namespace rtlsat::portfolio

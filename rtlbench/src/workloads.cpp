#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <random>
#include <set>
#include <thread>

#include "bmc/incremental.h"
#include "bmc/unroll.h"
#include "core/hdpll.h"
#include "ir/cone.h"
#include "itc99/itc99.h"
#include "parser/rtl_format.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "summary.h"
#include "trace/progress.h"
#include "trace/trace.h"
#include "util/timer.h"

namespace rtlbench {
namespace {

using namespace rtlsat;

// A verdict slower than this counts as a failure (timeout).
constexpr double kSolveTimeoutSeconds = 60;

enum class Config { kHdpll, kStructural, kStructuralPred };

// The paper's Table 2 configurations, with its §5.2 relation threshold.
core::HdpllOptions solver_options(Config config, trace::Tracer* tracer) {
  core::HdpllOptions options;
  options.structural_decisions = config != Config::kHdpll;
  options.predicate_learning = config == Config::kStructuralPred;
  options.learning.max_relations = 2000;
  options.timeout_seconds = kSolveTimeoutSeconds;
  options.tracer = tracer;
  return options;
}

// A progress reporter that never reports: its clock, which the solver reads
// once per conflict, samples `clock` instead. A single solve runs for
// seconds, longer than the host's speed holds still, so untraced passes
// sample from inside each solve as well as between them. (Traced passes do
// not: their spans would include the sampling.)
trace::ProgressOptions sampling_progress(RefClock& clock) {
  trace::ProgressOptions options;
  options.banner = false;
  options.interval_seconds = std::numeric_limits<double>::infinity();
  options.clock = [&clock] {
    clock.sample_every(kSampleInterval);
    return clock.now();
  };
  return options;
}

// Collects the solver's trace events in memory; only traced passes attach
// one (fme.calls is read off its kFmeSolve events).
trace::TracerOptions in_memory_tracer() {
  trace::TracerOptions options;
  options.collect_in_memory = true;
  return options;
}

const char* verdict_name(core::SolveStatus status) {
  switch (status) {
    case core::SolveStatus::kSat: return "sat";
    case core::SolveStatus::kUnsat: return "unsat";
    case core::SolveStatus::kTimeout: return "timeout";
    case core::SolveStatus::kCancelled: return "cancelled";
  }
  return "?";
}

// Compares a verdict with the oracle and replays a SAT model through
// Circuit::evaluate; `goal` must evaluate to 1 under the model.
void check_verdict(const Oracle& oracle, const std::string& instance,
                   const std::string& verdict, const ir::Circuit* circuit,
                   ir::NetId goal,
                   const std::unordered_map<ir::NetId, std::int64_t>& model,
                   PassResult* out) {
  ++out->attempted;
  const std::string want = oracle.verdict(instance);
  std::string problem;
  if (want.empty()) {
    problem = "no oracle row";
  } else if (verdict != want) {
    problem = "verdict " + verdict + ", oracle says " + want;
  } else if (verdict == "sat" &&
             (circuit == nullptr || circuit->evaluate(model)[goal] != 1)) {
    problem = "SAT model does not replay";
  }
  if (!problem.empty()) {
    ++out->failed;
    out->failures.push_back(instance + ": " + problem);
  }
}

// The solver's cumulative counters (and time.* phase totals, which the
// self-test ignores) after a solve.
Counters solver_counters(const core::HdpllSolver& solver,
                         const core::PredicateLearningReport& learning) {
  const Stats& stats = solver.stats();
  const Histogram* resolutions =
      stats.find_histogram("hdpll.analyze_resolutions");
  return {
      {"core.decisions", stats.get("hdpll.decisions")},
      {"core.conflicts", stats.get("hdpll.conflicts")},
      {"core.learned_clauses", stats.get("hdpll.learned_clauses")},
      {"core.analyze_resolutions",
       resolutions != nullptr ? resolutions->sum() : 0},
      {"core.restarts", stats.get("hdpll.restarts")},
      {"core.reductions", stats.get("hdpll.reductions")},
      {"core.clauses_deleted", stats.get("hdpll.clauses_deleted")},
      {"core.justify_scans", stats.get("justify.candidates_scanned")},
      {"core.arith_checks", stats.get("hdpll.arith_checks")},
      {"core.arith_conflicts", stats.get("hdpll.arith_conflicts")},
      {"prop.propagations", solver.engine().num_propagations()},
      {"prop.datapath_narrowings", solver.engine().num_datapath_narrowings()},
      {"learn.probes", learning.probes},
      {"learn.relations", learning.relations_learned},
      {"learn.units", learning.units_learned},
      {"time.preprocess_us", stats.get("time.preprocess_us")},
      {"time.predicate_learning_us", stats.get("time.predicate_learning_us")},
      {"time.search_us", stats.get("time.search_us")},
      {"time.arith_check_us", stats.get("time.arith_check_us")},
  };
}

Counters minus(const Counters& a, const Counters& b) {
  Counters out = a;
  for (const auto& [name, value] : b) out[name] -= value;
  return out;
}

// Adds fme.calls / fme.refutes from the kFmeSolve events recorded since the
// previous drain.
void add_fme_events(trace::Tracer& tracer, Counters* counters) {
  std::int64_t calls = 0;
  std::int64_t refutes = 0;
  for (const trace::Event& event : tracer.drain()) {
    if (event.kind != trace::EventKind::kFmeSolve) continue;
    ++calls;
    if (event.b == 0) ++refutes;
  }
  (*counters)["fme.calls"] += calls;
  (*counters)["fme.refutes"] += refutes;
}

// Child spans of one solve call, synthesized from the solver's phase
// timers: preprocess, predicate learning, and search with the FME
// arithmetic check nested inside it.
void add_phase_spans(SpanLog& spans, int solve_span, const std::string& subject,
                     double start_s, const Counters& delta) {
  const auto seconds = [&](const char* key) {
    const auto it = delta.find(key);
    return it == delta.end() ? 0.0 : static_cast<double>(it->second) * 1e-6;
  };
  double t = start_s;
  spans.add("core.preprocess", solve_span, subject, t,
            seconds("time.preprocess_us"));
  t += seconds("time.preprocess_us");
  spans.add("learn.predicate_learning", solve_span, subject, t,
            seconds("time.predicate_learning_us"));
  t += seconds("time.predicate_learning_us");
  const int search =
      spans.add("core.search", solve_span, subject, t, seconds("time.search_us"));
  spans.add("fme.arith_check", search, subject, t,
            seconds("time.arith_check_us"));
}

// Per-layer metrics every solver workload reports: the pass's counter
// totals, their ratios, and (traced passes) the span self times.
void add_solver_layers(const SpanLog& spans, int pass_span,
                       PassResult* out) {
  for (const auto& [key, value] : out->totals) {
    if (key.rfind("time.", 0) == 0) continue;
    out->layer[key] = static_cast<double>(value);
  }
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  auto& l = out->layer;
  l["core.justify_scans_per_decision"] =
      ratio(l["core.justify_scans"], l["core.decisions"]);
  l["learn.relations_per_probe"] =
      ratio(l["learn.relations"], l["learn.probes"]);
  if (!spans.enabled()) return;
  l["fme.refute_ratio"] = ratio(l["fme.refutes"], l["fme.calls"]);
  l.erase("fme.refutes");
  std::map<std::string, double> self = spans.self_seconds(pass_span);
  l["core.search_s"] = self["core.search"];
  l["core.preprocess_s"] = self["core.preprocess"];
  l["learn.s"] = self["learn.predicate_learning"];
  l["fme.s"] = self["fme.arith_check"];
  l["core.construct_s"] = self["core.construct"] + self["bmc.construct"];
  // Solve-call time outside every solver phase: per-call setup such as
  // sync_circuit, assumption planting and result assembly.
  l["core.call_overhead_s"] = self["core.solve"] + self["bmc.solve_bound"];
  l["bmc.grow_s"] = self["bmc.ensure_bound"];
  double covered = 0;
  for (const auto& [name, seconds] : self)
    if (name.rfind("bench.", 0) != 0) covered += seconds;
  l["trace.coverage_ratio"] = ratio(covered, out->wall_s);
}

void add_memory_layers(const core::HdpllSolver& solver, PassResult* out) {
  auto& l = out->layer;
  l["prop.implication_graph_bytes"] =
      std::max(l["prop.implication_graph_bytes"],
               static_cast<double>(solver.engine().implication_graph_bytes()));
  l["prop.interval_store_bytes"] =
      std::max(l["prop.interval_store_bytes"],
               static_cast<double>(solver.engine().interval_store_bytes()));
  l["core.clause_db_bytes"] =
      std::max(l["core.clause_db_bytes"],
               static_cast<double>(solver.clauses().memory_bytes()));
}

// ---------------------------------------------------------------- search,
// learn_fme: a fixed list of one-shot solves, a fresh solver each.

struct SolveJob {
  InstanceSpec spec;
  Config config;
};

class SolverWorkload : public Workload {
 public:
  SolverWorkload(std::vector<SolveJob> jobs, const Oracle& oracle)
      : jobs_(std::move(jobs)), oracle_(oracle) {}

  void setup(SpanLog& spans, int parent) override {
    instances_.clear();
    models_.clear();
    for (const SolveJob& job : jobs_) {
      if (models_.count(job.spec.model) == 0) {
        ScopedSpan span(spans, "itc99.build", parent, job.spec.model);
        models_.emplace(job.spec.model, itc99::build(job.spec.model));
      }
      ScopedSpan span(spans, "bmc.unroll", parent, job.spec.name());
      instances_.push_back(bmc::unroll(models_.at(job.spec.model),
                                       job.spec.property, job.spec.bound));
    }
  }

  PassResult run_pass(SpanLog& spans, int pass_span,
                      RefClock& clock) override {
    PassResult out;
    const bool traced = spans.enabled();
    std::vector<core::SolveResult> results;
    double learn_report_s = 0;
    out.start_s = clock.now();
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      clock.sample_every(kSampleInterval);
      const bmc::BmcInstance& instance = instances_[i];
      const std::string name = jobs_[i].spec.name();
      trace::Tracer tracer(traced ? in_memory_tracer() : trace::TracerOptions{});
      trace::ProgressReporter sampler(sampling_progress(clock));
      const double op_start = clock.now();
      const int construct = spans.open("core.construct", pass_span, name);
      core::HdpllOptions options =
          solver_options(jobs_[i].config, traced ? &tracer : nullptr);
      if (!traced) options.progress = &sampler;
      core::HdpllSolver solver(instance.circuit, options);
      solver.assume_bool(instance.goal, true);
      spans.close(construct);
      const double solve_start = spans.now();
      const int solve = spans.open("core.solve", pass_span, name);
      results.push_back(solver.solve());
      spans.close(solve);
      out.ops.push_back({op_start, clock.now(), 'm'});

      Counters counters = solver_counters(solver, results.back().learning);
      if (traced) {
        add_fme_events(tracer, &counters);
        add_phase_spans(spans, solve, name, solve_start, counters);
      }
      learn_report_s += results.back().learning.seconds;
      add_memory_layers(solver, &out);
      for (const auto& [key, value] : counters) out.totals[key] += value;
      out.rows.emplace_back(name, std::move(counters));
    }
    out.end_s = clock.now();
    out.wall_s = clock.measure(out.start_s, out.end_s).raw_s;

    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      ScopedSpan span(spans, "bench.check", pass_span, jobs_[i].spec.name());
      check_verdict(oracle_, jobs_[i].spec.name(),
                    verdict_name(results[i].status), &instances_[i].circuit,
                    instances_[i].goal, results[i].input_model, &out);
    }
    out.layer["learn.report_s"] = learn_report_s;
    add_solver_layers(spans, pass_span, &out);
    return out;
  }

 private:
  std::vector<SolveJob> jobs_;
  const Oracle& oracle_;
  std::map<std::string, ir::SeqCircuit> models_;
  std::vector<bmc::BmcInstance> instances_;
};

// ------------------------------------------------------------- bmc_sweep:
// one IncrementalBmc, solve_bound(k) for k = 1..max_bound.

class BmcSweepWorkload : public Workload {
 public:
  BmcSweepWorkload(int max_bound, const Oracle& oracle)
      : max_bound_(max_bound), oracle_(oracle) {}

  void setup(SpanLog& spans, int parent) override {
    ScopedSpan span(spans, "itc99.build", parent, "b13");
    seq_ = std::make_unique<ir::SeqCircuit>(itc99::build("b13"));
  }

  PassResult run_pass(SpanLog& spans, int pass_span,
                      RefClock& clock) override {
    PassResult out;
    const bool traced = spans.enabled();
    trace::Tracer tracer(traced ? in_memory_tracer() : trace::TracerOptions{});
    struct Bound {
      std::string name;
      ir::NetId goal;
      core::SolveResult result;
    };
    std::vector<Bound> bounds;
    std::vector<double> frame_solve_ms;
    out.start_s = clock.now();
    const int construct = spans.open("bmc.construct", pass_span, "b13_1");
    bmc::IncrementalBmc bmc(
        *seq_, "1",
        solver_options(Config::kStructuralPred, traced ? &tracer : nullptr));
    spans.close(construct);
    Counters previous = solver_counters(bmc.solver(), {});
    std::int64_t fme_calls = 0;
    std::int64_t fme_refutes = 0;
    for (int k = 1; k <= max_bound_; ++k) {
      clock.sample_every(kSampleInterval);
      const std::string name = bmc.name(k);
      const double op_start = clock.now();
      const int grow = spans.open("bmc.ensure_bound", pass_span, name);
      const ir::NetId goal = bmc.ensure_bound(k);
      spans.close(grow);
      const double solve_start = spans.now();
      Timer solve_timer;
      const int solve = spans.open("bmc.solve_bound", pass_span, name);
      core::SolveResult result = bmc.solve_bound(k);
      spans.close(solve);
      frame_solve_ms.push_back(solve_timer.seconds() * 1e3);
      out.ops.push_back({op_start, clock.now(), 'm'});

      Counters current = solver_counters(bmc.solver(), result.learning);
      if (traced) {
        Counters events;
        add_fme_events(tracer, &events);
        fme_calls += events["fme.calls"];
        fme_refutes += events["fme.refutes"];
        current["fme.calls"] = fme_calls;
        current["fme.refutes"] = fme_refutes;
      }
      Counters delta = minus(current, previous);
      if (traced) add_phase_spans(spans, solve, name, solve_start, delta);
      previous = std::move(current);
      out.rows.emplace_back(name, std::move(delta));
      bounds.push_back({name, goal, std::move(result)});
    }
    out.end_s = clock.now();
    out.wall_s = clock.measure(out.start_s, out.end_s).raw_s;
    // One solver answers every bound, so its final counters are the totals.
    out.totals = std::move(previous);

    for (const Bound& b : bounds) {
      ScopedSpan span(spans, "bench.check", pass_span, b.name);
      check_verdict(oracle_, b.name, verdict_name(b.result.status),
                    &bmc.circuit(), b.goal, b.result.input_model, &out);
    }
    out.layer["learn.report_s"] = bounds.back().result.learning.seconds;
    out.layer["bmc.frames"] = bmc.frames_built();
    out.layer["bmc.frame_solve_p50_ms"] = median(frame_solve_ms);
    out.layer["bmc.frame_solve_max_ms"] =
        *std::max_element(frame_solve_ms.begin(), frame_solve_ms.end());
    add_memory_layers(bmc.solver(), &out);
    add_solver_layers(spans, pass_span, &out);
    return out;
  }

 private:
  int max_bound_;
  const Oracle& oracle_;
  std::unique_ptr<ir::SeqCircuit> seq_;
};

// ----------------------------------------------------------- serve_mixed:
// seeded request traffic against an in-process server.

struct ServeMix {
  std::vector<InstanceSpec> first_touch;  // combinational, distinct cones
  int exact_repeats = 0;                  // per first-touch instance
  int renamed_copies = 0;                 // per first-touch instance
  int bmc_bounds = 0;                     // b13 property 1, k = 1..n
};

ServeMix serve_mix(bool shortened) {
  if (shortened) {
    return {{{"b01", "1", 6}, {"b04", "1", 8}, {"b13", "5", 20},
             {"b13", "1", 30}},
            1, 1, 4};
  }
  // Dealt to the two clients alternately in this order, so each gets one
  // of the two heaviest instances.
  return {{{"b01", "1", 6},
           {"b01", "1", 8},
           {"b01", "1", 10},
           {"b02", "1", 6},
           {"b02", "1", 8},
           {"b02", "1", 10},
           {"b04", "1", 10},
           {"b04", "1", 20},
           {"b13", "5", 30},
           {"b13", "1", 60},
           {"b13", "5", 50},
           {"b13", "1", 100}},
          2, 2, 24};
}

class ServeWorkload : public Workload {
 public:
  static constexpr int kClients = 2;

  ServeWorkload(std::uint64_t seed, bool shortened, const Oracle& oracle)
      : seed_(seed), mix_(serve_mix(shortened)), oracle_(oracle) {}
  ~ServeWorkload() override { stop_server(); }

  void setup(SpanLog& spans, int parent) override {
    stop_server();
    requests_.clear();
    circuits_.clear();
    std::mt19937_64 rng(seed_);
    std::map<std::string, ir::SeqCircuit> models;
    for (const char* model : {"b01", "b02", "b04", "b13"}) {
      ScopedSpan span(spans, "itc99.build", parent, model);
      models.emplace(model, itc99::build(model));
    }
    // Each first touch, followed by its byte-identical repeats (exact tier)
    // and renamed copies (canonical tier).
    std::vector<std::size_t> firsts;
    std::vector<std::size_t> hits;
    for (const InstanceSpec& spec : mix_.first_touch) {
      bmc::BmcInstance instance;
      {
        ScopedSpan span(spans, "bmc.unroll", parent, spec.name());
        instance = bmc::unroll(models.at(spec.model), spec.property, spec.bound);
      }
      // The unroller's display name is not an .rtl token.
      instance.circuit.set_name(spec.model + "_" + spec.property + "_k" +
                                std::to_string(spec.bound));
      Request first;
      first.instance = spec.name();
      first.kind = 'm';
      {
        ScopedSpan span(spans, "parser.write", parent, spec.name());
        first.request.rtl = parser::write_circuit(instance.circuit);
      }
      first.request.goal = instance.circuit.net_name(instance.goal);
      first.circuit = add_circuit(std::move(instance.circuit), first.request.goal);
      firsts.push_back(requests_.size());
      requests_.push_back(first);
      for (int r = 0; r < mix_.exact_repeats; ++r) {
        Request repeat = first;
        repeat.kind = 'e';
        hits.push_back(requests_.size());
        requests_.push_back(std::move(repeat));
      }
      for (int r = 0; r < mix_.renamed_copies; ++r) {
        Request copy = first;
        copy.kind = 'c';
        ir::Circuit renamed;
        {
          ScopedSpan span(spans, "parser.parse", parent, spec.name());
          renamed = parser::parse_circuit(first.request.rtl);
        }
        const std::string prefix = "r" + std::to_string(rng() % 100000) +
                                   "_" + std::to_string(r) + "_";
        renamed.set_name(prefix + renamed.name());
        const std::vector<ir::NetId> inputs = renamed.inputs();
        for (const ir::NetId input : inputs)
          renamed.set_net_name(input, prefix + renamed.net_name(input));
        {
          ScopedSpan span(spans, "parser.write", parent, spec.name());
          copy.request.rtl = parser::write_circuit(renamed);
        }
        copy.circuit = add_circuit(std::move(renamed), copy.request.goal);
        hits.push_back(requests_.size());
        requests_.push_back(std::move(copy));
      }
    }
    std::vector<std::size_t> bmc_requests;
    if (mix_.bmc_bounds > 0) {
      std::string seq_rtl;
      {
        ScopedSpan span(spans, "parser.write", parent, "b13");
        seq_rtl = parser::write_seq_circuit(models.at("b13"));
      }
      for (int k = 1; k <= mix_.bmc_bounds; ++k) {
        Request request;
        request.instance = InstanceSpec{"b13", "1", k}.name();
        request.kind = 'b';
        request.request.seq_rtl = seq_rtl;
        request.request.property = "1";
        request.request.bound = k;
        bmc_requests.push_back(requests_.size());
        requests_.push_back(std::move(request));
      }
    }
    for (Request& request : requests_)
      request.request.budget_seconds = kSolveTimeoutSeconds;

    // Phase one: every first touch. Phase two, once all first touches are
    // answered: the hits, plus the BMC sweep on client 0 in bound order —
    // one connection, so the warm session sees k ascending. Requests are
    // dealt to the clients in a fixed order and the seed shuffles each
    // client's lane of hits, so every seed sends the same work per client.
    // The first touches keep their order, lightest first: which cold solves
    // overlap sets the peak memory, and it should not depend on the seed.
    for (auto& phase : phases_)
      for (auto& lane : phase) lane.clear();
    for (std::size_t i = 0; i < firsts.size(); ++i)
      phases_[0][i % kClients].push_back(firsts[i]);
    for (std::size_t i = 0; i < hits.size(); ++i)
      phases_[1][i % kClients].push_back(hits[i]);
    for (auto& lane : phases_[1]) shuffle(lane, rng);
    std::vector<std::size_t>& lane = phases_[1][0];
    for (const std::size_t b : bmc_requests) {
      const auto at = static_cast<std::ptrdiff_t>(rng() % (lane.size() + 1));
      lane.insert(lane.begin() + at, b);
    }
    for (std::size_t s = 0, j = 0; s < lane.size(); ++s)
      if (requests_[lane[s]].kind == 'b') lane[s] = bmc_requests[j++];
    start_server(spans, parent);
  }

  PassResult run_pass(SpanLog& spans, int pass_span,
                      RefClock& clock) override {
    PassResult out;
    const bool traced = spans.enabled();
    std::vector<Reply> replies(requests_.size());
    out.start_s = clock.now();
    for (const auto& phase : phases_) {
      // Between the phases, while no request is in flight.
      clock.sample_every(kSampleInterval);
      std::vector<std::thread> threads;
      for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          for (const std::size_t i : phase[c]) {
            Reply& reply = replies[i];
            reply.start_s = spans.now();
            reply.clock_start_s = clock.now();
            reply.span =
                spans.open("serve.client_solve", pass_span, subject(i));
            reply.ok = clients_[c]->solve(requests_[i].request, &reply.msg,
                                          &reply.error);
            spans.close(reply.span);
            reply.clock_end_s = clock.now();
            reply.ms = (reply.clock_end_s - reply.clock_start_s) * 1e3;
          }
        });
      }
      for (std::thread& t : threads) t.join();
    }
    out.end_s = clock.now();
    out.wall_s = clock.measure(out.start_s, out.end_s).raw_s;

    std::vector<double> wait_ms;
    std::vector<double> service_ms;
    std::vector<double> miss_solve_ms;
    std::vector<double> parse_ms;
    std::vector<double> canon_ms;
    std::vector<std::pair<double, double>> ms_covered;  // per answered request
    std::int64_t bmc_calls = 0;
    std::int64_t wins_sp = 0;
    std::int64_t wins_bitblast = 0;
    for (std::size_t i = 0; i < requests_.size(); ++i) {
      const Request& request = requests_[i];
      const Reply& reply = replies[i];
      if (traced && reply.ok) {
        const double covered_s =
            add_request_spans(spans, i, reply, &parse_ms, &canon_ms, &out);
        ms_covered.emplace_back(reply.ms, covered_s);
      }
      ScopedSpan span(spans, "bench.check", pass_span, subject(i));
      if (!reply.ok) {
        ++out.attempted;
        ++out.failed;
        out.failures.push_back(subject(i) + ": request error: " + reply.error);
        continue;
      }
      const char kind = request.kind == 'e' || request.kind == 'c'
                            ? 'h'
                            : request.kind;
      out.ops.push_back({reply.clock_start_s, reply.clock_end_s, kind});
      const double service = reply.msg.service_seconds * 1e3;
      service_ms.push_back(service);
      wait_ms.push_back(reply.ms - service);
      if (kind == 'm') {
        miss_solve_ms.push_back(reply.msg.solve_seconds * 1e3);
        wins_sp += reply.msg.winner == "HDPLL+S+P";
        wins_bitblast += reply.msg.winner == "bitblast";
      }
      if (kind == 'b') ++bmc_calls;
      check_reply(request, reply, &out);
    }

    const std::int64_t exact_hits = server_->exact_cache().hits();
    const std::int64_t canonical_hits = server_->cache().hits();
    const std::int64_t misses = server_->cache().misses();
    auto& l = out.layer;
    l["serve.wait_ms_p50"] = median(wait_ms);
    l["serve.service_ms_p50"] = median(service_ms);
    l["serve.miss_solve_ms_p50"] = median(miss_solve_ms);
    l["portfolio.wins.hdpll_sp"] = static_cast<double>(wins_sp);
    l["portfolio.wins.bitblast"] = static_cast<double>(wins_bitblast);
    l["serve.exact_hits"] = static_cast<double>(exact_hits);
    l["serve.canonical_hits"] = static_cast<double>(canonical_hits);
    l["serve.misses"] = static_cast<double>(misses);
    l["serve.bmc_session_calls"] = static_cast<double>(bmc_calls);
    out.totals = {{"serve.exact_hits", exact_hits},
                  {"serve.canonical_hits", canonical_hits},
                  {"serve.misses", misses},
                  {"serve.bmc_session_calls", bmc_calls}};
    out.rows.emplace_back("serve", out.totals);
    if (traced && !ms_covered.empty()) {
      l["parser.parse_ms_p50"] = median(parse_ms);
      l["ir.canonicalize_ms_p50"] = median(canon_ms);
      // Share of the latency of the middle half of the requests, ranked by
      // latency so that they bracket the median, that their layer spans
      // cover. One request's re-run stages are too noisy to use alone. The
      // rest is transport, framing and queueing, which no layer splits.
      std::sort(ms_covered.begin(), ms_covered.end());
      const std::size_t n = ms_covered.size();
      double latency_s = 0;
      double covered_s = 0;
      for (std::size_t j = n / 4; j < n - n / 4; ++j) {
        latency_s += ms_covered[j].first * 1e-3;
        covered_s += ms_covered[j].second;
      }
      l["trace.coverage_ratio"] = covered_s / std::max(latency_s, 1e-9);
    }
    return out;
  }

  void reset() override { stop_server(); }

  // The first pass in a process runs measurably slower (first sockets,
  // first portfolio threads, cold allocator).
  int warmup_passes() const override { return 1; }

 private:
  struct Request {
    serve::SolveRequest request;
    std::string instance;  // oracle row name
    // 'm' first touch, 'e' exact repeat, 'c' renamed copy, 'b' BMC bound.
    char kind = 'm';
    int circuit = -1;  // replay circuit (combinational requests)
  };
  struct Reply {
    bool ok = false;
    serve::ResultMsg msg;
    std::string error;
    double ms = 0;
    double start_s = 0;  // on the span log
    double clock_start_s = 0;  // on the RefClock
    double clock_end_s = 0;
    int span = -1;
  };
  struct ReplayCircuit {
    ir::Circuit circuit;
    ir::NetId goal = ir::kNoNet;
  };

  // Child spans of request i's round trip, laid end to end. The server
  // reports only its service and solve times, so the benchmark re-runs the
  // other stages on the same texts: the request's encode and decode, the
  // circuit parse (outside the server's service time, and skipped on an
  // exact hit), canonicalization (inside it, for first touches and renamed
  // copies) and the reply's encode and decode. parse_ms and canon_ms get
  // every combinational request's re-run times. Returns the seconds the
  // top-level child spans cover.
  double add_request_spans(SpanLog& spans, std::size_t i, const Reply& reply,
                           std::vector<double>* parse_ms,
                           std::vector<double>* canon_ms,
                           PassResult* out) const {
    const Request& request = requests_[i];
    const std::string who = subject(i);
    const bool bmc = request.kind == 'b';
    double t = reply.start_s;
    double covered = 0;
    const auto stage = [&](const char* name, double seconds) {
      spans.add(name, reply.span, who, t, seconds);
      t += seconds;
      covered += seconds;
    };
    serve::Request wire;
    wire.kind = serve::Request::Kind::kSolve;
    wire.solve = request.request;
    Timer encode;
    const std::string json = serve::encode_request(wire);
    stage("protocol.encode_request", encode.seconds());
    serve::Request decoded;
    std::string error;
    Timer decode;
    serve::parse_request(json, &decoded, &error);
    stage("protocol.parse_request", decode.seconds());

    double canon_s = 0;
    if (bmc) {
      Timer parse;
      const ir::SeqCircuit seq =
          parser::parse_seq_circuit(request.request.seq_rtl);
      stage("parser.parse", parse.seconds());
    } else {
      Timer parse;
      const ir::Circuit circuit = parser::parse_circuit(request.request.rtl);
      const double parse_s = parse.seconds();
      parse_ms->push_back(parse_s * 1e3);
      if (request.kind != 'e') stage("parser.parse", parse_s);
      Timer canon;
      const ir::CanonicalCone cone =
          ir::canonical_cone(circuit, circuit.find_net(request.request.goal));
      canon_s = canon.seconds();
      canon_ms->push_back(canon_s * 1e3);
      if (cone.num_nodes == 0) {
        ++out->failed;
        out->failures.push_back(who + ": empty canonical cone");
      }
    }

    const int service = spans.add("serve.service", reply.span, who, t,
                                  reply.msg.service_seconds);
    double inner = t;
    t += reply.msg.service_seconds;
    covered += reply.msg.service_seconds;
    if (request.kind == 'm' || request.kind == 'c') {
      spans.add("ir.canonicalize", service, who, inner, canon_s);
      inner += canon_s;
    }
    if (!reply.msg.cache_hit)
      spans.add("serve.solve", service, who, inner, reply.msg.solve_seconds);

    Timer result_encode;
    const std::string result = serve::encode_result(0, 0, reply.msg);
    stage("protocol.encode_result", result_encode.seconds());
    serve::ServerMsg msg;
    Timer result_decode;
    serve::parse_server_msg(result, &msg, &error);
    stage("protocol.parse_result", result_decode.seconds());
    return covered;
  }

  std::string subject(std::size_t i) const {
    return "req" + std::to_string(i) + ":" + requests_[i].instance;
  }

  int add_circuit(ir::Circuit circuit, const std::string& goal) {
    const ir::NetId goal_net = circuit.find_net(goal);
    circuits_.push_back({std::move(circuit), goal_net});
    return static_cast<int>(circuits_.size()) - 1;
  }

  static void shuffle(std::vector<std::size_t>& v, std::mt19937_64& rng) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[rng() % i]);
  }

  void check_reply(const Request& request, const Reply& reply,
                   PassResult* out) const {
    // BMC replies are checked by verdict only: every bound in the sweep is
    // UNSAT in the oracle, so any SAT answer already fails.
    const ReplayCircuit* replay =
        request.circuit >= 0 ? &circuits_[request.circuit] : nullptr;
    std::unordered_map<ir::NetId, std::int64_t> model;
    if (replay != nullptr) {
      for (const auto& [name, value] : reply.msg.model) {
        const ir::NetId net = replay->circuit.find_net(name);
        if (net != ir::kNoNet) model[net] = value;
      }
    }
    check_verdict(oracle_, request.instance, reply.msg.verdict,
                  replay != nullptr ? &replay->circuit : nullptr,
                  replay != nullptr ? replay->goal : ir::kNoNet, model, out);
  }

  void start_server(SpanLog& spans, int parent) {
    std::string error;
    {
      ScopedSpan span(spans, "serve.start", parent, "server");
      server_ = std::make_unique<serve::Server>(serve::ServerOptions{});
      if (!server_->start(&error)) {
        std::fprintf(stderr, "error: cannot start server: %s\n", error.c_str());
        std::exit(2);
      }
    }
    ScopedSpan span(spans, "serve.connect", parent, "clients");
    for (auto& client : clients_) {
      client = std::make_unique<serve::Client>();
      if (!client->connect("127.0.0.1", server_->port(), &error)) {
        std::fprintf(stderr, "error: cannot connect: %s\n", error.c_str());
        std::exit(2);
      }
    }
  }

  void stop_server() {
    for (auto& client : clients_) client.reset();
    if (server_ != nullptr) {
      server_->drain();
      server_->wait();
      server_.reset();
    }
  }

  std::uint64_t seed_;
  ServeMix mix_;
  const Oracle& oracle_;
  std::vector<Request> requests_;
  std::vector<ReplayCircuit> circuits_;
  // phases_[phase][client]: request indices in send order.
  std::vector<std::size_t> phases_[2][kClients];
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<serve::Client> clients_[kClients];
};

// ----------------------------------------------------------- definitions

std::vector<SolveJob> search_jobs(bool shortened) {
  const int bound = shortened ? 50 : 200;
  return {{{"b13", "5", bound}, Config::kStructural},
          {{"b13", "1", bound}, Config::kHdpll}};
}

std::vector<SolveJob> learn_fme_jobs(bool shortened) {
  if (shortened) {
    return {{{"b13", "3", 100}, Config::kStructuralPred},
            {{"b13", "1", 50}, Config::kStructuralPred},
            {{"b04", "1", 20}, Config::kHdpll}};
  }
  return {{{"b13", "3", 400}, Config::kStructuralPred},
          {{"b13", "1", 100}, Config::kStructuralPred},
          {{"b13", "1", 200}, Config::kStructuralPred},
          {{"b04", "1", 50}, Config::kHdpll}};
}

int bmc_sweep_bounds(bool shortened) { return shortened ? 60 : 400; }

}  // namespace

std::vector<std::string> workload_names() {
  return {"search", "learn_fme", "bmc_sweep", "serve_mixed"};
}

std::unique_ptr<Workload> make_workload(const WorkloadConfig& config,
                                        const Oracle& oracle) {
  if (config.name == "search")
    return std::make_unique<SolverWorkload>(search_jobs(config.shortened),
                                            oracle);
  if (config.name == "learn_fme")
    return std::make_unique<SolverWorkload>(learn_fme_jobs(config.shortened),
                                            oracle);
  if (config.name == "bmc_sweep")
    return std::make_unique<BmcSweepWorkload>(
        bmc_sweep_bounds(config.shortened), oracle);
  if (config.name == "serve_mixed")
    return std::make_unique<ServeWorkload>(config.seed, config.shortened,
                                           oracle);
  return nullptr;
}

std::vector<InstanceSpec> oracle_instances() {
  std::vector<InstanceSpec> out;
  std::set<std::string> seen;
  const auto add = [&](const InstanceSpec& spec) {
    if (seen.insert(spec.name()).second) out.push_back(spec);
  };
  for (const bool shortened : {false, true}) {
    for (const SolveJob& job : search_jobs(shortened)) add(job.spec);
    for (const SolveJob& job : learn_fme_jobs(shortened)) add(job.spec);
    for (const InstanceSpec& spec : serve_mix(shortened).first_touch) add(spec);
  }
  const int bmc_max =
      std::max(bmc_sweep_bounds(false), serve_mix(false).bmc_bounds);
  for (int k = 1; k <= bmc_max; ++k) add({"b13", "1", k});
  return out;
}

}  // namespace rtlbench

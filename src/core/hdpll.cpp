#include "core/hdpll.h"

#include <algorithm>

#include "core/deduce.h"
#include "core/selfcheck.h"
#include "trace/progress.h"
#include "trace/trace.h"
#include "util/log.h"

namespace rtlsat::core {

using ir::NetId;

namespace {
// Luby restart scaling (1 1 2 1 1 2 4 …).
std::int64_t luby_like(std::int64_t i) {
  std::int64_t k = 1;
  while ((std::int64_t{1} << k) - 1 < i + 1) ++k;
  while ((std::int64_t{1} << (k - 1)) - 1 != i) {
    i -= (std::int64_t{1} << (k - 1)) - 1;
    k = 1;
    while ((std::int64_t{1} << k) - 1 < i + 1) ++k;
  }
  return std::int64_t{1} << (k - 1);
}
}  // namespace

HdpllSolver::HdpllSolver(const ir::Circuit& circuit, HdpllOptions options)
    : circuit_(circuit),
      options_(options),
      engine_(circuit),
      db_(circuit),
      heap_(0),
      // &stop_ is stable (member address); its value is filled in by
      // solve() when the timeout is merged in.
      fme_(fme::SolveOptions{.tracer = options.tracer, .stop = &stop_}),
      stop_(options.stop),
      rng_(options.random_seed),
      n_decisions_(stats_.counter("hdpll.decisions")),
      n_conflicts_(stats_.counter("hdpll.conflicts")),
      n_learned_clauses_(stats_.counter("hdpll.learned_clauses")),
      n_learned_literals_(stats_.counter("hdpll.learned_literals")),
      n_minimized_literals_(stats_.counter("hdpll.minimized_literals")),
      n_structural_decisions_(stats_.counter("hdpll.structural_decisions")),
      n_justify_scanned_(stats_.counter("justify.candidates_scanned")),
      n_arith_checks_(stats_.counter("hdpll.arith_checks")),
      n_arith_conflicts_(stats_.counter("hdpll.arith_conflicts")),
      n_clauses_exported_(stats_.counter("hdpll.clauses_exported")),
      n_clauses_imported_(stats_.counter("hdpll.clauses_imported")),
      h_learned_len_(stats_.histogram("hdpll.learned_clause_len")),
      h_backjump_(stats_.histogram("hdpll.backjump_distance")),
      h_resolutions_(stats_.histogram("hdpll.analyze_resolutions")),
      h_interval_width_(stats_.histogram("hdpll.arith_interval_width")),
      tracer_(options.tracer != nullptr ? options.tracer : &trace::global()),
      progress_(options.progress) {
  engine_.set_tracer(tracer_);
  engine_.set_stop(&stop_);
  if (options_.structural_decisions)
    justifier_ = std::make_unique<Justifier>(engine_);
  sync_circuit();  // seeds the per-net tables from zero nets
}

void HdpllSolver::assume(NetId net, const Interval& interval) {
  RTLSAT_ASSERT(!interval.is_empty());
  assumptions_.push_back({net, interval});
}

bool HdpllSolver::apply_assumptions() {
  for (const auto& [net, interval] : assumptions_) {
    if (!engine_.narrow(net, interval, prop::ReasonKind::kAssumption))
      return false;
  }
  return deduce(engine_, db_, &clause_cursor_);
}

bool HdpllSolver::pick_phase(NetId net) {
  if (options_.random_decisions) return rng_.flip();
  if (options_.predicate_learning && options_.structural_decisions) {
    // §4.4: prefer the value satisfying more learned relations. The paper
    // ties this value choice to the structural strategy ("if we have a
    // choice of values on a predicate signal, like a select to a mux");
    // applied to plain activity decisions it biases the search towards
    // satisfying learned clauses, which *delays* refutations.
    const int w1 = relation_satisfaction(db_, net, true);
    const int w0 = relation_satisfaction(db_, net, false);
    if (w1 != w0) return w1 > w0;
  }
  return phase_[net];
}

std::optional<HdpllSolver::Decision> HdpllSolver::pick_decision() {
  if (options_.structural_decisions) {
    if (tracer_->verbose()) {
      tracer_->record(trace::EventKind::kJustifyFrontier, engine_.level(),
                      static_cast<std::int64_t>(
                          justifier_->frontier_size(engine_)));
    }
    if (auto jd = justifier_->pick(engine_,
                                   options_.predicate_learning ? &db_ : nullptr,
                                   &n_justify_scanned_)) {
      ++n_structural_decisions_;
      tracer_->record(trace::EventKind::kStructuralDecision, engine_.level(),
                      jd->net, jd->value ? 1 : 0);
      return Decision{jd->net, jd->value};
    }
  }
  if (options_.random_decisions) {
    // Reservoir-sample a free Boolean net (randomized ablation).
    NetId chosen = ir::kNoNet;
    std::uint64_t seen = 0;
    for (NetId id = 0; id < circuit_.num_nets(); ++id) {
      if (!circuit_.is_bool(id) || engine_.bool_value(id) >= 0) continue;
      if (circuit_.node(id).op == ir::Op::kConst) continue;
      ++seen;
      if (rng_.below(seen) == 0) chosen = id;
    }
    if (chosen == ir::kNoNet) return std::nullopt;
    return Decision{chosen, pick_phase(chosen)};
  }
  while (!heap_.empty()) {
    const NetId net = heap_.pop();
    if (engine_.bool_value(net) >= 0) continue;  // stale entry
    return Decision{net, pick_phase(net)};
  }
  return std::nullopt;
}

void HdpllSolver::backtrack_to(std::uint32_t level) {
  // Save phases and refill the decision heap for the undone assignments.
  const auto& trail = engine_.trail();
  for (std::size_t i = trail.size(); i > 0; --i) {
    const prop::Event& ev = trail[i - 1];
    if (ev.level <= level) break;
    if (engine_.ops().is_bool(ev.net) && ev.cur.is_point()) {
      phase_[ev.net] = ev.cur.lo() == 1;
      heap_.insert(ev.net);
    }
  }
  engine_.backtrack_to_level(level);
  decision_stack_.resize(level);
}

void HdpllSolver::on_clause_learned(const HybridClause& clause) {
  for (const HybridLit& l : clause.lits) {
    heap_.bump(l.net, activity_bump_);
  }
  activity_bump_ /= options_.activity_decay;
  if (activity_bump_ > 1e100) {
    // ActivityHeap::bump rescales stored activities; rescale our increment
    // in lockstep.
    activity_bump_ = 1.0;
  }
}

void HdpllSolver::progress_tick(bool final) {
  if (progress_ == nullptr || (!final && !progress_->due())) return;
  trace::ProgressSnapshot s;
  s.conflicts = n_conflicts_;
  s.decisions = n_decisions_;
  s.propagations = engine_.num_propagations();
  s.learnt = static_cast<std::int64_t>(db_.learnt_count());
  s.restarts = restart_count_;
  s.trail = static_cast<std::int64_t>(engine_.trail().size());
  s.level = engine_.level();
  s.clauses_exported = n_clauses_exported_;
  s.clauses_imported = n_clauses_imported_;
  s.clause_db_bytes = db_.memory_bytes();
  s.implication_graph_bytes = engine_.implication_graph_bytes();
  s.interval_store_bytes = engine_.interval_store_bytes();
  if (final) {
    progress_->finish(s);
  } else {
    progress_->report(s);
  }
}

SolveStatus HdpllSolver::stopped_status() const {
  // An explicit cancel wins over a simultaneously expired deadline: the
  // caller that fired the token wants kCancelled for its latency books.
  return stop_.cancelled() ? SolveStatus::kCancelled : SolveStatus::kTimeout;
}

void HdpllSolver::export_clauses(std::size_t first) {
  if (options_.exchange == nullptr) return;
  for (std::size_t id = first; id < db_.size(); ++id) {
    if (options_.exchange->offer(
            db_.clause(static_cast<std::uint32_t>(id)).to_clause()))
      ++n_clauses_exported_;
  }
}

void HdpllSolver::import_shared_clauses() {
  if (options_.exchange == nullptr) return;
  RTLSAT_ASSERT(engine_.level() == 0);
  std::vector<HybridClause> incoming;
  options_.exchange->collect(&incoming);
  for (HybridClause& c : incoming) {
    c.learnt = true;
    c.origin = HybridClause::Origin::kShared;
    // add() defers the clause's first examination to the next deduce(),
    // which the search loop runs before deciding — so a unit or falsified
    // import takes effect immediately and the watch invariants hold.
    const int exporter = c.shared_from;
    const std::int64_t seq = c.shared_seq;
    const std::uint32_t id = db_.add(std::move(c));
    if (proof_log_ != nullptr) {
      proof_log_->log_import(id, exporter, seq, db_.clause(id).lits);
    }
    if (exporter >= 0) {
      stats_.add("hdpll.imported_from." + std::to_string(exporter), 1);
    }
    ++n_clauses_imported_;
  }
}

bool HdpllSolver::handle_conflict() {
  ++n_conflicts_;
  tracer_->record(trace::EventKind::kConflict, engine_.level());
  progress_tick(/*final=*/false);
  if (engine_.level() == 0) {
    if (proof_log_ != nullptr) proof_log_->log_conflict0();
    root_unsat_ = true;
    return false;
  }
  if (engine_.level() <= assumption_levels()) {
    // The conflict is at (or below) a per-call assumption level: it refutes
    // the assumption set, not the instance — report per-call kUnsat and
    // learn nothing. Learning here would be unsound: analysis would expand
    // the current level's assumption event (an antecedent-free pseudo-
    // decision) instead of emitting its negation as a literal, producing a
    // clause that over-claims once the assumption is retracted.
    return false;
  }

  if (!options_.conflict_learning) {
    // Chronological DPLL: flip the deepest unflipped decision. Assumption
    // pseudo-decisions are never flipped — the search exhausting every real
    // decision under the assumptions refutes the assumption set.
    while (!decision_stack_.empty() && decision_stack_.back().flipped) {
      backtrack_to(static_cast<std::uint32_t>(decision_stack_.size() - 1));
    }
    if (decision_stack_.empty()) {
      root_unsat_ = true;
      return false;
    }
    if (decision_stack_.back().is_assumption) return false;
    LevelInfo info = decision_stack_.back();
    backtrack_to(static_cast<std::uint32_t>(decision_stack_.size() - 1));
    engine_.push_level();
    decision_stack_.push_back(
        {.net = info.net, .value = !info.value, .flipped = true});
    const bool ok =
        engine_.narrow(info.net, Interval::point(info.value ? 0 : 1),
                       prop::ReasonKind::kDecision);
    if (!ok) return handle_conflict();
    return true;
  }

  const AnalysisResult analysis = analyzer_.analyze(engine_, options_.analyze);
  // Stage the certificate replay now: the premise events and the engine's
  // conflict record do not survive the backtrack below.
  if (proof_log_ != nullptr) proof_log_->capture_learn(analysis);
  if (analysis.empty_clause) {
    if (proof_log_ != nullptr) proof_log_->commit_learn(-1);
    root_unsat_ = true;
    return false;
  }
  const auto clause_len =
      static_cast<std::int64_t>(analysis.clause.lits.size());
  ++n_learned_clauses_;
  n_learned_literals_ += clause_len;
  n_minimized_literals_ += analysis.minimized;
  h_learned_len_.add(clause_len);
  h_backjump_.add(engine_.level() - analysis.backtrack_level);
  h_resolutions_.add(analysis.resolutions);
  tracer_->record(trace::EventKind::kAnalyze, engine_.level(),
                  analysis.resolutions, clause_len);
  tracer_->record(trace::EventKind::kLearnedClause, engine_.level(),
                  clause_len, analysis.backtrack_level);
  tracer_->record(trace::EventKind::kBacktrack, engine_.level(),
                  engine_.level(), analysis.backtrack_level);
  backtrack_to(analysis.backtrack_level);
  if (options_.self_check) {
    selfcheck::enforce(
        selfcheck::check_asserting_clause(analysis.clause, engine_),
        "hdpll learned clause");
    if (--selfcheck_countdown_ <= 0) {
      selfcheck_countdown_ = options_.self_check_interval;
      stats_.add("hdpll.self_checks", 1);
      selfcheck::enforce(selfcheck::check_engine(engine_),
                         "hdpll implication graph");
      selfcheck::enforce(selfcheck::check_clause_db(db_, engine_),
                         "hdpll clause database");
    }
  }
  on_clause_learned(analysis.clause);
  db_.add(analysis.clause);  // asserts via clause propagation in deduce()
  if (proof_log_ != nullptr) {
    proof_log_->commit_learn(static_cast<std::int64_t>(db_.size() - 1));
  }
  export_clauses(db_.size() - 1);
  db_.decay_clause_activity(options_.clause_activity_decay);

  // Periodic learnt-database housekeeping.
  if (options_.clause_reduction && db_.learnt_count() > reduction_budget_) {
    stats_.add("hdpll.reductions", 1);
    stats_.add("hdpll.clauses_deleted",
               static_cast<std::int64_t>(db_.reduce(engine_)));
    if (proof_log_ != nullptr) proof_log_->log_deletions(db_);
    reduction_budget_ = static_cast<std::size_t>(
        static_cast<double>(reduction_budget_) * options_.reduction_grow);
  }
  if (options_.restart_interval > 0 && --conflicts_until_restart_ <= 0) {
    stats_.add("hdpll.restarts", 1);
    ++restart_count_;
    conflicts_until_restart_ =
        options_.restart_interval * luby_like(restart_count_);
    tracer_->record(trace::EventKind::kRestart, engine_.level(),
                    restart_count_);
    backtrack_to(0);
    // Restart boundary = the trail is empty; the only safe and — in the
    // portfolio's deterministic mode — the only *predictable* point to
    // splice in peers' clauses.
    import_shared_clauses();
  }
  return true;
}

SolveResult HdpllSolver::finish_sat(const ArithCheckResult& arith) {
  SolveResult result;
  result.status = SolveStatus::kSat;
  for (NetId input : circuit_.inputs())
    result.input_model.emplace(input, arith.values[input]);
  if (options_.verify_models) {
    const auto values = circuit_.evaluate(result.input_model);
    for (const auto& [net, interval] : assumptions_) {
      RTLSAT_ASSERT_MSG(interval.contains(values[net]),
                        "model verification failed: assumption violated");
    }
    for (const auto& [net, interval] : call_assumptions_) {
      RTLSAT_ASSERT_MSG(
          interval.contains(values[net]),
          "model verification failed: per-call assumption violated");
    }
  }
  if (options_.self_check) {
    stats_.add("hdpll.self_checks", 1);
    selfcheck::enforce(selfcheck::check_engine(engine_),
                       "hdpll SAT implication graph");
    selfcheck::enforce(selfcheck::check_clause_db(db_, engine_),
                       "hdpll SAT clause database");
    selfcheck::enforce(
        selfcheck::check_interval_soundness(engine_, result.input_model),
        "hdpll SAT interval soundness");
  }
  return result;
}

SolveResult HdpllSolver::solve() { return solve({}); }

void HdpllSolver::sync_circuit() {
  // Lazy cleanup of the previous call's branch state first; growth is only
  // legal at root level. (Guarded like solve_impl's: a no-op backtrack
  // would still discard the engine's pending propagation queue.)
  if (engine_.level() > 0 || engine_.in_conflict()) backtrack_to(0);
  const auto old_nets = static_cast<NetId>(phase_.size());
  if (old_nets == circuit_.num_nets()) return;
  engine_.sync_circuit();
  db_.sync_circuit(circuit_);
  heap_.grow(circuit_.num_nets());
  phase_.resize(circuit_.num_nets(), false);
  // Seed the appended Boolean nets' activities with their fanout counts
  // (§2.4). Old nets may have gained readers, but re-seeding them would
  // erase learned bumps — skip them.
  for (NetId id = old_nets; id < circuit_.num_nets(); ++id) {
    if (!circuit_.is_bool(id)) continue;
    if (circuit_.node(id).op == ir::Op::kConst) continue;
    heap_.set_activity(id, static_cast<double>(engine_.readers(id).size()));
    heap_.insert(id);
  }
  if (justifier_ != nullptr) justifier_->extend(engine_);
  if (options_.self_check) {
    selfcheck::enforce(selfcheck::check_growth(engine_, justifier_.get()),
                       "hdpll circuit growth");
  }
}

SolveResult HdpllSolver::solve(
    const std::vector<std::pair<ir::NetId, Interval>>& assumptions) {
  for ([[maybe_unused]] const auto& [net, interval] : assumptions)
    RTLSAT_ASSERT(!interval.is_empty());
  call_assumptions_ = assumptions;
  const Timer timer;
  SolveResult result = solve_impl();
  result.seconds = timer.seconds();
  // The engine's counters are cumulative over calls, like stats_.
  stats_.counter("prop.propagations") = engine_.num_propagations();
  stats_.counter("prop.skipped_wakeups") = engine_.num_skipped_wakeups();
  if (proof_log_ != nullptr) {
    switch (result.status) {
      case SolveStatus::kSat: proof_log_->finish("sat"); break;
      case SolveStatus::kUnsat: proof_log_->finish("unsat"); break;
      case SolveStatus::kTimeout: proof_log_->finish("timeout"); break;
      case SolveStatus::kCancelled: proof_log_->finish("cancelled"); break;
    }
    stats_.add("proof.records", options_.proof->records());
    stats_.add("proof.bytes", options_.proof->bytes());
    stats_.add("proof.fme_certify_failures",
               proof_log_->fme_certify_failures());
  }
  // Publish the tail of the export batch — without this a worker that
  // never restarts would strand its last few clauses in the endpoint.
  if (options_.exchange != nullptr) options_.exchange->flush();
  progress_tick(/*final=*/true);
  tracer_->flush();
  return result;
}

std::vector<std::string> HdpllSolver::crosscheck_model(
    const std::unordered_map<NetId, std::int64_t>& input_model) {
  // Level 0 holds only assumption-forced facts, valid on every branch —
  // the correct frame to judge a peer's model against. (A cancelled loser
  // parks mid-branch; its branch-local intervals may legitimately exclude
  // the model.)
  backtrack_to(0);
  std::vector<std::string> violations;
  const auto values = circuit_.evaluate(input_model);
  for (const auto& [net, interval] : assumptions_) {
    if (!interval.contains(values[net])) {
      violations.push_back("crosscheck: assumption on net " +
                           std::to_string(net) + " violated by peer model");
    }
  }
  for (const std::string& v :
       selfcheck::check_interval_soundness(engine_, input_model)) {
    violations.push_back("crosscheck: " + v);
  }
  return violations;
}

SolveResult HdpllSolver::solve_impl() {
  // One token carries both the external cancel flag and the solver's own
  // deadline; the engine and FME hold &stop_, so this assignment arms them
  // too. (The old code polled a Deadline only between conflicts — a long
  // propagation or FME call could overshoot the timeout by seconds.)
  stop_ = options_.stop.with_deadline(options_.timeout_seconds);
  SolveResult result;
  result.learning = learning_report_;
  if (root_unsat_) {
    // The instance itself was refuted on an earlier call; no assumption
    // set can revive it.
    result.status = SolveStatus::kUnsat;
    return result;
  }
  // Lazily retract the previous call's branch (a kSat return parks at the
  // satisfying leaf so the caller could have inspected it; a per-call
  // kUnsat return parks at the conflict). Guarded: an unconditional
  // backtrack would discard the engine's seeded propagation queue on the
  // first call, losing initial bounds consistency.
  if (engine_.level() > 0 || engine_.in_conflict()) backtrack_to(0);
  if (!clean_exit_) {
    // The previous call exited on a fired token mid-propagation; the
    // engine's queue was discarded, so bounds consistency cannot be
    // trusted. Re-seed every node — the next deduce() restores the
    // fixpoint.
    engine_.enqueue_all_nodes();
    clean_exit_ = true;
  }
  // First call only: later calls continue the grown schedule.
  if (reduction_budget_ == 0) reduction_budget_ = options_.reduction_base;
  selfcheck_countdown_ = options_.self_check_interval;
  conflicts_until_restart_ = options_.restart_interval;

  // Chronological mode is not certified: its flip "derivations" have no
  // clausal justification, so the logger only arms with conflict learning.
  // A repeat call (or one with retractable assumptions) is not certified
  // either: its derivations cite clauses the certificate cannot re-derive.
  proof_log_.reset();
  if (!call_assumptions_.empty()) proof_disarmed_ = true;
  if (options_.proof != nullptr && options_.conflict_learning &&
      !proof_disarmed_) {
    proof_log_ = std::make_unique<WordProofLogger>(engine_, options_.proof);
    proof_log_->begin(assumptions_);
    // The learn records replay the interior of the analysis cut; premise
    // recording is off by default to keep analysis allocation-lean.
    options_.analyze.record_premises = true;
    proof_disarmed_ = true;  // one certificate stream per solver
  }

  {
    trace::ScopedPhase phase(tracer_, &stats_, "preprocess");
    if (!apply_assumptions()) {
      if (proof_log_ != nullptr) proof_log_->log_conflict0();
      root_unsat_ = true;  // persistent assumptions, level-0 conflict
      result.status = SolveStatus::kUnsat;
      return result;
    }
  }

  if (options_.predicate_learning && !predicates_learned_) {
    trace::ScopedPhase phase(tracer_, &stats_, "predicate_learning");
    PredicateLearningOptions learn_options = options_.learning;
    if (learn_options.tracer == nullptr) learn_options.tracer = tracer_;
    if (learn_options.stop == nullptr) learn_options.stop = &stop_;
    learn_options.proof = proof_log_.get();
    const std::size_t first_learned = db_.size();
    result.learning = run_predicate_learning(engine_, db_, &clause_cursor_,
                                             learn_options);
    // Run once: §3 relations are consequences of the formula alone, live in
    // the clause database, and persist across calls. The report is kept so
    // every later call's result can replay it.
    predicates_learned_ = true;
    learning_report_ = result.learning;
    if (result.learning.proven_unsat) {
      root_unsat_ = true;
      result.status = SolveStatus::kUnsat;
      return result;
    }
    // §3 relations are consequences of the formula alone — share them all.
    export_clauses(first_learned);
    if (stop_.stop_requested()) {
      clean_exit_ = false;
      result.status = stopped_status();
      return result;
    }
    // §3 step 5: bias decisions towards nets in learned relations.
    for (NetId id = 0; id < circuit_.num_nets(); ++id) {
      if (circuit_.is_bool(id) && db_.net_weight(id) > 0) {
        heap_.bump(id, options_.learned_weight_bonus * db_.net_weight(id));
      }
    }
  }

  // Adopt whatever peers have already published before the first decision —
  // without this a worker that never restarts (easy instances, or a late
  // deterministic-mode slot) would not import at all.
  import_shared_clauses();

  trace::ScopedPhase search_phase(tracer_, &stats_, "search");
  while (true) {
    if (!deduce(engine_, db_, &clause_cursor_)) {
      if (!handle_conflict()) {
        result.status = SolveStatus::kUnsat;
        return result;
      }
      continue;
    }

    // Full poll (flag + clock) every decision step. This must run before
    // pick_decision(): a deduce() that the engine cut short on a fired
    // token returns true *without* reaching a fixpoint, and only this
    // check keeps the incomplete propagation from feeding a decision or
    // an arith_check. Unarmed tokens make both reads trivially cheap.
    if (stop_.stop_requested()) {
      clean_exit_ = false;
      result.status = stopped_status();
      return result;
    }

    // Plant the next pending per-call assumption as a pseudo-decision:
    // level i+1 asserts call_assumptions_[i], so every assumption sits
    // strictly below every real decision (re-established after backjumps
    // and restarts carry the search below level m). A level is pushed even
    // when the assumption is already entailed — a dummy level, marked
    // has_event = false — so the level↔assumption correspondence stays
    // exact for handle_conflict's soundness test and the FME cut.
    if (engine_.level() < assumption_levels()) {
      const auto& [net, interval] = call_assumptions_[engine_.level()];
      engine_.push_level();
      LevelInfo info;
      info.net = net;
      info.is_assumption = true;
      info.interval = interval;
      tracer_->record(trace::EventKind::kDecision, engine_.level(), net, 2);
      if (!engine_.narrow(net, interval, prop::ReasonKind::kAssumption)) {
        decision_stack_.push_back(info);
        if (!handle_conflict()) {
          result.status = SolveStatus::kUnsat;
          return result;
        }
        continue;
      }
      const std::int32_t ev = engine_.latest_event(net);
      info.has_event =
          ev >= 0 &&
          engine_.trail()[static_cast<std::size_t>(ev)].level ==
              engine_.level();
      decision_stack_.push_back(info);
      continue;  // deduce to a fixpoint before the next assumption
    }

    const auto decision = pick_decision();
    if (!decision) {
      // Decide() == done: every Boolean net assigned, box bounds
      // consistent — ask FME for a point solution (§2.4).
      RTLSAT_DASSERT(engine_.all_booleans_assigned());
      ++n_arith_checks_;
      if (tracer_->enabled()) {
        // Interval widths of the word-level solution box handed to FME —
        // only worth the O(nets) sweep when someone is watching.
        for (NetId id = 0; id < circuit_.num_nets(); ++id) {
          if (circuit_.is_bool(id)) continue;
          h_interval_width_.add(
              static_cast<std::int64_t>(engine_.interval(id).count()));
        }
      }
      ArithCheckResult arith;
      ArithCertCapture arith_capture;
      {
        trace::ScopedPhase arith_phase(tracer_, &stats_, "arith_check");
        arith = arith_check(engine_, fme_,
                            proof_log_ != nullptr ? &arith_capture : nullptr);
      }
      if (arith.stopped) {
        // FME abandoned the check on a fired token — neither a model nor a
        // refutation; learning a decision cut here would be unsound.
        clean_exit_ = false;
        result.status = stopped_status();
        return result;
      }
      tracer_->record(trace::EventKind::kArithCheck, engine_.level(),
                      arith.sat ? 1 : 0);
      if (arith.sat) {
        const PredicateLearningReport learning = result.learning;
        result = finish_sat(arith);
        result.learning = learning;
        return result;
      }
      ++n_arith_conflicts_;
      if (engine_.level() == 0) {
        if (proof_log_ != nullptr) proof_log_->log_fme0(arith_capture);
        root_unsat_ = true;
        result.status = SolveStatus::kUnsat;
        return result;
      }
      if (engine_.level() <= assumption_levels()) {
        // Every level on the trail is an assumption pseudo-decision (all
        // real decisions were entailed), so the refutation condemns the
        // assumption set — report per-call kUnsat without learning. If no
        // assumption actually narrowed anything (all dummy levels), the
        // refuted box is the level-0 box and the instance itself is UNSAT.
        bool any_event = false;
        for (const LevelInfo& info : decision_stack_)
          any_event = any_event || info.has_event;
        if (!any_event) root_unsat_ = true;
        result.status = SolveStatus::kUnsat;
        return result;
      }
      if (options_.conflict_learning) {
        // Learn the decision cut: ¬(d₁ ∧ … ∧ d_k). The asserting literal
        // is the deepest decision's negation. Assumption levels join the
        // cut as their interval's negation — the clause must stay valid
        // after the assumptions are retracted; dummy levels asserted
        // nothing and contribute nothing.
        HybridClause cut;
        cut.learnt = true;
        cut.origin = HybridClause::Origin::kConflict;
        for (auto it = decision_stack_.rbegin(); it != decision_stack_.rend();
             ++it) {
          if (it->is_assumption) {
            if (!it->has_event) continue;
            if (circuit_.is_bool(it->net) && it->interval.is_point()) {
              cut.lits.push_back(
                  HybridLit::boolean(it->net, it->interval.lo() == 0));
            } else {
              cut.lits.push_back(HybridLit::word_not_in(it->net, it->interval));
            }
            continue;
          }
          cut.lits.push_back(HybridLit::boolean(it->net, !it->value));
        }
        // The cut record replays the decision levels; the trail is gone
        // after the backtrack, so stage it (and the FME refutation) now.
        if (proof_log_ != nullptr) proof_log_->capture_cut(arith_capture);
        backtrack_to(engine_.level() - 1);
        on_clause_learned(cut);
        const std::uint32_t cut_id = db_.add(std::move(cut));
        if (proof_log_ != nullptr) {
          proof_log_->commit_cut(cut_id, db_.clause(cut_id).lits);
        }
      } else {
        // Reuse the chronological flip path (it does not consult the
        // engine's conflict record).
        if (!handle_conflict()) {
          result.status = SolveStatus::kUnsat;
          return result;
        }
      }
      continue;
    }

    ++n_decisions_;
    engine_.push_level();
    tracer_->record(trace::EventKind::kDecision, engine_.level(),
                    decision->net, decision->value ? 1 : 0);
    decision_stack_.push_back({.net = decision->net, .value = decision->value});
    if (!engine_.narrow(decision->net,
                        Interval::point(decision->value ? 1 : 0),
                        prop::ReasonKind::kDecision)) {
      if (!handle_conflict()) {
        result.status = SolveStatus::kUnsat;
        return result;
      }
    }
  }
}

}  // namespace rtlsat::core

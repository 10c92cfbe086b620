#include "sat/solver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "proof/drat.h"
#include "trace/progress.h"
#include "trace/trace.h"
#include "util/assert.h"
#include "util/strings.h"

namespace rtlsat::sat {

namespace {

// DRAT speaks signed DIMACS: variable v becomes v+1, negation a sign.
std::vector<int> to_dimacs(const std::vector<Lit>& lits) {
  std::vector<int> out;
  out.reserve(lits.size());
  for (const Lit l : lits) {
    const int var = static_cast<int>(l.var()) + 1;
    out.push_back(l.positive() ? var : -var);
  }
  return out;
}

}  // namespace

Solver::Solver(SolverOptions options)
    : options_(options),
      n_propagations_(stats_.counter("sat.propagations")),
      n_conflicts_(stats_.counter("sat.conflicts")),
      n_decisions_(stats_.counter("sat.decisions")),
      n_restarts_(stats_.counter("sat.restarts")),
      h_learned_len_(stats_.histogram("sat.learned_clause_len")),
      h_backjump_(stats_.histogram("sat.backjump_distance")),
      tracer_(options.tracer != nullptr ? options.tracer : &trace::global()),
      progress_(options.progress) {
  drat_ = options.drat;
}

Var Solver::new_var() {
  const Var v = static_cast<Var>(activity_.size());
  activity_.push_back(0.0);
  assigns_.push_back(Value::kUnassigned);
  phase_.push_back(false);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  watches_.emplace_back();
  watches_.emplace_back();
  seen_.push_back(false);
  heap_pos_.push_back(-1);
  heap_insert(v);
  return v;
}

void Solver::add_clause(std::vector<Lit> lits) {
  if (!ok_) return;
  // Log the clause as handed in, before simplification — the checker's
  // unit propagation re-derives anything the simplifier concluded.
  if (drat_ != nullptr) drat_->original(to_dimacs(lits));
  // Simplify: drop duplicate literals and false-at-root literals; detect
  // tautologies and root-satisfied clauses.
  std::sort(lits.begin(), lits.end(),
            [](Lit a, Lit b) { return a.code() < b.code(); });
  std::vector<Lit> kept;
  for (std::size_t i = 0; i < lits.size(); ++i) {
    if (i + 1 < lits.size() && lits[i + 1] == ~lits[i]) return;  // tautology
    if (i > 0 && lits[i] == lits[i - 1]) continue;
    if (value(lits[i]) == Value::kTrue && level_[lits[i].var()] == 0) return;
    if (value(lits[i]) == Value::kFalse && level_[lits[i].var()] == 0)
      continue;
    kept.push_back(lits[i]);
  }
  if (kept.empty()) {
    ok_ = false;
    if (drat_ != nullptr) drat_->empty_clause();
    return;
  }
  if (kept.size() == 1) {
    if (value(kept[0]) == Value::kFalse) {
      ok_ = false;
      if (drat_ != nullptr) drat_->empty_clause();
      return;
    }
    if (value(kept[0]) == Value::kUnassigned) {
      enqueue(kept[0], kNoReason);
      if (propagate() != kNoReason) {
        ok_ = false;
        if (drat_ != nullptr) drat_->empty_clause();
      }
    }
    return;
  }
  Clause c;
  c.lits = std::move(kept);
  clauses_.push_back(std::move(c));
  lits_heap_bytes_ += static_cast<std::int64_t>(
      clauses_.back().lits.capacity() * sizeof(Lit));
  attach(static_cast<ClauseRef>(clauses_.size() - 1));
}

void Solver::attach(ClauseRef cr) {
  const Clause& c = clauses_[cr];
  watches_[(~c.lits[0]).code()].push_back(cr);
  watches_[(~c.lits[1]).code()].push_back(cr);
}

void Solver::enqueue(Lit l, ClauseRef reason) {
  RTLSAT_DASSERT(value(l) == Value::kUnassigned);
  assigns_[l.var()] = l.positive() ? Value::kTrue : Value::kFalse;
  phase_[l.var()] = l.positive();
  level_[l.var()] = static_cast<int>(trail_lim_.size());
  reason_[l.var()] = reason;
  trail_.push_back(l);
}

Solver::ClauseRef Solver::propagate() {
  while (qhead_ < trail_.size()) {
    const Lit p = trail_[qhead_++];
    ++n_propagations_;
    auto& watch_list = watches_[p.code()];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < watch_list.size(); ++i) {
      const ClauseRef cr = watch_list[i];
      Clause& c = clauses_[cr];
      if (c.deleted) continue;  // lazily dropped from the watch list
      // Ensure the falsified watch is lits[1].
      const Lit false_lit = ~p;
      if (c.lits[0] == false_lit) std::swap(c.lits[0], c.lits[1]);
      RTLSAT_DASSERT(c.lits[1] == false_lit);
      if (value(c.lits[0]) == Value::kTrue) {
        watch_list[keep++] = cr;  // clause satisfied; keep watching
        continue;
      }
      // Look for a new literal to watch.
      bool moved = false;
      for (std::size_t k = 2; k < c.lits.size(); ++k) {
        if (value(c.lits[k]) != Value::kFalse) {
          std::swap(c.lits[1], c.lits[k]);
          watches_[(~c.lits[1]).code()].push_back(cr);
          moved = true;
          break;
        }
      }
      if (moved) continue;
      // Unit or conflicting.
      watch_list[keep++] = cr;
      if (value(c.lits[0]) == Value::kFalse) {
        // Conflict: keep the remaining watches, reset queue.
        for (std::size_t j = i + 1; j < watch_list.size(); ++j)
          watch_list[keep++] = watch_list[j];
        watch_list.resize(keep);
        qhead_ = trail_.size();
        return cr;
      }
      enqueue(c.lits[0], cr);
    }
    watch_list.resize(keep);
  }
  return kNoReason;
}

void Solver::analyze(ClauseRef conflict, std::vector<Lit>& learnt,
                     int& bt_level) {
  learnt.clear();
  learnt.push_back(Lit());  // slot for the asserting literal
  int counter = 0;
  Lit p;
  bool p_valid = false;
  std::size_t index = trail_.size();
  ClauseRef reason = conflict;
  const int current = static_cast<int>(trail_lim_.size());

  do {
    RTLSAT_ASSERT(reason != kNoReason);
    Clause& c = clauses_[reason];
    // A reduced-away clause must never resurface as an antecedent; if it
    // does, the DB-reduction deletion hook lied to the proof log.
    RTLSAT_DASSERT(!c.deleted);
    if (c.learnt) bump_clause(reason);
    // lits[0] of a reason clause is the literal it implied (= p), which is
    // already resolved away; the conflict clause scans from 0.
    for (std::size_t k = p_valid ? 1 : 0; k < c.lits.size(); ++k) {
      const Lit q = c.lits[k];
      const Var v = q.var();
      if (seen_[v] || level_[v] == 0) continue;
      seen_[v] = true;
      bump_var(v);
      if (level_[v] >= current) {
        ++counter;
      } else {
        learnt.push_back(q);
      }
    }
    // Walk the trail back to the next marked literal.
    while (!seen_[trail_[index - 1].var()]) --index;
    p = trail_[--index];
    p_valid = true;
    seen_[p.var()] = false;
    reason = reason_[p.var()];
    --counter;
  } while (counter > 0);
  learnt[0] = ~p;

  // Recursive clause minimization: drop literals implied by the rest.
  // Every literal marked during collection must be unmarked at the end —
  // including the ones minimization drops — or stale marks corrupt the
  // next conflict's trail walk.
  const std::vector<Lit> collected = learnt;
  std::uint32_t levels_mask = 0;
  for (std::size_t i = 1; i < learnt.size(); ++i)
    levels_mask |= 1u << (level_[learnt[i].var()] & 31);
  std::size_t kept = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (reason_[learnt[i].var()] == kNoReason ||
        !lit_redundant(learnt[i], levels_mask)) {
      learnt[kept++] = learnt[i];
    }
  }
  learnt.resize(kept);

  // Backtrack level: the second-highest level in the clause.
  bt_level = 0;
  std::size_t max_i = 1;
  for (std::size_t i = 1; i < learnt.size(); ++i) {
    if (level_[learnt[i].var()] > level_[learnt[max_i].var()]) max_i = i;
  }
  if (learnt.size() > 1) {
    std::swap(learnt[1], learnt[max_i]);
    bt_level = level_[learnt[1].var()];
  }
  for (const Lit l : collected) seen_[l.var()] = false;
}

bool Solver::lit_redundant(Lit l, std::uint32_t levels_mask) {
  // DFS through reasons; a literal is redundant if every path terminates in
  // marked (seen_) literals or level-0 facts.
  std::vector<Lit> stack{l};
  std::vector<Var> cleared;
  bool redundant = true;
  while (!stack.empty() && redundant) {
    const Lit p = stack.back();
    stack.pop_back();
    const ClauseRef r = reason_[p.var()];
    if (r == kNoReason) {
      redundant = false;
      break;
    }
    const Clause& c = clauses_[r];
    for (const Lit q : c.lits) {
      const Var v = q.var();
      if (v == p.var() || seen_[v] || level_[v] == 0) continue;
      if (reason_[v] == kNoReason ||
          ((1u << (level_[v] & 31)) & levels_mask) == 0) {
        redundant = false;
        break;
      }
      seen_[v] = true;
      cleared.push_back(v);
      stack.push_back(q);
    }
  }
  for (Var v : cleared) seen_[v] = false;
  return redundant;
}

void Solver::backtrack(int target) {
  if (static_cast<int>(trail_lim_.size()) <= target) return;
  const std::size_t bound = trail_lim_[target];
  for (std::size_t i = trail_.size(); i > bound; --i) {
    const Var v = trail_[i - 1].var();
    assigns_[v] = Value::kUnassigned;
    reason_[v] = kNoReason;
    if (heap_pos_[v] < 0) heap_insert(v);
  }
  trail_.resize(bound);
  trail_lim_.resize(target);
  qhead_ = bound;
}

Lit Solver::pick_branch() {
  while (!heap_.empty()) {
    const Var v = heap_pop();
    if (assigns_[v] == Value::kUnassigned) return Lit(v, phase_[v]);
  }
  return Lit(0, true);  // callers check for completeness first
}

void Solver::bump_var(Var v) {
  activity_[v] += var_inc_;
  if (activity_[v] > 1e100) {
    for (double& a : activity_) a *= 1e-100;
    var_inc_ *= 1e-100;
  }
  if (heap_pos_[v] >= 0) heap_sift_up(heap_pos_[v]);
}

void Solver::bump_clause(ClauseRef cr) {
  Clause& c = clauses_[cr];
  c.activity += clause_inc_;
  if (c.activity > 1e20) {
    for (Clause& cl : clauses_) {
      if (cl.learnt) cl.activity *= 1e-20;
    }
    clause_inc_ *= 1e-20;
  }
}

void Solver::decay_activities() {
  var_inc_ /= options_.var_decay;
  clause_inc_ /= options_.clause_decay;
}

void Solver::reduce_db() {
  // Keep binaries and locked clauses; drop the least active half of the rest.
  std::vector<ClauseRef> learnts;
  for (ClauseRef i = 0; i < clauses_.size(); ++i) {
    const Clause& c = clauses_[i];
    if (c.learnt && !c.deleted && c.lits.size() > 2) learnts.push_back(i);
  }
  std::sort(learnts.begin(), learnts.end(), [this](ClauseRef a, ClauseRef b) {
    return clauses_[a].activity < clauses_[b].activity;
  });
  std::vector<bool> locked(clauses_.size(), false);
  for (const Lit l : trail_) {
    if (reason_[l.var()] != kNoReason) locked[reason_[l.var()]] = true;
  }
  std::size_t removed = 0;
  for (std::size_t i = 0; i < learnts.size() / 2; ++i) {
    if (locked[learnts[i]]) continue;
    // The 'd' line must capture the literals before they are freed.
    if (drat_ != nullptr) drat_->deleted(to_dimacs(clauses_[learnts[i]].lits));
    lits_heap_bytes_ -= static_cast<std::int64_t>(
        clauses_[learnts[i]].lits.capacity() * sizeof(Lit));
    clauses_[learnts[i]].deleted = true;
    clauses_[learnts[i]].lits.clear();
    clauses_[learnts[i]].lits.shrink_to_fit();
    ++removed;
    --learnt_count_;
  }
  stats_.add("sat.clauses_deleted", static_cast<std::int64_t>(removed));
}

std::vector<std::string> Solver::check_invariants() const {
  std::vector<std::string> violations;
  const auto bad = [&](std::string message) {
    violations.push_back(std::move(message));
  };

  // Trail ↔ assignment agreement: every trail literal is true, every
  // assigned variable is on the trail exactly once, levels match the
  // decision-limit structure.
  std::vector<int> seen_at(num_vars(), -1);
  for (std::size_t i = 0; i < trail_.size(); ++i) {
    const Lit l = trail_[i];
    if (l.var() >= num_vars()) {
      bad(str_format("trail entry %zu names variable %u past the solver", i,
                     l.var()));
      continue;
    }
    if (value(l) != Value::kTrue)
      bad(str_format("trail literal at %zu is not true", i));
    if (seen_at[l.var()] >= 0) {
      bad(str_format("variable %u appears on the trail at both %d and %zu",
                     l.var(), seen_at[l.var()], i));
    }
    seen_at[l.var()] = static_cast<int>(i);
    int expected_level = 0;
    while (expected_level < static_cast<int>(trail_lim_.size()) &&
           trail_lim_[static_cast<std::size_t>(expected_level)] <= i) {
      ++expected_level;
    }
    if (level_[l.var()] != expected_level) {
      bad(str_format("variable %u at trail %zu has level %d, trail limits "
                     "say %d",
                     l.var(), i, level_[l.var()], expected_level));
    }
  }
  std::size_t assigned = 0;
  for (Var v = 0; v < num_vars(); ++v) {
    if (assigns_[v] == Value::kUnassigned) continue;
    ++assigned;
    if (seen_at[v] < 0 )
      bad(str_format("variable %u is assigned but not on the trail", v));
    const ClauseRef r = reason_[v];
    if (r == kNoReason) continue;
    if (r >= clauses_.size()) {
      bad(str_format("variable %u has reason clause %u past the database", v,
                     r));
      continue;
    }
    const Clause& c = clauses_[r];
    if (c.deleted) {
      bad(str_format("variable %u's reason clause %u was deleted", v, r));
      continue;
    }
    if (c.lits.empty() || c.lits[0].var() != v) {
      bad(str_format("reason clause %u of variable %u does not imply it "
                     "through lits[0]",
                     r, v));
      continue;
    }
    if (value(c.lits[0]) != Value::kTrue)
      bad(str_format("reason clause %u's implied literal is not true", r));
    for (std::size_t k = 1; k < c.lits.size(); ++k) {
      if (value(c.lits[k]) != Value::kFalse) {
        bad(str_format("reason clause %u of variable %u has a non-false "
                       "side literal",
                       r, v));
        break;
      }
    }
  }
  if (assigned != trail_.size()) {
    bad(str_format("%zu variables assigned but %zu literals on the trail",
                   assigned, trail_.size()));
  }

  // Two-watched-literal integrity: each live clause of ≥ 2 literals is on
  // the watch lists of its first two literals' complements (stale entries
  // from deleted clauses and moved watches are expected and harmless).
  const auto watched_by = [&](ClauseRef cr, Lit l) {
    for (const ClauseRef entry : watches_[(~l).code()]) {
      if (entry == cr) return true;
    }
    return false;
  };
  // Once the database is known contradictory (ok_ cleared by a level-0
  // conflict) an all-false clause is the expected state, not a missed
  // conflict.
  const bool at_fixpoint = ok_ && qhead_ == trail_.size();
  for (ClauseRef cr = 0; cr < clauses_.size(); ++cr) {
    const Clause& c = clauses_[cr];
    if (c.deleted) continue;
    if (c.lits.size() < 2) {
      bad(str_format("live clause %u has %zu literals; unit and empty "
                     "clauses must not be stored",
                     cr, c.lits.size()));
      continue;
    }
    for (int w = 0; w < 2; ++w) {
      if (!watched_by(cr, c.lits[w])) {
        bad(str_format("clause %u is not on the watch list of its watched "
                       "literal %d",
                       cr, w));
      }
    }
    if (!at_fixpoint) continue;
    std::size_t false_count = 0;
    bool any_true = false;
    std::size_t unknown = c.lits.size();
    for (std::size_t k = 0; k < c.lits.size(); ++k) {
      switch (value(c.lits[k])) {
        case Value::kTrue: any_true = true; break;
        case Value::kFalse: ++false_count; break;
        case Value::kUnassigned: unknown = k; break;
      }
    }
    if (!any_true && false_count == c.lits.size()) {
      bad(str_format("clause %u is all-false at a propagation fixpoint — a "
                     "conflict was missed",
                     cr));
    } else if (!any_true && false_count + 1 == c.lits.size()) {
      bad(str_format("clause %u is unit on unassigned variable %u at a "
                     "propagation fixpoint — an implication was missed",
                     cr, c.lits[unknown].var()));
    }
  }
  return violations;
}

namespace {

void enforce(const std::vector<std::string>& violations, const char* where) {
  if (violations.empty()) return;
  std::fprintf(stderr, "rtlsat: self-check failed at %s (%zu violation%s):\n",
               where, violations.size(), violations.size() == 1 ? "" : "s");
  for (const std::string& v : violations)
    std::fprintf(stderr, "  - %s\n", v.c_str());
  std::abort();
}

}  // namespace

std::int64_t Solver::luby(std::int64_t i) {
  // Luby sequence 1 1 2 1 1 2 4 ...
  std::int64_t k = 1;
  while ((std::int64_t{1} << k) - 1 < i + 1) ++k;
  while ((std::int64_t{1} << (k - 1)) - 1 != i) {
    i -= (std::int64_t{1} << (k - 1)) - 1;
    k = 1;
    while ((std::int64_t{1} << k) - 1 < i + 1) ++k;
  }
  return std::int64_t{1} << (k - 1);
}

Result Solver::solve() { return solve({}); }

Result Solver::solve(const std::vector<Lit>& assumptions) {
  const Result result = solve_impl(assumptions);
  if (progress_ != nullptr) progress_->finish(progress_snapshot());
  tracer_->flush();
  return result;
}

trace::ProgressSnapshot Solver::progress_snapshot() const {
  trace::ProgressSnapshot s;
  s.conflicts = n_conflicts_;
  s.decisions = n_decisions_;
  s.propagations = n_propagations_;
  s.learnt = static_cast<std::int64_t>(learnt_count_);
  s.restarts = n_restarts_;
  s.trail = static_cast<std::int64_t>(trail_.size());
  s.level = static_cast<std::uint32_t>(trail_lim_.size());
  s.clause_db_bytes = memory_bytes();
  // The trail with its reason/level side arrays is this solver's analogue
  // of the hybrid implication graph; there is no interval store.
  s.implication_graph_bytes = static_cast<std::int64_t>(
      trail_.capacity() * sizeof(Lit) + reason_.capacity() * sizeof(ClauseRef) +
      level_.capacity() * sizeof(int));
  return s;
}

Result Solver::solve_impl(const std::vector<Lit>& assumptions) {
  failed_.clear();
  if (!ok_) return Result::kUnsat;
  // Defensive: every exit below restores root level, but start clean even
  // if a previous call was interrupted mid-abort.
  backtrack(0);
  const StopToken stop = options_.stop.with_deadline(options_.timeout_seconds);
  max_learnts_ = std::max<std::size_t>(clauses_.size() / 3, 1000);
  std::int64_t restart_count = 0;
  std::int64_t conflicts_until_restart =
      options_.restart_base * luby(restart_count);
  std::int64_t conflict_budget = conflicts_until_restart;
  std::int64_t conflicts_until_check = options_.self_check_interval;
  std::vector<Lit> learnt;

  while (true) {
    // Polled at the top so conflict-streak iterations (which `continue`
    // past the decision code) still observe a fired token promptly.
    if (stop.stop_requested()) {
      backtrack(0);
      return stop.cancelled() ? Result::kCancelled : Result::kTimeout;
    }
    const ClauseRef conflict = propagate();
    if (conflict != kNoReason) {
      ++n_conflicts_;
      const auto level = static_cast<std::uint32_t>(trail_lim_.size());
      tracer_->record(trace::EventKind::kConflict, level);
      if (progress_ != nullptr && progress_->due())
        progress_->report(progress_snapshot());
      if (trail_lim_.empty()) {
        // Conflict with no decisions or assumptions on the trail: the
        // instance is unconditionally UNSAT (assumptions get their own
        // trail_lim_ entries, so they cannot be implicated here).
        ok_ = false;
        if (drat_ != nullptr) drat_->empty_clause();
        return Result::kUnsat;
      }
      int bt_level = 0;
      analyze(conflict, learnt, bt_level);
      // Post-minimization form, so a later DB-reduction 'd' line matches.
      if (drat_ != nullptr) drat_->learned(to_dimacs(learnt));
      h_learned_len_.add(static_cast<std::int64_t>(learnt.size()));
      h_backjump_.add(static_cast<std::int64_t>(level) - bt_level);
      tracer_->record(trace::EventKind::kLearnedClause, level,
                      static_cast<std::int64_t>(learnt.size()), bt_level);
      tracer_->record(trace::EventKind::kBacktrack, level, level, bt_level);
      backtrack(bt_level);
      if (learnt.size() == 1) {
        enqueue(learnt[0], kNoReason);
      } else {
        Clause c;
        c.lits = learnt;
        c.learnt = true;
        c.activity = clause_inc_;
        clauses_.push_back(std::move(c));
        lits_heap_bytes_ += static_cast<std::int64_t>(
            clauses_.back().lits.capacity() * sizeof(Lit));
        attach(static_cast<ClauseRef>(clauses_.size() - 1));
        ++learnt_count_;
        enqueue(learnt[0], static_cast<ClauseRef>(clauses_.size() - 1));
      }
      decay_activities();
      if (options_.self_check && --conflicts_until_check <= 0) {
        conflicts_until_check = options_.self_check_interval;
        stats_.add("sat.self_checks", 1);
        enforce(check_invariants(), "sat conflict loop");
      }
      if (--conflict_budget <= 0) {
        // Restart.
        ++n_restarts_;
        tracer_->record(trace::EventKind::kRestart,
                        static_cast<std::uint32_t>(trail_lim_.size()),
                        restart_count + 1);
        backtrack(0);
        ++restart_count;
        conflict_budget = options_.restart_base * luby(restart_count);
      }
      if (learnt_count_ > max_learnts_) {
        reduce_db();
        max_learnts_ = static_cast<std::size_t>(
            static_cast<double>(max_learnts_) * options_.learnt_grow);
      }
      continue;
    }

    // Apply assumptions, then decide. Level i (1-based) is permanently
    // assumption i's level — an already-true assumption still gets a dummy
    // level — so real decisions sit strictly above every assumption and a
    // backjump can never strand the correspondence. This is what lets
    // analyze_final read assumption pseudo-decisions off the trail by
    // their kNoReason marker alone.
    Lit branch;
    bool branch_is_assumption = false;
    while (trail_lim_.size() < assumptions.size()) {
      const Lit a = assumptions[trail_lim_.size()];
      if (value(a) == Value::kTrue) {
        trail_lim_.push_back(trail_.size());  // dummy level
      } else if (value(a) == Value::kFalse) {
        // Refuted under the *assumptions*, not outright: compute the core,
        // restore root level, and leave ok_ alone.
        analyze_final(a);
        backtrack(0);
        return Result::kUnsat;
      } else {
        branch = a;
        branch_is_assumption = true;
        break;
      }
    }

    if (!branch_is_assumption) {
      if (trail_.size() == num_vars()) {
        if (options_.self_check) {
          stats_.add("sat.self_checks", 1);
          enforce(check_invariants(), "sat model");
        }
        // Snapshot the model before restoring root level so the answer
        // stays readable while the solver is reusable.
        model_.assign(assigns_.begin(), assigns_.end());
        backtrack(0);
        return Result::kSat;
      }
      ++n_decisions_;
      branch = pick_branch();
      if (tracer_->verbose()) {
        // Decisions are far more frequent than conflicts —
        // event-per-decision is only worth it when someone asked for the
        // firehose.
        tracer_->record(trace::EventKind::kDecision,
                        static_cast<std::uint32_t>(trail_lim_.size() + 1),
                        branch.var(), branch.positive() ? 1 : 0);
      }
    }
    trail_lim_.push_back(trail_.size());
    enqueue(branch, kNoReason);
  }
}

void Solver::analyze_final(Lit a) {
  failed_.clear();
  failed_.push_back(a);
  if (trail_lim_.empty()) return;  // ~a is a root fact: {a} is the core
  seen_[a.var()] = true;
  for (std::size_t i = trail_.size(); i > trail_lim_[0]; --i) {
    const Var x = trail_[i - 1].var();
    if (!seen_[x]) continue;
    const ClauseRef r = reason_[x];
    if (r == kNoReason) {
      // Pseudo-decision: when an assumption is found false the check loop
      // has not placed any real decision yet, so every kNoReason trail
      // entry above root is an assumption — including ~a itself when the
      // caller passed a contradictory pair.
      failed_.push_back(trail_[i - 1]);
    } else {
      for (const Lit q : clauses_[r].lits) {
        if (level_[q.var()] > 0) seen_[q.var()] = true;
      }
    }
    seen_[x] = false;
  }
  seen_[a.var()] = false;
}

bool Solver::model_value(Var v) const {
  RTLSAT_ASSERT(v < model_.size());
  RTLSAT_ASSERT(model_[v] != Value::kUnassigned);
  return model_[v] == Value::kTrue;
}

// ---------------------------------------------------------------- heap

void Solver::heap_insert(Var v) {
  heap_pos_[v] = static_cast<int>(heap_.size());
  heap_.push_back(v);
  heap_sift_up(heap_pos_[v]);
}

void Solver::heap_sift_up(int i) {
  const Var v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (!heap_less(v, heap_[parent])) break;
    heap_[i] = heap_[parent];
    heap_pos_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

void Solver::heap_sift_down(int i) {
  const Var v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  while (true) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_less(heap_[child + 1], heap_[child])) ++child;
    if (!heap_less(heap_[child], v)) break;
    heap_[i] = heap_[child];
    heap_pos_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_pos_[v] = i;
}

Var Solver::heap_pop() {
  const Var top = heap_[0];
  heap_pos_[top] = -1;
  if (heap_.size() > 1) {
    heap_[0] = heap_.back();
    heap_pos_[heap_[0]] = 0;
    heap_.pop_back();
    heap_sift_down(0);
  } else {
    heap_.pop_back();
  }
  return top;
}

}  // namespace rtlsat::sat

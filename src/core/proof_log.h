// Word-level proof logger: the bridge between the HDPLL solver's internal
// objects (trail events, hybrid clauses, the arithmetic end-game capture)
// and the primitive JSONL certificate records of src/proof.
//
// The logger is pull-free: the solver calls a hook at each proof-relevant
// moment, always *before* backtracking destroys the trail the record needs.
// Level-0 narrowings are scraped lazily — every record emission first syncs
// the engine's level-0 trail prefix into narrow0 records, so the checker's
// root state tracks the solver's without per-event instrumentation. When no
// logger is installed the solver's hooks are single null-pointer tests.
//
// Records that need a clause id before it exists (a learned clause is
// justified by a trail that backtracking erases, but its id is assigned by
// ClauseDb::add after the backtrack) are staged: capture_*() while the
// trail is live, commit_*() once the id is known.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/analyze.h"
#include "core/arith_check.h"
#include "core/clause_db.h"
#include "proof/word_writer.h"
#include "prop/engine.h"

namespace rtlsat::core {

class WordProofLogger {
 public:
  WordProofLogger(const prop::Engine& engine, proof::WordCertWriter* writer);

  // Header, net declarations (in id order), and assumption records. Call
  // before the solver narrows anything.
  void begin(const std::vector<std::pair<ir::NetId, Interval>>& assumptions);
  // Final level-0 sync plus the end record. verdict: "sat", "unsat",
  // "timeout", "cancelled".
  void finish(const char* verdict);

  // Level-0 refutation from the engine's current conflict (assumption
  // application, a root deduce() failure, or a root conflict in search).
  void log_conflict0();

  // Conflict-clause learning: capture the premise replay and terminal
  // conflict while the trail still holds them; commit with the database id
  // (or −1 for the empty clause) after ClauseDb::add.
  void capture_learn(const AnalysisResult& analysis);
  void commit_learn(std::int64_t clause_id);

  // Arithmetic end-game refutation at level ≥ 1: capture the decision-level
  // trail replay and the FME sub-certificate before the backtrack, commit
  // with the cut clause once added.
  void capture_cut(ArithCertCapture& capture);
  void commit_cut(std::int64_t clause_id, std::span<const HybridLit> lits);
  // Level-0 arithmetic refutation: the whole instance is UNSAT.
  void log_fme0(ArithCertCapture& capture);

  // Predicate-learning probes (§3 recursive learning). probe_begin captures
  // the probe-level replay (and its conflict, for dead probes) with the
  // engine still at probe level; each probe_way captures one recursion
  // branch before its rollback; probe_commit emits the record justifying
  // `clauses` (no record when there is nothing to justify).
  void probe_begin(ir::NetId net, bool value);
  void probe_way(const std::vector<std::pair<ir::NetId, bool>>& assignments);
  void probe_commit(const std::vector<HybridClause>& clauses);
  // Word-interval probe (domain bisection): analogous, one case per half.
  void wprobe_begin(ir::NetId net);
  void wprobe_case(const Interval& half);
  // `refuted`: both halves conflicted — the record itself proves UNSAT and
  // is emitted even with no clauses.
  void wprobe_commit(const std::vector<HybridClause>& clauses, bool refuted);

  // Database additions of previously justified clauses (predicate
  // learning), portfolio imports, and reduction deletions (scan: every
  // clause newly marked deleted since the last call gets a delc record).
  void log_add_clause(std::int64_t id, std::span<const HybridLit> lits);
  void log_import(std::int64_t id, int worker, std::int64_t seq,
                  std::span<const HybridLit> lits);
  void log_deletions(const ClauseDb& db);

  // FME refutations that came back empty. Every kUnsat answer of a
  // recording fme::Solver carries one, so a nonzero count is a solver bug;
  // the record is still emitted and the checker will reject it.
  std::int64_t fme_certify_failures() const { return fme_certify_failures_; }

 private:
  void sync_level0();
  // Trail events at `level` or deeper, in trail order, as replay steps.
  std::vector<proof::WordStep> steps_at_or_above(std::uint32_t level) const;
  proof::WordConflict engine_conflict() const;
  // Moves the refutation out of `capture`.
  proof::FmeCert build_fme_cert(ArithCertCapture& capture);

  const prop::Engine& engine_;
  proof::WordCertWriter* writer_;
  std::size_t level0_cursor_ = 0;
  std::vector<bool> deletion_logged_;

  std::vector<proof::WordLit> learn_lits_;
  std::vector<proof::WordStep> learn_steps_;
  proof::WordConflict learn_conf_;

  std::vector<proof::WordStep> cut_steps_;
  proof::FmeCert cut_fme_;

  std::uint32_t probe_net_ = 0;
  std::int64_t probe_val_ = 0;
  std::vector<proof::WordStep> probe_steps_;
  proof::WordConflict probe_conf_;
  std::vector<proof::ProbeWay> probe_ways_;
  std::uint32_t wprobe_net_ = 0;
  std::vector<proof::ProbeCase> wprobe_cases_;

  std::int64_t fme_certify_failures_ = 0;
};

}  // namespace rtlsat::core

#include "core/proof_log.h"

#include <string>
#include <utility>

#include "ir/circuit.h"
#include "util/assert.h"

namespace rtlsat::core {

namespace {

char reason_char(prop::ReasonKind kind) {
  switch (kind) {
    case prop::ReasonKind::kAssumption: return 'a';
    case prop::ReasonKind::kDecision: return 'd';
    case prop::ReasonKind::kNode: return 'n';
    case prop::ReasonKind::kClause: return 'c';
  }
  return '?';
}

proof::WordStep to_step(const prop::Event& ev) {
  proof::WordStep s;
  s.net = ev.net;
  s.kind = reason_char(ev.kind);
  s.id = ev.reason_id;
  s.lo = ev.cur.lo();
  s.hi = ev.cur.hi();
  return s;
}

proof::WordLit to_lit(const HybridLit& l) {
  proof::WordLit out;
  out.net = l.net;
  out.is_bool = l.is_bool;
  out.positive = l.positive;
  out.lo = l.interval.lo();
  out.hi = l.interval.hi();
  return out;
}

std::vector<proof::WordLit> to_lits(std::span<const HybridLit> lits) {
  std::vector<proof::WordLit> out;
  out.reserve(lits.size());
  for (const HybridLit& l : lits) out.push_back(to_lit(l));
  return out;
}

}  // namespace

WordProofLogger::WordProofLogger(const prop::Engine& engine,
                                 proof::WordCertWriter* writer)
    : engine_(engine), writer_(writer) {
  RTLSAT_ASSERT(writer_ != nullptr);
}

void WordProofLogger::begin(
    const std::vector<std::pair<ir::NetId, Interval>>& assumptions) {
  const ir::Circuit& circuit = engine_.circuit();
  writer_->header();
  for (ir::NetId id = 0; id < circuit.num_nets(); ++id) {
    const ir::Node& n = circuit.node(id);
    writer_->net(id, n.width, std::string(ir::op_name(n.op)), n.operands,
                 n.imm, n.imm2);
  }
  for (const auto& [net, interval] : assumptions) {
    writer_->assume(net, interval.lo(), interval.hi());
  }
}

void WordProofLogger::sync_level0() {
  const auto& trail = engine_.trail();
  // Level-0 events are a monotone trail prefix: backtracking never removes
  // them, so a plain cursor never re-emits or skips one. Assumption events
  // were already declared by the assume records.
  while (level0_cursor_ < trail.size() &&
         trail[level0_cursor_].level == 0) {
    const prop::Event& ev = trail[level0_cursor_++];
    if (ev.kind == prop::ReasonKind::kAssumption) continue;
    writer_->narrow0(to_step(ev));
  }
}

std::vector<proof::WordStep> WordProofLogger::steps_at_or_above(
    std::uint32_t level) const {
  const auto& trail = engine_.trail();
  // Levels are monotone along the trail: scan back to the boundary, then
  // emit forward in replay order.
  std::size_t first = trail.size();
  while (first > 0 && trail[first - 1].level >= level) --first;
  std::vector<proof::WordStep> steps;
  steps.reserve(trail.size() - first);
  for (std::size_t i = first; i < trail.size(); ++i)
    steps.push_back(to_step(trail[i]));
  return steps;
}

proof::WordConflict WordProofLogger::engine_conflict() const {
  proof::WordConflict conf;
  if (!engine_.in_conflict()) return conf;
  const prop::Conflict& c = engine_.conflict();
  conf.kind = reason_char(c.kind);
  conf.id = c.reason_id;
  return conf;
}

void WordProofLogger::log_conflict0() {
  RTLSAT_ASSERT(engine_.in_conflict());
  sync_level0();
  const prop::Conflict& c = engine_.conflict();
  writer_->conflict0(reason_char(c.kind), c.reason_id);
}

void WordProofLogger::capture_learn(const AnalysisResult& analysis) {
  learn_lits_.clear();
  for (const HybridLit& l : analysis.clause.lits)
    learn_lits_.push_back(to_lit(l));
  const auto& trail = engine_.trail();
  learn_steps_.clear();
  learn_steps_.reserve(analysis.premises.size());
  for (std::int32_t e : analysis.premises)
    learn_steps_.push_back(to_step(trail[static_cast<std::size_t>(e)]));
  learn_conf_ = engine_conflict();
}

void WordProofLogger::commit_learn(std::int64_t clause_id) {
  sync_level0();
  writer_->learn(clause_id, learn_lits_, learn_steps_, learn_conf_);
}

proof::FmeCert WordProofLogger::build_fme_cert(ArithCertCapture& capture) {
  proof::FmeCert cert;
  const fme::System& sys = capture.system;
  RTLSAT_ASSERT(capture.vars.size() == sys.num_vars());
  RTLSAT_ASSERT(capture.row_node.size() == sys.constraints().size());
  cert.vars.reserve(sys.num_vars());
  for (fme::Var v = 0; v < sys.num_vars(); ++v) {
    const Interval& b = sys.bounds(v);
    cert.vars.push_back(
        {capture.vars[v].is_net, capture.vars[v].id, b.lo(), b.hi()});
  }
  cert.cons.reserve(sys.constraints().size());
  for (std::size_t i = 0; i < sys.constraints().size(); ++i) {
    const fme::LinearConstraint& c = sys.constraints()[i];
    proof::FmeCertCon con;
    con.node = capture.row_node[i];
    for (const fme::Term& t : c.terms) con.terms.push_back({t.var, t.coeff});
    con.bound = c.bound;
    cert.cons.push_back(std::move(con));
  }
  cert.refutation = std::move(capture.refutation);
  if (cert.refutation.steps.empty()) ++fme_certify_failures_;
  return cert;
}

void WordProofLogger::capture_cut(ArithCertCapture& capture) {
  cut_steps_ = steps_at_or_above(1);
  cut_fme_ = build_fme_cert(capture);
}

void WordProofLogger::commit_cut(std::int64_t clause_id,
                                 std::span<const HybridLit> lits) {
  sync_level0();
  writer_->cut(clause_id, to_lits(lits), cut_steps_, cut_fme_);
  cut_steps_.clear();
  cut_fme_ = proof::FmeCert{};
}

void WordProofLogger::log_fme0(ArithCertCapture& capture) {
  sync_level0();
  writer_->fme0(build_fme_cert(capture));
}

void WordProofLogger::probe_begin(ir::NetId net, bool value) {
  probe_net_ = net;
  probe_val_ = value ? 1 : 0;
  probe_steps_ = steps_at_or_above(1);
  probe_conf_ = engine_conflict();
  probe_ways_.clear();
}

void WordProofLogger::probe_way(
    const std::vector<std::pair<ir::NetId, bool>>& assignments) {
  proof::ProbeWay way;
  for (const auto& [net, val] : assignments)
    way.assign.push_back({net, val ? 1 : 0});
  way.steps = steps_at_or_above(2);
  way.conflict = engine_conflict();
  probe_ways_.push_back(std::move(way));
}

void WordProofLogger::probe_commit(const std::vector<HybridClause>& clauses) {
  if (clauses.empty()) return;  // nothing justified: keep the cert lean
  sync_level0();
  std::vector<std::vector<proof::WordLit>> lits;
  lits.reserve(clauses.size());
  for (const HybridClause& c : clauses) lits.push_back(to_lits(c.lits));
  writer_->probe(probe_net_, probe_val_, probe_steps_, probe_conf_,
                 probe_ways_, lits);
}

void WordProofLogger::wprobe_begin(ir::NetId net) {
  wprobe_net_ = net;
  wprobe_cases_.clear();
}

void WordProofLogger::wprobe_case(const Interval& half) {
  proof::ProbeCase c;
  c.lo = half.lo();
  c.hi = half.hi();
  c.steps = steps_at_or_above(1);
  c.conflict = engine_conflict();
  wprobe_cases_.push_back(std::move(c));
}

void WordProofLogger::wprobe_commit(const std::vector<HybridClause>& clauses,
                                    bool refuted) {
  if (clauses.empty() && !refuted) return;
  sync_level0();
  std::vector<std::vector<proof::WordLit>> lits;
  lits.reserve(clauses.size());
  for (const HybridClause& c : clauses) lits.push_back(to_lits(c.lits));
  writer_->wprobe(wprobe_net_, wprobe_cases_, lits);
}

void WordProofLogger::log_add_clause(std::int64_t id,
                                     std::span<const HybridLit> lits) {
  sync_level0();
  writer_->add_clause(id, to_lits(lits));
}

void WordProofLogger::log_import(std::int64_t id, int worker, std::int64_t seq,
                                 std::span<const HybridLit> lits) {
  sync_level0();
  writer_->import_clause(id, worker, seq, to_lits(lits));
}

void WordProofLogger::log_deletions(const ClauseDb& db) {
  if (deletion_logged_.size() < db.size()) deletion_logged_.resize(db.size());
  for (std::size_t id = 0; id < db.size(); ++id) {
    if (!db.clause(static_cast<std::uint32_t>(id)).deleted) continue;
    if (deletion_logged_[id]) continue;
    deletion_logged_[id] = true;
    sync_level0();
    writer_->delete_clause(static_cast<std::int64_t>(id));
  }
}

void WordProofLogger::finish(const char* verdict) {
  sync_level0();
  writer_->finish(verdict);
}

}  // namespace rtlsat::core

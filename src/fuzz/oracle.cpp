#include "fuzz/oracle.h"

#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bitblast/bitblast.h"
#include "bmc/incremental.h"
#include "bmc/unroll.h"
#include "core/hdpll.h"
#include "core/selfcheck.h"
#include "portfolio/portfolio.h"
#include "presolve/analyze.h"
#include "presolve/simplify.h"
#include "proof/drat.h"
#include "proof/drat_check.h"
#include "proof/word_check.h"
#include "proof/word_writer.h"
#include "prop/engine.h"
#include "util/assert.h"

namespace rtlsat::fuzz {

using ir::Circuit;
using ir::NetId;
using Model = std::unordered_map<NetId, std::int64_t>;

namespace {

char status_char(core::SolveStatus s) {
  switch (s) {
    case core::SolveStatus::kSat: return 'S';
    case core::SolveStatus::kUnsat: return 'U';
    default: return 'T';
  }
}

char status_char(sat::Result r) {
  switch (r) {
    case sat::Result::kSat: return 'S';
    case sat::Result::kUnsat: return 'U';
    default: return 'T';
  }
}

std::string model_to_string(const Circuit& circuit, const Model& model) {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for (const NetId in : circuit.inputs()) {
    const auto it = model.find(in);
    if (it == model.end()) continue;
    if (!first) os << ' ';
    first = false;
    os << circuit.net_name(in) << '=' << it->second;
  }
  os << '}';
  return os.str();
}

// The three Table-2 HDPLL configurations.
struct HdpllConfig {
  const char* name;
  bool structural;
  bool predicates;
};
constexpr HdpllConfig kHdpllConfigs[] = {
    {"hdpll", false, false},
    {"hdpll+s", true, false},
    {"hdpll+s+p", true, true},
};

core::HdpllOptions make_options(const HdpllConfig& config,
                                const OracleOptions& options) {
  core::HdpllOptions o;
  o.structural_decisions = config.structural;
  o.predicate_learning = config.predicates;
  o.timeout_seconds = options.timeout_seconds;
  o.stop = options.stop;
  o.verify_models = true;
  return o;
}

struct Harness {
  const Circuit& circuit;
  NetId goal;
  const OracleOptions& options;
  OracleReport report;
  // One SAT model per engine that produced one, for cross-replay.
  std::vector<std::pair<std::string, Model>> sat_models;

  void mismatch(std::string text) {
    report.mismatches.push_back(std::move(text));
  }

  void record(const std::string& engine, char verdict, double seconds,
              Model model) {
    report.verdicts.push_back({engine, verdict, seconds});
    if (verdict != 'S') return;
    // Rule 2: every SAT model must actually satisfy the goal.
    const std::vector<std::int64_t> values = circuit.evaluate(model);
    if (values[goal] != 1) {
      mismatch(engine + ": SAT model does not satisfy the goal: " +
               model_to_string(circuit, model));
    }
    sat_models.emplace_back(engine, std::move(model));
  }

  // Rule 4: a decisive verdict reached with proof logging on must come
  // with a certificate the independent checker accepts — and an UNSAT
  // verdict with an established refutation. The checker's error carries
  // the first rejected step ("line N: ..." / "step N: ..."), so an
  // unsound derivation is named, not just outvoted.
  void check_word_cert(const std::string& engine, char verdict,
                       const proof::WordCertWriter& writer) {
    const proof::WordCheckResult check = proof::word_check(writer.str());
    if (!check.ok) {
      mismatch(engine + ": certificate rejected: " + check.error);
      return;
    }
    if (verdict == 'U' && !check.refuted)
      mismatch(engine + ": UNSAT verdict but the certificate establishes " +
               "no refutation");
  }

  void run_hdpll() {
    for (const HdpllConfig& config : kHdpllConfigs) {
      proof::WordCertWriter cert;
      core::HdpllOptions o = make_options(config, options);
      if (options.check_proofs) o.proof = &cert;
      core::HdpllSolver solver(circuit, o);
      solver.assume_bool(goal, true);
      core::SolveResult res = solver.solve();
      const char verdict = status_char(res.status);
      record(config.name, verdict, res.seconds, std::move(res.input_model));
      if (options.check_proofs) check_word_cert(config.name, verdict, cert);
    }
  }

  void run_bitblast() {
    proof::DratWriter drat;
    sat::SolverOptions o;
    o.timeout_seconds = options.timeout_seconds;
    o.stop = options.stop;
    if (options.check_proofs) o.drat = &drat;
    bitblast::CheckResult res = bitblast::check_sat(circuit, goal, true, o);
    const char verdict = status_char(res.result);
    record("bitblast", verdict, 0, std::move(res.input_model));
    if (options.check_proofs && verdict == 'U') {
      const proof::DratCheckResult check =
          proof::drat_check(drat.dimacs(), drat.proof(), drat.binary());
      if (!check.ok)
        mismatch("bitblast: DRAT proof rejected: " + check.error);
    }
  }

  void run_portfolio() {
    if (!options.run_portfolio) return;
    portfolio::PortfolioOptions o;
    o.jobs = options.portfolio_jobs;
    o.deterministic = true;  // keep the whole oracle reproducible
    o.crosscheck = true;
    o.budget_seconds = options.timeout_seconds * o.jobs;
    o.stop = options.stop;
    portfolio::Portfolio race(circuit, goal, true, o);
    portfolio::PortfolioResult res = race.solve();
    record("portfolio", status_char(res.status), res.seconds,
           std::move(res.input_model));
    // The portfolio's internal crosscheck is part of the oracle matrix:
    // surface its violations as mismatches.
    for (const std::string& v : res.crosscheck_violations)
      mismatch("portfolio crosscheck: " + v);
  }

  void run_brute() {
    int total_bits = 0;
    for (const NetId in : circuit.inputs()) total_bits += circuit.width(in);
    if (total_bits > options.brute_force_max_bits) return;
    report.brute_ran = true;

    const std::vector<NetId>& ins = circuit.inputs();
    Model model;
    std::vector<std::int64_t> cursor(ins.size(), 0);
    bool any_sat = false;
    Model witness;
    for (;;) {
      for (std::size_t i = 0; i < ins.size(); ++i) model[ins[i]] = cursor[i];
      const std::vector<std::int64_t> values = circuit.evaluate(model);
      if (values[goal] == 1) {
        ++report.brute_sat_count;
        if (!any_sat) {
          any_sat = true;
          witness = model;
        }
      }
      // Odometer increment over the input domains.
      std::size_t i = 0;
      for (; i < ins.size(); ++i) {
        const std::int64_t top =
            (std::int64_t{1} << circuit.width(ins[i])) - 1;
        if (cursor[i] < top) {
          ++cursor[i];
          break;
        }
        cursor[i] = 0;
      }
      if (i == ins.size()) break;
    }
    record("brute", any_sat ? 'S' : 'U', 0, std::move(witness));
  }

  // Rule 1: decisive verdicts must agree.
  void check_consensus() {
    for (const EngineVerdict& v : report.verdicts) {
      if (v.verdict != 'S' && v.verdict != 'U') continue;
      if (report.consensus == '?') {
        report.consensus = v.verdict;
      } else if (report.consensus != v.verdict) {
        std::ostringstream os;
        os << "verdict disagreement: " << v.engine << " says " << v.verdict
           << " but an earlier engine said " << report.consensus
           << " (" << report.summary() << ")";
        mismatch(os.str());
        return;
      }
    }
  }

  // Rule 3: replay every SAT model through level-0 interval propagation
  // with "goal = 1" assumed — the selfcheck soundness audit must admit the
  // model in every net's propagated interval. This is the probe that
  // catches interval narrowing bugs which happened not to flip this
  // instance's verdict: a rule that narrows too far excludes a real model
  // here long before it produces a wrong UNSAT somewhere else.
  void replay_models() {
    if (!options.selfcheck_replay) return;
    prop::Engine engine(circuit);
    const bool consistent =
        engine.narrow(goal, Interval::point(1), prop::ReasonKind::kAssumption) &&
        engine.propagate();
    if (!consistent) {
      // Level-0 propagation refuted the instance outright; that is only
      // sound if no engine holds a model.
      for (const auto& [name, model] : sat_models) {
        mismatch("level-0 propagation refutes the instance but " + name +
                 " has model " + model_to_string(circuit, model));
      }
      return;
    }
    for (const auto& [name, model] : sat_models) {
      for (const std::string& v :
           core::selfcheck::check_interval_soundness(engine, model)) {
        mismatch("level-0 intervals reject " + name + "'s model " +
                 model_to_string(circuit, model) + ": " + v);
      }
    }
  }
};

}  // namespace

std::string OracleReport::summary() const {
  std::ostringstream os;
  for (const EngineVerdict& v : verdicts)
    os << v.engine << ':' << v.verdict << ' ';
  os << "consensus=" << consensus;
  if (brute_ran) os << " brute_sat=" << brute_sat_count;
  return os.str();
}

OracleReport run_oracle(const ir::Circuit& circuit, ir::NetId goal,
                        const OracleOptions& options) {
  RTLSAT_ASSERT(circuit.is_bool(goal));
  Harness h{circuit, goal, options, {}, {}};
  h.run_hdpll();
  h.run_bitblast();
  h.run_portfolio();
  h.run_brute();
  h.check_consensus();
  h.replay_models();
  return h.report;
}

std::vector<std::string> compare_bmc_paths(const ir::SeqCircuit& seq,
                                           const std::string& property,
                                           int max_bound,
                                           const OracleOptions& options) {
  std::vector<std::string> mismatches;
  for (const bool cumulative : {false, true}) {
    core::HdpllOptions solver_options;
    solver_options.structural_decisions = true;
    solver_options.predicate_learning = true;
    solver_options.timeout_seconds = options.timeout_seconds;
    solver_options.stop = options.stop;
    bmc::IncrementalBmc inc(seq, property, solver_options, cumulative);
    // Third path: the same growing solver with presolve's reach invariants
    // installed as persistent assumptions. An unsound invariant (one that
    // excludes a reachable state) flips a SAT bound to UNSAT here.
    bmc::IncrementalBmc inc_pre(seq, property, solver_options, cumulative,
                                /*presolve=*/true);
    for (int bound = 1; bound <= max_bound; ++bound) {
      const core::SolveResult warm = inc.solve_bound(bound);
      const core::SolveResult warm_pre = inc_pre.solve_bound(bound);

      const bmc::BmcInstance fresh =
          cumulative ? bmc::unroll_any(seq, property, bound)
                     : bmc::unroll(seq, property, bound);
      core::HdpllSolver cold(fresh.circuit, solver_options);
      cold.assume_bool(fresh.goal, true);
      const core::SolveResult fresh_result = cold.solve();

      const char w = status_char(warm.status);
      const char wp = status_char(warm_pre.status);
      const char f = status_char(fresh_result.status);
      if (f != 'T' && wp != 'T' && wp != f) {
        std::ostringstream os;
        os << inc_pre.name(bound) << (cumulative ? " (cumulative)" : "")
           << ": incremental+presolve=" << wp << " fresh=" << f;
        mismatches.push_back(os.str());
      } else if (wp == 'S') {
        const auto values = inc_pre.circuit().evaluate(warm_pre.input_model);
        if (values[inc_pre.ensure_bound(bound)] != 1) {
          std::ostringstream os;
          os << inc_pre.name(bound) << (cumulative ? " (cumulative)" : "")
             << ": incremental+presolve witness failed replay "
             << model_to_string(inc_pre.circuit(), warm_pre.input_model);
          mismatches.push_back(os.str());
        }
      }
      if (w == 'T' || f == 'T') continue;  // abstain, as in run_oracle
      if (w != f) {
        std::ostringstream os;
        os << inc.name(bound) << (cumulative ? " (cumulative)" : "")
           << ": incremental=" << w << " fresh=" << f;
        mismatches.push_back(os.str());
        continue;
      }
      if (warm.status == core::SolveStatus::kSat) {
        // The witness must replay by simulation on the growing circuit —
        // independent of the solver that produced it, so a clause leaked
        // across frames shows up here even when both verdicts say SAT.
        const auto values = inc.circuit().evaluate(warm.input_model);
        if (values[inc.ensure_bound(bound)] != 1) {
          std::ostringstream os;
          os << inc.name(bound) << (cumulative ? " (cumulative)" : "")
             << ": incremental witness failed replay "
             << model_to_string(inc.circuit(), warm.input_model);
          mismatches.push_back(os.str());
        }
      }
    }
  }
  return mismatches;
}

std::vector<std::string> compare_presolve(const ir::Circuit& circuit,
                                          ir::NetId goal,
                                          const OracleOptions& options) {
  RTLSAT_ASSERT(circuit.is_bool(goal));
  std::vector<std::string> mismatches;
  core::HdpllOptions solver_options;
  solver_options.structural_decisions = true;
  solver_options.predicate_learning = true;
  solver_options.timeout_seconds = options.timeout_seconds;
  solver_options.stop = options.stop;
  solver_options.verify_models = true;

  // Unconditioned facts must admit every model any path produces — the
  // audit that catches a too-narrow transfer function before it ever
  // flips a verdict.
  const presolve::FactTable facts = presolve::analyze(circuit);
  const auto audit_model = [&](const std::string& who, const Model& model) {
    const std::vector<std::int64_t> values = circuit.evaluate(model);
    if (values[goal] != 1) {
      mismatches.push_back(who + ": SAT model does not satisfy the goal: " +
                           model_to_string(circuit, model));
    }
    for (NetId id = 0; id < circuit.num_nets(); ++id) {
      if (!facts.range[id].contains(values[id])) {
        std::ostringstream os;
        os << who << ": net " << id << " (" << circuit.net_name(id)
           << ") value " << values[id] << " escapes unconditioned fact "
           << facts.range[id].to_string() << " under model "
           << model_to_string(circuit, model);
        mismatches.push_back(os.str());
      }
      if (facts.parity[id] != presolve::Parity::kUnknown &&
          facts.parity[id] != presolve::parity_of(values[id])) {
        std::ostringstream os;
        os << who << ": net " << id << " (" << circuit.net_name(id)
           << ") value " << values[id] << " contradicts its parity fact";
        mismatches.push_back(os.str());
      }
    }
  };

  // Reference: direct solve of the original instance.
  core::HdpllSolver direct(circuit, solver_options);
  direct.assume_bool(goal, true);
  const core::SolveResult ref = direct.solve();
  const char ref_verdict = status_char(ref.status);
  if (ref_verdict == 'S') audit_model("direct", ref.input_model);

  presolve::GoalPresolve pre = presolve::presolve_goal(circuit, goal, true);
  if (pre.decided) {
    const char verdict = pre.sat ? 'S' : 'U';
    if (ref_verdict != 'T' && ref_verdict != verdict) {
      mismatches.push_back(std::string("presolve decided ") + verdict +
                           " but direct solve says " + ref_verdict);
    }
    if (pre.sat) {
      audit_model("presolve-decided",
                  Model(pre.model.begin(), pre.model.end()));
    }
    return mismatches;
  }

  // Undecided: solve the simplified instance with the same configuration.
  core::HdpllSolver simplified(pre.circuit, solver_options);
  simplified.assume_bool(pre.goal, true);
  const core::SolveResult simp = simplified.solve();
  const char simp_verdict = status_char(simp.status);
  if (ref_verdict != 'T' && simp_verdict != 'T' &&
      ref_verdict != simp_verdict) {
    mismatches.push_back(std::string("simplified instance says ") +
                         simp_verdict + " but direct solve says " +
                         ref_verdict);
  }
  if (simp_verdict == 'S') {
    // Witness transfer by input name; an input the rewrite erased is
    // unconstrained in the original, so 0 completes the model.
    Model simp_model = simp.input_model;
    for (const NetId in : pre.circuit.inputs()) {
      if (simp_model.find(in) == simp_model.end()) simp_model[in] = 0;
    }
    Model orig_model;
    for (const NetId in : circuit.inputs()) {
      const NetId mapped = pre.circuit.find_net(circuit.net_name(in));
      const auto it = mapped == ir::kNoNet ? simp_model.end()
                                           : simp_model.find(mapped);
      orig_model[in] = it == simp_model.end() ? 0 : it->second;
    }
    audit_model("presolve-transfer", orig_model);
    // Net-by-net witness-transfer audit: every surviving net must compute
    // the same value on both sides of the net map.
    const std::vector<std::int64_t> v_orig = circuit.evaluate(orig_model);
    const std::vector<std::int64_t> v_simp = pre.circuit.evaluate(simp_model);
    for (NetId id = 0; id < circuit.num_nets(); ++id) {
      if (pre.net_map[id] == ir::kNoNet) continue;
      if (v_orig[id] != v_simp[pre.net_map[id]]) {
        std::ostringstream os;
        os << "net map diverges at net " << id << " ("
           << circuit.net_name(id) << "): original computes " << v_orig[id]
           << " but its image computes " << v_simp[pre.net_map[id]];
        mismatches.push_back(os.str());
      }
    }
  }
  return mismatches;
}

}  // namespace rtlsat::fuzz

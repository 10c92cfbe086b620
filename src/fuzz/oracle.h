// Differential oracle harness: run one fuzz instance through every engine
// in the repo and cross-check the verdicts.
//
// The engine matrix mirrors the paper's Table 2 plus this repo's additions:
//   hdpll        — word-level solver, defaults
//   hdpll+s      — structural decisions (§4)
//   hdpll+s+p    — structural decisions + predicate learning (§3)
//   bitblast     — Tseitin CNF + CDCL, the structure-blind baseline
//   portfolio    — deterministic sequential portfolio with its own
//                  crosscheck layer on
//   brute        — exhaustive input enumeration, joined only when the total
//                  input bit count is small enough
//
// Agreement rules: every decisive ('S'/'U') verdict must match; every SAT
// model must evaluate the goal to 1 under circuit simulation; and each SAT
// model is replayed through a fresh HDPLL solver per configuration via
// crosscheck_model, which runs the selfcheck interval-soundness audit — the
// check that catches interval bugs that happen not to flip a verdict.
// Timeouts ('T') abstain. Any rule violation becomes a `mismatches` entry;
// ok() is the one-line pass/fail the fuzzer loop keys off.
#pragma once

#include <string>
#include <vector>

#include "ir/circuit.h"
#include "ir/seq.h"
#include "util/stop_token.h"

namespace rtlsat::fuzz {

struct OracleOptions {
  double timeout_seconds = 10;  // per engine
  // The whole run's stop (default: inert). Every engine observes it on top
  // of its own timeout, so one whose turn comes after the deadline returns
  // 'T' and abstains.
  StopToken stop;
  // Brute force joins when Σ input widths ≤ this many bits (2^n evals).
  int brute_force_max_bits = 18;
  bool run_portfolio = true;
  int portfolio_jobs = 4;
  // Replay SAT models through per-config HDPLL crosscheck_model (the
  // selfcheck interval-soundness audit). Costs one propagation pass per
  // (model, config); finds bugs that never flip a verdict.
  bool selfcheck_replay = true;
  // Run every HDPLL configuration with word-certificate logging and the
  // bitblast engine with DRAT logging, and pipe each certificate through
  // the independent checkers (src/proof). A rejected certificate becomes a
  // mismatch naming the first rejected proof step — so an unsound UNSAT is
  // localized to the derivation that faked it, not just flagged by a
  // disagreeing peer. In-memory only; fuzz instances are tiny.
  bool check_proofs = true;
};

struct EngineVerdict {
  std::string engine;
  char verdict = '?';  // 'S', 'U', 'T' (timeout/cancelled), '?' (skipped)
  double seconds = 0;
};

struct OracleReport {
  std::vector<EngineVerdict> verdicts;
  // The agreed decisive verdict: 'S', 'U', or '?' if every engine timed out.
  char consensus = '?';
  // Human-readable rule violations; empty ⟺ the instance passed.
  std::vector<std::string> mismatches;
  bool brute_ran = false;
  std::int64_t brute_sat_count = 0;  // satisfying assignments found by brute

  bool ok() const { return mismatches.empty(); }
  // "hdpll:S hdpll+s:S ... consensus=S" — one line for logs.
  std::string summary() const;
};

// Runs the full matrix on "goal = 1" over `circuit`. The goal must be a
// 1-bit net. Deterministic given (circuit, options).
OracleReport run_oracle(const ir::Circuit& circuit, ir::NetId goal,
                        const OracleOptions& options = {});

// Differential check of the incremental BMC path (bmc/incremental.h: one
// growing circuit, one persistent solver, per-bound assumptions) against
// fresh-per-frame unroll+solve, over every bound ≤ max_bound and both
// goal shapes (exactly-k and cumulative). Rules mirror run_oracle's:
// decisive verdicts must match at every bound, each incremental SAT
// witness must replay (goal = 1) on the growing circuit by simulation,
// and timeouts abstain. Returns the rule violations; empty ⟺ the two
// paths agree.
std::vector<std::string> compare_bmc_paths(const ir::SeqCircuit& seq,
                                           const std::string& property,
                                           int max_bound,
                                           const OracleOptions& options = {});

// Differential check of the presolve path (presolve/simplify.h) against a
// direct HDPLL+S+P solve of the original instance. Rules:
//   * a presolve-decided verdict must match the direct one (timeouts
//     abstain), and a decided-SAT model must satisfy the goal by
//     simulation;
//   * an undecided presolve hands the simplified circuit to the same
//     solver configuration: verdicts must match, and a SAT model must
//     transfer back through the input names — satisfying the original goal
//     AND agreeing net-by-net with the original evaluation through the
//     net map (the witness-transfer audit);
//   * every model seen (direct or transferred) must lie inside every
//     unconditioned analyzer fact — range and parity — so a narrowing bug
//     is caught even when it never flips a verdict.
// Returns the rule violations; empty ⟺ presolve is sound on the instance.
std::vector<std::string> compare_presolve(const ir::Circuit& circuit,
                                          ir::NetId goal,
                                          const OracleOptions& options = {});

}  // namespace rtlsat::fuzz

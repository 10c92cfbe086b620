// Solver-invariant verification: machine checks for the contracts
// docs/architecture.md promises between the engine, the clause database,
// and HDPLL (trail/implication-graph consistency, watched-literal
// integrity, asserting learned clauses, interval soundness against a
// concrete witness).
//
// Each checker returns a list of human-readable violation descriptions —
// empty means the invariant holds — so tests can assert on content and the
// in-solver hooks can abort with a full diagnosis. The checkers are always
// compiled (they are cold code); HdpllOptions::self_check (default ON in
// -DRTLSAT_SELFCHECK=ON builds via rtlsat::kSelfCheckBuild) controls
// whether HDPLL invokes them during search.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/analyze.h"
#include "core/clause_db.h"
#include "core/justify.h"
#include "prop/engine.h"

namespace rtlsat::core::selfcheck {

// Implication-graph / trail consistency:
//  * every event narrows (cur ⊂ prev, non-empty);
//  * levels are nondecreasing along the trail and never exceed the
//    engine's current level;
//  * antecedents strictly precede their consequence (the graph is acyclic
//    by construction — this checks the construction);
//  * per-net event chains (prev_on_net) are correctly linked and the
//    latest event's interval equals the engine's current domain;
//  * node reasons reference real circuit nodes.
std::vector<std::string> check_engine(const prop::Engine& engine);

// Watched-literal and clause-database integrity:
//  * watch indices are in range and watched nets' watcher lists contain
//    the clause;
//  * per-net occurrence counts and learned-literal weights match the live
//    clauses; learnt_count matches;
//  * at a propagation fixpoint (no fresh clauses pending, no conflict), no
//    live clause is all-false, and no clause is unit on an unassigned
//    Boolean literal (word-literal units may legitimately stay pending
//    when their complement is not interval-representable).
std::vector<std::string> check_clause_db(const ClauseDb& db,
                                         const prop::Engine& engine);

// Checks that a just-learned clause is asserting after backtracking: no
// literal true, the asserting literal lits[0] unknown, and every other
// Boolean literal still false. Call between backtrack_to(analysis.
// backtrack_level) and ClauseDb::add.
std::vector<std::string> check_asserting_clause(const HybridClause& clause,
                                                const prop::Engine& engine);

// Interval-store soundness against a concrete witness: for an input
// valuation consistent with everything on the trail (e.g. the model of a
// SAT answer, or any valuation at level 0), every net's current interval
// must contain the net's simulated value. `input_values` is keyed by input
// net id, as Circuit::evaluate expects.
std::vector<std::string> check_interval_soundness(
    const prop::Engine& engine,
    const std::unordered_map<ir::NetId, std::int64_t>& input_values);

// Incremental circuit growth against a rebuild from scratch: the engine's
// operator table must equal a fresh prop::OpTable, its reader lists must
// equal ir::fanouts element for element and, when `justifier` is non-null,
// its candidate order and unjustified marks must equal those of a
// Justifier freshly built over a copy of the engine. Call right after a
// growth step (HdpllSolver::sync_circuit).
std::vector<std::string> check_growth(const prop::Engine& engine,
                                      const Justifier* justifier);

// Aborts with every violation listed when `violations` is non-empty.
// `where` names the call site in the abort message.
void enforce(const std::vector<std::string>& violations, const char* where);

}  // namespace rtlsat::core::selfcheck

// Proof logging is a pure observer: a word certificate on HDPLL and a DRAT
// proof on the CDCL core leave every search counter — decisions, conflicts,
// propagations and the rest — exactly as they are without one.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "bmc/unroll.h"
#include "core/hdpll.h"
#include "itc99/itc99.h"
#include "proof/drat.h"
#include "proof/drat_check.h"
#include "proof/word_check.h"
#include "proof/word_writer.h"
#include "sat/solver.h"

namespace rtlsat {
namespace {

// Drops the wall-clock time.* buckets and the proof.* size counters, which
// exist only when a proof is logged.
std::map<std::string, std::int64_t> search_counters(const Stats& stats) {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, value] : stats.all()) {
    if (name.rfind("time.", 0) != 0 && name.rfind("proof.", 0) != 0)
      out[name] = value;
  }
  return out;
}

Stats solve_b13(proof::WordCertWriter* cert) {
  const bmc::BmcInstance instance =
      bmc::unroll(itc99::build("b13"), "1", 30);
  core::HdpllOptions options;
  options.proof = cert;
  core::HdpllSolver solver(instance.circuit, options);
  solver.assume_bool(instance.goal, true);
  EXPECT_EQ(solver.solve().status, core::SolveStatus::kUnsat);
  return solver.stats();
}

// PHP(holes + 1, holes), logged as DRAT originals when `drat` is set.
Stats refute_pigeonhole(int holes, proof::DratWriter* drat) {
  sat::SolverOptions options;
  options.drat = drat;
  sat::Solver solver(options);
  const int pigeons = holes + 1;
  std::vector<std::vector<sat::Var>> var(pigeons, std::vector<sat::Var>(holes));
  for (auto& row : var)
    for (sat::Var& v : row) v = solver.new_var();
  const auto add = [&](const std::vector<sat::Lit>& clause) {
    if (drat != nullptr) {
      std::vector<int> ints;
      for (const sat::Lit l : clause) {
        const int v = static_cast<int>(l.var()) + 1;
        ints.push_back(l.positive() ? v : -v);
      }
      drat->original(ints);
    }
    solver.add_clause(clause);
  };
  for (const auto& row : var) {
    std::vector<sat::Lit> clause;
    for (const sat::Var v : row) clause.emplace_back(v, true);
    add(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p = 0; p < pigeons; ++p)
      for (int q = p + 1; q < pigeons; ++q)
        add({sat::Lit(var[p][h], false), sat::Lit(var[q][h], false)});
  EXPECT_EQ(solver.solve(), sat::Result::kUnsat);
  return solver.stats();
}

TEST(ZeroDrift, ProofLoggingDoesNotChangeTheSearch) {
  const Stats plain = solve_b13(nullptr);
  proof::WordCertWriter cert;
  const Stats certified = solve_b13(&cert);
  EXPECT_GT(plain.get("hdpll.decisions"), 0);
  EXPECT_GT(plain.get("hdpll.conflicts"), 0);
  EXPECT_GT(plain.get("prop.propagations"), 0);
  EXPECT_GT(certified.get("proof.records"), 0);
  EXPECT_EQ(search_counters(plain), search_counters(certified));
  const proof::WordCheckResult word = proof::word_check(cert.str());
  EXPECT_TRUE(word.ok) << word.error;
  EXPECT_TRUE(word.refuted);

  const Stats cdcl = refute_pigeonhole(6, nullptr);
  proof::DratWriter drat;
  const Stats logged = refute_pigeonhole(6, &drat);
  EXPECT_GT(cdcl.get("sat.conflicts"), 0);
  EXPECT_EQ(search_counters(cdcl), search_counters(logged));
  const proof::DratCheckResult check =
      proof::drat_check(drat.dimacs(), drat.proof(), drat.binary());
  EXPECT_TRUE(check.ok) << check.error;
}

}  // namespace
}  // namespace rtlsat

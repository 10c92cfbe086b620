// DRAT proof writer for the Boolean CDCL core.
//
// sat::Solver calls original()/learned()/deleted() as it adds problem
// clauses, learns 1UIP clauses (post-minimization, so deletions later
// match the stored form), and reduces its learnt DB. The writer captures
// the problem in DIMACS form and the derivation in DRAT, either the
// standard text format or the binary encoding ('a'/'d' tagged,
// ULEB128-compressed literals) used by drat-trim.
//
// Literals are signed DIMACS integers (variable ≥ 1, negative = negated);
// the solver maps its internal 0-based codes before calling, keeping
// src/proof independent of src/sat (sat links against proof, not the
// other way round).
//
// Zero-overhead-when-off contract: the solver holds a nullable pointer to
// this class and tests it once per cold event (clause added, clause
// learned, DB reduced) — nothing on the propagation hot path changes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rtlsat::proof {

class DratWriter {
 public:
  struct Options {
    bool binary = false;  // binary DRAT instead of text
  };

  DratWriter() = default;
  explicit DratWriter(Options options) : options_(options) {}

  // Problem clause, exactly as handed to Solver::add_clause (before the
  // solver's duplicate/tautology simplification — the checker's unit
  // propagation re-derives anything the simplifier concluded).
  void original(const std::vector<int>& clause);
  // Learned clause in its stored (post-minimization) form. An empty
  // clause concludes the proof.
  void learned(const std::vector<int>& clause);
  void empty_clause() { learned({}); }
  // Learnt clause dropped by DB reduction ⟹ DRAT 'd' line.
  void deleted(const std::vector<int>& clause);

  // Complete DIMACS document ("p cnf <vars> <clauses>" + captured
  // problem clauses).
  std::string dimacs() const;
  const std::string& proof() const { return proof_; }
  bool binary() const { return options_.binary; }

  std::int64_t original_clauses() const { return num_original_; }
  std::int64_t proof_steps() const { return num_steps_; }
  std::int64_t proof_deletions() const { return num_deletions_; }
  bool concluded() const { return concluded_; }

  // Writes dimacs() and proof() to files. Returns false (with a message
  // in *error when non-null) on I/O failure.
  bool save(const std::string& dimacs_path, const std::string& proof_path,
            std::string* error) const;

 private:
  void emit(char tag, const std::vector<int>& clause);

  Options options_;
  std::string formula_;  // problem clauses, one DIMACS line each
  std::string proof_;
  std::int64_t num_original_ = 0;
  std::int64_t num_steps_ = 0;
  std::int64_t num_deletions_ = 0;
  int max_var_ = 0;
  bool concluded_ = false;
};

}  // namespace rtlsat::proof

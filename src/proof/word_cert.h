// Shared vocabulary of the word-level (HDPLL) certificate format.
//
// A certificate is JSONL: one JSON object per line, discriminated by its
// "t" member. The writer (word_writer.h, fed by core/proof_log) and the
// checker (word_check.h) both speak in terms of these structs; the JSON
// grammar itself is documented in docs/proofs.md.
//
// Everything here is primitive — net ids, intervals as int64 pairs,
// clause ids — so src/proof stays independent of src/core and src/ir.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fme/linear.h"
#include "proof/int128.h"

namespace rtlsat::proof {

// A hybrid clause literal. Boolean literal: "net == lo" with lo==hi∈{0,1}
// and positive==true (Boolean negation flips the value, not the flag).
// Word literal: "net ∈ [lo,hi]" when positive, "net ∉ [lo,hi]" otherwise.
struct WordLit {
  std::uint32_t net = 0;
  bool is_bool = false;
  bool positive = true;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

// One replayed deduction: after this step, `net`'s interval is [lo,hi].
// kind: 'a' assumption, 'd' decision, 'n' node rule (id = node net id),
// 'c' clause propagation (id = clause id).
struct WordStep {
  std::uint32_t net = 0;
  char kind = 'n';
  std::uint32_t id = 0;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

// Terminal conflict of a replay: which rule ('n', id = node) or clause
// ('c', id = clause) fired on an empty/falsified state. kind 0 = none.
struct WordConflict {
  char kind = 0;
  std::uint32_t id = 0;
};

// FME sub-certificate: the linear system as extracted (variables are
// either solver nets or per-node auxiliaries; constraints are tagged with
// the node that encodes them) plus the refutation fme::Solver recorded
// while it proved the system UNSAT.
struct FmeCertVar {
  bool is_net = false;
  std::uint32_t id = 0;  // net id, or the node the auxiliary belongs to
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

struct FmeCertCon {
  std::uint32_t node = 0;  // node whose encoding contributed this row
  std::vector<std::pair<std::uint32_t, std::int64_t>> terms;  // (var, coeff)
  Int128 bound = 0;
};

struct FmeCert {
  std::vector<FmeCertVar> vars;
  std::vector<FmeCertCon> cons;
  fme::Certificate refutation;
};

// One two-case (or n-way) probe branch of predicate learning.
struct ProbeWay {
  std::vector<std::pair<std::uint32_t, std::int64_t>> assign;  // (net, value)
  std::vector<WordStep> steps;
  WordConflict conflict;
};

// One half of a word-interval probe.
struct ProbeCase {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  std::vector<WordStep> steps;
  WordConflict conflict;
};

}  // namespace rtlsat::proof

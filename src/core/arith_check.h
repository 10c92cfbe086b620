// End-game arithmetic check (paper §2.4): once constraint propagation is
// bounds-consistent and every Boolean variable is assigned, the remaining
// data-path operators are all linear relations over the solution box P.
// This module extracts those relations as an fme::System and asks the
// Fourier–Motzkin solver for an integer point.
//
// Only nodes with at least one non-point incident net are extracted:
// fully-point nodes were already checked exactly by propagation.
#pragma once

#include <unordered_map>

#include "fme/fme.h"
#include "prop/engine.h"

namespace rtlsat::core {

// Proof-logging side channel: the extracted system plus the metadata a
// certificate needs to re-derive it — which solver net each FME variable
// stands for (auxiliaries carry the node that introduced them instead) and
// which node's encoding produced each constraint row — and the refutation
// the FME solve recorded. Filled only on an UNSAT verdict.
struct ArithCertCapture {
  fme::System system;
  fme::Certificate refutation;
  struct VarInfo {
    bool is_net = false;
    std::uint32_t id = 0;  // net id, or the owning node for an auxiliary
  };
  std::vector<VarInfo> vars;           // parallel to system variables
  std::vector<std::uint32_t> row_node; // parallel to system constraints
};

struct ArithCheckResult {
  bool sat = false;
  // The FME solver's stop token fired mid-check: `sat == false` then means
  // "abandoned", not "refuted". Callers must bail out (timeout/cancel)
  // instead of learning a conflict from it.
  bool stopped = false;
  // On sat: a concrete value for every net (points taken from the engine,
  // the rest from the FME model / interval minima).
  std::vector<std::int64_t> values;
};

// Precondition: engine not in conflict and all 1-bit nets assigned.
// `capture` (optional) receives the extracted system and its refutation on
// an UNSAT verdict.
ArithCheckResult arith_check(const prop::Engine& engine, fme::Solver& solver,
                             ArithCertCapture* capture = nullptr);

}  // namespace rtlsat::core

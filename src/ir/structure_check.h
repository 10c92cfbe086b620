// Structural well-formedness checking over a Circuit's raw node vector —
// the single source of truth shared by Circuit::validate() (which aborts on
// the first defect) and the lint rule registry in src/lint/ (which turns
// every defect into a Diagnostic).
//
// The builder API cannot produce most of these defects (it asserts at
// construction time); they arise from hand-assembled node vectors,
// deserializers, and future frontends — exactly the inputs the lint CLI is
// for. Circuit::add_unchecked() exists so such netlists can be represented
// at all.
#pragma once

#include <functional>
#include <string>

#include "ir/circuit.h"

namespace rtlsat::ir {

// One structural defect. `kind` maps 1:1 onto a lint rule id (see
// structure_defect_id); `net` is the offending node.
struct StructuralDefect {
  enum class Kind {
    kOperandCount,   // wrong number of operands for the op
    kOperandWidth,   // operand/result width inconsistency
    kBooleanWidth,   // boolean gate or predicate with non-1-bit net
    kMuxSelect,      // mux select is not 1-bit
    kExtractBounds,  // kExtract bit range out of the operand's width
    kImmRange,       // kMulC/kShlC/kShrC immediate out of range
    kMaxWidth,       // net width outside [1, kMaxWidth]
    kConstRange,     // kConst value outside the width's domain
    kCombCycle,      // operand does not precede the node (not a DAG)
    kUndrivenNet,    // operand id is kNoNet or past the node vector
    kUnnamedInput,   // primary input without a name
  };
  Kind kind = Kind::kOperandCount;
  NetId net = kNoNet;
  std::string message;
};

// The stable kebab-case identifier of a defect kind ("operand-count", …).
std::string_view structure_defect_id(StructuralDefect::Kind kind);

// Runs every structural check over every node from `first` on, invoking
// `emit` once per defect found. Each node's checks read only the node and
// its operands, so a circuit that grew by appending is re-checked by
// passing its old size as `first`. Checks are ordered so that a defect
// that would make later checks read out of bounds (undriven/cyclic
// operands, zero widths) suppresses those later checks for that node.
void check_structure(const Circuit& circuit,
                     const std::function<void(StructuralDefect)>& emit,
                     NetId first = 0);

}  // namespace rtlsat::ir

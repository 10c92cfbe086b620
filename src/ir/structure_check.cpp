#include "ir/structure_check.h"

#include "util/strings.h"

namespace rtlsat::ir {

std::string_view structure_defect_id(StructuralDefect::Kind kind) {
  using Kind = StructuralDefect::Kind;
  switch (kind) {
    case Kind::kOperandCount: return "operand-count";
    case Kind::kOperandWidth: return "operand-width";
    case Kind::kBooleanWidth: return "boolean-width";
    case Kind::kMuxSelect: return "mux-select";
    case Kind::kExtractBounds: return "extract-bounds";
    case Kind::kImmRange: return "imm-range";
    case Kind::kMaxWidth: return "max-width";
    case Kind::kConstRange: return "const-range";
    case Kind::kCombCycle: return "comb-cycle";
    case Kind::kUndrivenNet: return "undriven-net";
    case Kind::kUnnamedInput: return "unnamed-input";
  }
  return "?";
}

namespace {

// Expected operand count per op; −1 for the n-ary gates (≥ 2).
int expected_operands(Op op) {
  switch (op) {
    case Op::kInput:
    case Op::kConst:
      return 0;
    case Op::kNot:
    case Op::kMulC:
    case Op::kShlC:
    case Op::kShrC:
    case Op::kNotW:
    case Op::kExtract:
    case Op::kZext:
      return 1;
    case Op::kXor:
    case Op::kAdd:
    case Op::kSub:
    case Op::kConcat:
    case Op::kMin:
    case Op::kMax:
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
      return 2;
    case Op::kMux:
      return 3;
    case Op::kAnd:
    case Op::kOr:
      return -1;
  }
  return -1;
}

}  // namespace

void check_structure(const Circuit& circuit,
                     const std::function<void(StructuralDefect)>& emit,
                     NetId first) {
  using Kind = StructuralDefect::Kind;
  const std::size_t n = circuit.num_nets();
  for (NetId id = first; id < n; ++id) {
    const Node& node = circuit.node(id);
    auto defect = [&](Kind kind, std::string message) {
      emit({kind, id, std::move(message)});
    };

    // Width bounds first: an out-of-range width poisons every width
    // comparison and the domain computation below.
    const bool width_ok = node.width >= 1 && node.width <= kMaxWidth;
    if (!width_ok) {
      defect(Kind::kMaxWidth,
             str_format("%s node has width %d, outside [1, %d]",
                        std::string(op_name(node.op)).c_str(), node.width,
                        kMaxWidth));
    }

    // Operand references: dangling ids poison everything downstream;
    // forward references break the DAG order every consumer relies on
    // (evaluate(), the propagation engine's fixpoint, conflict analysis).
    bool operands_ok = true;
    for (const NetId o : node.operands) {
      if (o == kNoNet || o >= n) {
        operands_ok = false;
        defect(Kind::kUndrivenNet,
               str_format("operand net %u of %s node is not driven", o,
                          std::string(op_name(node.op)).c_str()));
      } else if (o >= id) {
        operands_ok = false;
        defect(Kind::kCombCycle,
               str_format("operand n%u does not precede %s node n%u — the "
                          "netlist has a combinational cycle",
                          o, std::string(op_name(node.op)).c_str(), id));
      }
    }

    const int arity = expected_operands(node.op);
    const auto count = static_cast<int>(node.operands.size());
    if (arity >= 0 ? count != arity : count < 2) {
      defect(Kind::kOperandCount,
             str_format("%s node has %d operand%s, expected %s",
                        std::string(op_name(node.op)).c_str(), count,
                        count == 1 ? "" : "s",
                        arity >= 0 ? std::to_string(arity).c_str() : "≥ 2"));
      operands_ok = false;
    }

    if (node.op == Op::kInput && node.name.empty()) {
      defect(Kind::kUnnamedInput, "primary input has no name");
    }
    if (node.op == Op::kConst && width_ok &&
        !Interval::full_width(node.width).contains(node.imm)) {
      defect(Kind::kConstRange,
             str_format("constant %lld does not fit in %d bit%s",
                        static_cast<long long>(node.imm), node.width,
                        node.width == 1 ? "" : "s"));
    }

    if (!width_ok || !operands_ok) continue;
    const auto w = [&](std::size_t i) {
      return circuit.node(node.operands[i]).width;
    };

    if (is_boolean_gate(node.op)) {
      if (node.width != 1) {
        defect(Kind::kBooleanWidth,
               str_format("boolean %s gate has width %d, expected 1",
                          std::string(op_name(node.op)).c_str(), node.width));
      }
      for (std::size_t i = 0; i < node.operands.size(); ++i) {
        if (w(i) != 1) {
          defect(Kind::kBooleanWidth,
                 str_format("operand n%u of boolean %s gate has width %d, "
                            "expected 1",
                            node.operands[i],
                            std::string(op_name(node.op)).c_str(), w(i)));
        }
      }
      continue;
    }
    if (is_comparator(node.op)) {
      if (node.width != 1) {
        defect(Kind::kBooleanWidth,
               str_format("%s predicate has width %d, expected 1",
                          std::string(op_name(node.op)).c_str(), node.width));
      }
      if (w(0) != w(1)) {
        defect(Kind::kOperandWidth,
               str_format("%s predicate compares widths %d and %d",
                          std::string(op_name(node.op)).c_str(), w(0), w(1)));
      }
      continue;
    }

    switch (node.op) {
      case Op::kMux:
        if (w(0) != 1) {
          defect(Kind::kMuxSelect,
                 str_format("mux select n%u has width %d, expected 1",
                            node.operands[0], w(0)));
        }
        if (w(1) != node.width || w(2) != node.width) {
          defect(Kind::kOperandWidth,
                 str_format("mux branches have widths %d and %d, result has "
                            "width %d",
                            w(1), w(2), node.width));
        }
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kMin:
      case Op::kMax:
        if (w(0) != node.width || w(1) != node.width) {
          defect(Kind::kOperandWidth,
                 str_format("%s operand widths %d, %d do not match result "
                            "width %d",
                            std::string(op_name(node.op)).c_str(), w(0), w(1),
                            node.width));
        }
        break;
      case Op::kMulC:
        if (w(0) != node.width) {
          defect(Kind::kOperandWidth,
                 str_format("mulc operand width %d does not match result "
                            "width %d",
                            w(0), node.width));
        }
        if (node.imm < 0) {
          defect(Kind::kImmRange,
                 str_format("mulc multiplier %lld is negative",
                            static_cast<long long>(node.imm)));
        }
        break;
      case Op::kShlC:
      case Op::kShrC:
        if (w(0) != node.width) {
          defect(Kind::kOperandWidth,
                 str_format("%s operand width %d does not match result "
                            "width %d",
                            std::string(op_name(node.op)).c_str(), w(0),
                            node.width));
        }
        if (node.imm < 0 || node.imm >= node.width) {
          defect(Kind::kImmRange,
                 str_format("shift amount %lld outside [0, %d)",
                            static_cast<long long>(node.imm), node.width));
        }
        break;
      case Op::kNotW:
        if (w(0) != node.width) {
          defect(Kind::kOperandWidth,
                 str_format("notw operand width %d does not match result "
                            "width %d",
                            w(0), node.width));
        }
        break;
      case Op::kConcat:
        if (w(0) + w(1) != node.width) {
          defect(Kind::kOperandWidth,
                 str_format("concat of widths %d and %d has result width %d, "
                            "expected %d",
                            w(0), w(1), node.width, w(0) + w(1)));
        }
        break;
      case Op::kExtract:
        if (node.imm2 < 0 || node.imm2 > node.imm || node.imm >= w(0)) {
          defect(Kind::kExtractBounds,
                 str_format("extract [%lld:%lld] out of bounds for a %d-bit "
                            "operand",
                            static_cast<long long>(node.imm),
                            static_cast<long long>(node.imm2), w(0)));
        } else if (node.imm - node.imm2 + 1 != node.width) {
          defect(Kind::kOperandWidth,
                 str_format("extract [%lld:%lld] has result width %d, "
                            "expected %lld",
                            static_cast<long long>(node.imm),
                            static_cast<long long>(node.imm2), node.width,
                            static_cast<long long>(node.imm - node.imm2 + 1)));
        }
        break;
      case Op::kZext:
        if (node.width < w(0)) {
          defect(Kind::kOperandWidth,
                 str_format("zext narrows a %d-bit operand to %d bits", w(0),
                            node.width));
        }
        break;
      default:
        break;
    }
  }
}

}  // namespace rtlsat::ir

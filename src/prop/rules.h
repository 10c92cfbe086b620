// Per-operator hybrid constraint propagation rules (paper §2.2, §4.2).
//
// For one circuit node, node_rules() reads the current intervals of the
// node's output and operand nets and emits every narrowing the operator's
// semantics implies — forward onto the output and backward onto the
// operands. Rules are sound over-approximations; running them to fixpoint
// over all nodes yields bounds consistency. They never *widen*: each
// emitted interval is already intersected with the net's current one.
//
// Emitting an empty interval signals that the constraint is violated under
// the current domains (a conflict).
//
// Rules read their node from an OpTable, a flat copy of the circuit's
// operator nodes, not from ir::Node. rule_may_act() and
// rule_is_idempotent() are the wake conditions the engine checks when it
// queues a node, so that it queues only nodes whose rule can act
// (docs/algorithms.md §1).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "interval/interval.h"
#include "ir/circuit.h"

namespace rtlsat::prop {

// The circuit's operator nodes, flattened for the propagation hot path: one
// 16-byte entry per net (op, width, imm) and every node's operands back to
// back in one array. A rule reads its node without chasing ir::Node's heap
// operand vector and name. Append-only like the circuit: extend() adopts
// the nets added since the last call.
class OpTable {
 public:
  OpTable() = default;
  explicit OpTable(const ir::Circuit& circuit) { extend(circuit); }

  void extend(const ir::Circuit& circuit);

  std::size_t size() const { return entries_.size() - 1; }
  ir::Op op(ir::NetId id) const { return entries_[id].op; }
  int width(ir::NetId id) const { return entries_[id].width; }
  bool is_bool(ir::NetId id) const { return entries_[id].width == 1; }
  std::int64_t imm(ir::NetId id) const { return entries_[id].imm; }
  int imm2(ir::NetId id) const { return entries_[id].imm2; }
  std::span<const ir::NetId> operands(ir::NetId id) const {
    return {operands_.data() + entries_[id].first,
            operands_.data() + entries_[id + 1].first};
  }

  friend bool operator==(const OpTable&, const OpTable&) = default;

 private:
  struct Entry {
    ir::Op op = ir::Op::kInput;
    std::uint8_t width = 0;
    std::uint8_t imm2 = 0;    // kExtract lo
    std::uint32_t first = 0;  // offset into operands_; the next entry's ends it
    std::int64_t imm = 0;     // kConst value, kMulC/kShlC/kShrC k, kExtract hi
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  std::vector<Entry> entries_{Entry{}};  // one per net, then an end sentinel
  std::vector<ir::NetId> operands_;
};

struct Narrowing {
  ir::NetId net = ir::kNoNet;
  Interval interval;  // new (smaller or equal) interval for `net`
};

// Appends the narrowings implied by node `id` to `out`. `domain` is indexed
// by net id and must cover the whole circuit.
void node_rules(const OpTable& ops, ir::NetId id,
                const std::vector<Interval>& domain,
                std::vector<Narrowing>& out);

// False only when node_rules(ops, id, domain) would emit nothing. Exact for
// muxes and comparators, whose conditions are cheap state predicates:
//   * a mux with a decided select acts iff its output differs from the
//     chosen arm (the unchosen arm is never read); with a free select, iff
//     the output leaves the arms' hull or misses an arm;
//   * a comparator with a free output acts iff the operands decide it
//     (disjoint, ordered, or equal points); with a decided output, iff the
//     operands violate the asserted order (for x ≤ y: x.hi > y.hi or
//     x.lo > y.lo) or, for (dis)equality, share a point they must not.
// False for inputs and constants, which have no rule; true for every other
// operator. Inline: the engine asks it on every queue push and pop.
bool mux_may_act(const OpTable& ops, ir::NetId id,
                 const std::vector<Interval>& domain);
bool cmp_may_act(const OpTable& ops, ir::NetId id,
                 const std::vector<Interval>& domain);
inline bool rule_may_act(const OpTable& ops, ir::NetId id,
                         const std::vector<Interval>& domain) {
  switch (ops.op(id)) {
    case ir::Op::kInput:
    case ir::Op::kConst: return false;
    case ir::Op::kMux: return mux_may_act(ops, id, domain);
    case ir::Op::kEq:
    case ir::Op::kNe:
    case ir::Op::kLt:
    case ir::Op::kLe: return cmp_may_act(ops, id, domain);
    default: return true;
  }
}

// True when one node_rules() run always reaches the node's local fixpoint,
// so the narrowings it emits cannot make it act again: and, or, not, xor,
// zext.
constexpr bool rule_is_idempotent(ir::Op op) {
  return op == ir::Op::kAnd || op == ir::Op::kOr || op == ir::Op::kNot ||
         op == ir::Op::kXor || op == ir::Op::kZext;
}

}  // namespace rtlsat::prop

#include "core/arith_check.h"

#include "interval/interval_ops.h"
#include "util/assert.h"

namespace rtlsat::core {

namespace {

using fme::Coeff;
using fme::Term;
using ir::NetId;
using ir::Node;
using ir::Op;

class Extractor {
 public:
  explicit Extractor(const prop::Engine& engine) : engine_(engine) {}

  fme::System&& take_system() && { return std::move(system_); }

  fme::Var var_of(NetId net) {
    auto it = var_map_.find(net);
    if (it != var_map_.end()) return it->second;
    const fme::Var v = system_.add_var(engine_.interval(net));
    var_map_.emplace(net, v);
    return v;
  }
  bool has_var(NetId net) const { return var_map_.contains(net); }
  const std::unordered_map<NetId, fme::Var>& var_map() const {
    return var_map_;
  }

  void extract_node(NetId id) {
    const ir::Circuit& circuit = engine_.circuit();
    const Node& n = circuit.node(id);
    // Propagation already verified nodes whose incident nets are all
    // points, and Boolean gates never have interval slack here.
    if (ir::is_boolean_gate(n.op) || ir::is_source(n.op)) return;
    bool any_wide = !engine_.interval(id).is_point();
    for (NetId o : n.operands)
      any_wide = any_wide || !engine_.interval(o).is_point();
    if (!any_wide) return;

    auto term = [&](NetId net, Coeff c) { return Term{var_of(net), c}; };
    const Coeff m = Coeff{1} << n.width;

    switch (n.op) {
      case Op::kMux: {
        const int sel = engine_.bool_value(n.operands[0]);
        RTLSAT_ASSERT_MSG(sel >= 0, "mux select unassigned at end-game");
        const NetId branch = sel == 1 ? n.operands[1] : n.operands[2];
        system_.add_eq({term(id, 1), term(branch, -1)}, 0);
        return;
      }
      case Op::kAdd: {
        // z = x + y − 2^w·o, o ∈ {0,1}.
        const fme::Var o = system_.add_var(Interval(0, 1));
        system_.add_eq({term(n.operands[0], 1), term(n.operands[1], 1),
                        term(id, -1), Term{o, -m}},
                       0);
        return;
      }
      case Op::kSub: {
        // z = x − y + 2^w·o, o ∈ {0,1}.
        const fme::Var o = system_.add_var(Interval(0, 1));
        system_.add_eq({term(n.operands[0], 1), term(n.operands[1], -1),
                        term(id, -1), Term{o, m}},
                       0);
        return;
      }
      case Op::kMulC: {
        // z = k·x − 2^w·o, o ∈ [0, k−1].
        const fme::Var o = system_.add_var(Interval(0, std::max<Coeff>(n.imm - 1, 0)));
        system_.add_eq({term(n.operands[0], n.imm), term(id, -1), Term{o, -m}},
                       0);
        return;
      }
      case Op::kShlC: {
        const Coeff k = Coeff{1} << n.imm;
        const fme::Var o = system_.add_var(Interval(0, std::max<Coeff>(k - 1, 0)));
        system_.add_eq({term(n.operands[0], k), term(id, -1), Term{o, -m}}, 0);
        return;
      }
      case Op::kShrC: {
        // x = 2^k·z + r, r ∈ [0, 2^k−1].
        const Coeff k = Coeff{1} << n.imm;
        const fme::Var r = system_.add_var(Interval(0, k - 1));
        system_.add_eq({term(n.operands[0], 1), term(id, -k), Term{r, -1}}, 0);
        return;
      }
      case Op::kNotW:
        system_.add_eq({term(id, 1), term(n.operands[0], 1)}, m - 1);
        return;
      case Op::kConcat: {
        const Coeff shift = Coeff{1}
                            << engine_.circuit().width(n.operands[1]);
        system_.add_eq({term(id, 1), term(n.operands[0], -shift),
                        term(n.operands[1], -1)},
                       0);
        return;
      }
      case Op::kExtract: {
        // x = a·2^(hi+1) + z·2^lo + b, a and b spanning the outer bits.
        const int hi_bit = static_cast<int>(n.imm);
        const int lo_bit = static_cast<int>(n.imm2);
        const int xw = circuit.width(n.operands[0]);
        const Coeff hi_span = Coeff{1} << (xw - hi_bit - 1);
        const Coeff lo_span = Coeff{1} << lo_bit;
        const fme::Var a = system_.add_var(Interval(0, hi_span - 1));
        const fme::Var b = system_.add_var(Interval(0, lo_span - 1));
        system_.add_eq({term(n.operands[0], 1),
                        Term{a, -(Coeff{1} << (hi_bit + 1))},
                        term(id, -lo_span), Term{b, -1}},
                       0);
        return;
      }
      case Op::kZext:
        system_.add_eq({term(id, 1), term(n.operands[0], -1)}, 0);
        return;
      case Op::kLt:
      case Op::kLe: {
        const int v = engine_.bool_value(id);
        RTLSAT_ASSERT_MSG(v >= 0, "comparator unassigned at end-game");
        const Coeff strict = n.op == Op::kLt ? 1 : 0;
        if (v == 1) {
          // x − y ≤ −strict.
          system_.add_le({term(n.operands[0], 1), term(n.operands[1], -1)},
                         -strict);
        } else {
          // ¬(x < y) ⟺ y − x ≤ 0; ¬(x ≤ y) ⟺ y − x ≤ −1.
          system_.add_le({term(n.operands[1], 1), term(n.operands[0], -1)},
                         strict - 1);
        }
        return;
      }
      case Op::kEq:
      case Op::kNe:
      case Op::kMin:
      case Op::kMax: {
        // Raw comparison/minmax nodes are only linear once the operand
        // order is decided; builder-lowered circuits never contain them.
        const Interval dx = engine_.interval(n.operands[0]);
        const Interval dy = engine_.interval(n.operands[1]);
        if (n.op == Op::kEq || n.op == Op::kNe) {
          const bool want_eq =
              (engine_.bool_value(id) == 1) == (n.op == Op::kEq);
          if (want_eq) {
            system_.add_eq({term(n.operands[0], 1), term(n.operands[1], -1)},
                           0);
            return;
          }
          if (!dx.intersects(dy)) return;  // already separated
          RTLSAT_UNREACHABLE(
              "undecided disequality at end-game; lower eq via Circuit::add_eq");
        }
        const Interval lt = iops::fwd_lt(dx, dy);
        RTLSAT_ASSERT_MSG(lt.is_point(),
                          "undecided min/max at end-game; use lowered form");
        const bool x_lt_y = lt.lo() == 1;
        const NetId chosen = (n.op == Op::kMin) == x_lt_y ? n.operands[0]
                                                          : n.operands[1];
        system_.add_eq({term(id, 1), term(chosen, -1)}, 0);
        return;
      }
      default:
        RTLSAT_UNREACHABLE("unhandled op in arith_check");
    }
  }

  const fme::System& system() const { return system_; }

 private:
  const prop::Engine& engine_;
  fme::System system_;
  std::unordered_map<NetId, fme::Var> var_map_;
};

}  // namespace

ArithCheckResult arith_check(const prop::Engine& engine, fme::Solver& solver,
                             ArithCertCapture* capture) {
  RTLSAT_ASSERT(!engine.in_conflict());
  const ir::Circuit& circuit = engine.circuit();

  Extractor extractor(engine);
  // Tag every row and auxiliary variable with the node whose encoding
  // produced it (resize-with-value fills only the entries each
  // extract_node appended). Net variables get relabelled afterwards.
  std::vector<std::uint32_t> row_node;
  std::vector<std::uint32_t> var_owner;
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    extractor.extract_node(id);
    if (capture != nullptr) {
      row_node.resize(extractor.system().constraints().size(), id);
      var_owner.resize(extractor.system().num_vars(), id);
    }
  }

  ArithCheckResult result;
  std::vector<std::int64_t> model;
  const fme::Result fme_result =
      solver.solve(extractor.system(), &model,
                   capture != nullptr ? &capture->refutation : nullptr);
  if (fme_result == fme::Result::kUnsat) {
    if (capture != nullptr) {
      capture->row_node = std::move(row_node);
      capture->vars.resize(var_owner.size());
      for (std::size_t v = 0; v < var_owner.size(); ++v)
        capture->vars[v] = {false, var_owner[v]};
      for (const auto& [net, v] : extractor.var_map())
        capture->vars[v] = {true, net};
      capture->system = std::move(extractor).take_system();
    }
    return result;  // sat = false
  }
  if (fme_result == fme::Result::kUnknown) {
    result.stopped = true;  // stop token fired: no verdict, caller bails
    return result;
  }

  result.sat = true;
  result.values.resize(circuit.num_nets());
  for (NetId id = 0; id < circuit.num_nets(); ++id) {
    const Interval& iv = engine.interval(id);
    if (iv.is_point()) {
      result.values[id] = iv.lo();
    } else if (extractor.has_var(id)) {
      result.values[id] = model[extractor.var_map().at(id)];
    } else {
      result.values[id] = iv.lo();  // unconstrained: any in-box value
    }
  }
  return result;
}

}  // namespace rtlsat::core

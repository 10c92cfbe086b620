#include "bmc/incremental.h"

#include "bmc/unroll.h"
#include "presolve/analyze.h"
#include "trace/trace.h"
#include "util/assert.h"
#include "util/strings.h"

namespace rtlsat::bmc {

using ir::NetId;

IncrementalBmc::IncrementalBmc(const ir::SeqCircuit& seq, std::string property,
                               core::HdpllOptions solver_options,
                               bool cumulative, bool presolve)
    : seq_(seq),
      property_(std::move(property)),
      cumulative_(cumulative),
      tracer_(solver_options.tracer != nullptr ? solver_options.tracer
                                               : &trace::global()) {
  seq_.validate();
  if (presolve) invariants_ = presolve::reach_invariants(seq_);
  prop_net_ = seq_.property(property_);
  RTLSAT_ASSERT_MSG(prop_net_ != ir::kNoNet, "unknown property");
  circuit_.set_name(
      str_format("%s_%s(inc)", seq_.comb().name().c_str(), property_.c_str()));
  // Frame 0 state: reset values, exactly as unroll_impl seeds them.
  for (const ir::Register& r : seq_.registers())
    state_.push_back({r.q, circuit_.add_const(r.init, seq_.comb().width(r.q))});
  // The solver adopts each later growth step through sync_circuit().
  solver_ = std::make_unique<core::HdpllSolver>(circuit_, solver_options);
}

void IncrementalBmc::build_frame() {
  const int frame = static_cast<int>(frame_map_.size());
  frame_map_.push_back(detail::copy_frame(seq_, circuit_, frame, state_));
  const std::vector<NetId>& map = frame_map_.back();
  state_.clear();
  for (const ir::Register& r : seq_.registers())
    state_.push_back({r.q, map[r.d]});
  violation_.push_back(circuit_.add_not(map[prop_net_]));
}

ir::NetId IncrementalBmc::ensure_bound(int bound) {
  RTLSAT_ASSERT(bound >= 1);
  if (const auto it = goal_.find(bound); it != goal_.end()) return it->second;
  const auto before = circuit_.num_nets();
  // unroll(k) builds frames 0..k−1 plus the final frame k; frame f here is
  // node-for-node that expansion's frame f, so extending to `bound` means
  // having frames 0..bound.
  while (frames_built() < bound) build_frame();
  NetId goal = ir::kNoNet;
  if (!cumulative_) {
    goal = violation_[static_cast<std::size_t>(bound)];
  } else {
    // Replicates unroll_any's goal: intermediate violations are collected
    // pre-transition for frames 1..bound−2, plus the final frame — NOT
    // frame bound−1 (its post-transition property value is the final
    // frame's). The fuzz oracle depends on this exact shape.
    std::vector<NetId> violations;
    for (int f = 1; f + 2 <= bound; ++f)
      violations.push_back(violation_[static_cast<std::size_t>(f)]);
    violations.push_back(violation_[static_cast<std::size_t>(bound)]);
    goal = violations.size() == 1 ? violations[0]
                                  : circuit_.add_or(std::move(violations));
  }
  if (circuit_.num_nets() != before) {
    // Only the appended nets can be new defects; self-check builds re-check
    // the whole circuit.
    circuit_.validate(kSelfCheckBuild ? 0 : before);
    tracer_->record(trace::EventKind::kUnroll, 0,
                    static_cast<std::int64_t>(circuit_.num_nets()), bound);
  }
  goal_.emplace(bound, goal);
  return goal;
}

core::SolveResult IncrementalBmc::solve_bound(int bound) {
  const NetId goal = ensure_bound(bound);
  solver_->sync_circuit();
  // Install the reach invariants on any frames built since the last call.
  // A frame-f state net computes the register's value after f transitions
  // from reset, so every assignment yields a reachable state and the
  // invariant bound is a sound persistent assumption. Frame 0 nets are the
  // reset constants and full-domain invariants say nothing — skip both.
  if (!invariants_.empty()) {
    const std::vector<ir::Register>& regs = seq_.registers();
    for (; invariant_frames_done_ < frame_map_.size();
         ++invariant_frames_done_) {
      for (std::size_t i = 0; i < regs.size(); ++i) {
        const NetId q = frame_map_[invariant_frames_done_][regs[i].q];
        if (circuit_.node(q).op == ir::Op::kConst) continue;
        if (invariants_[i].contains(circuit_.domain(q))) continue;
        solver_->assume(q, invariants_[i]);
        ++invariants_assumed_;
      }
    }
  }
  return solver_->solve({{goal, Interval::point(1)}});
}

std::string IncrementalBmc::name(int bound) const {
  return str_format("%s_%s(%d)", seq_.comb().name().c_str(), property_.c_str(),
                    bound);
}

}  // namespace rtlsat::bmc

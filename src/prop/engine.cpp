#include "prop/engine.h"

#include <algorithm>

#include "trace/trace.h"
#include "util/log.h"

namespace rtlsat::prop {

using ir::NetId;

Engine::Engine(const ir::Circuit& circuit)
    : circuit_(circuit), tracer_(&trace::global()) {
  sync_circuit();
}

void Engine::sync_circuit() {
  RTLSAT_ASSERT_MSG(level_ == 0, "sync_circuit: engine must be at root level");
  const NetId old_nets = static_cast<NetId>(domain_.size());
  const NetId num_nets = circuit_.num_nets();
  if (old_nets == num_nets) return;
  ops_.extend(circuit_);
  domain_.reserve(num_nets);
  latest_.resize(num_nets, -1);
  queued_.resize(num_nets, 0);
  // Each new net's slice is sized for the readers this call appends to it;
  // only old nets' slices grow in add_reader().
  reader_slice_.resize(num_nets);
  for (NetId id = old_nets; id < num_nets; ++id) {
    for (NetId o : ops_.operands(id))
      if (o >= old_nets) ++reader_slice_[o].capacity;
  }
  auto arena_end = static_cast<std::uint32_t>(reader_arena_.size());
  for (NetId id = old_nets; id < num_nets; ++id) {
    reader_slice_[id].begin = arena_end;
    arena_end += reader_slice_[id].capacity;
  }
  reader_arena_.resize(arena_end);
  for (NetId id = old_nets; id < num_nets; ++id) {
    // Constants are pinned from the start; everything else gets its full
    // width domain. Initial domains are universal facts and need no events.
    domain_.push_back(ops_.op(id) == ir::Op::kConst
                          ? Interval::point(ops_.imm(id))
                          : Interval::full_width(ops_.width(id)));
    for (NetId o : ops_.operands(id)) add_reader(o, id);
    // Queue every new node so the next propagate() establishes bounds
    // consistency over it: new nodes read old (possibly already-narrowed)
    // nets, and constant-fed nodes (a concat of a pinned high part, a
    // comparator against a constant) must tighten before the first
    // decision, or the structural strategy justifies operators that were
    // never really free. Old nodes need no re-examination: their operand
    // domains did not change.
    enqueue_node(id);
  }
}

void Engine::add_reader(NetId net, NetId reader) {
  ReaderSlice& s = reader_slice_[net];
  if (s.size == s.capacity) {
    // Full: move the slice to the arena's end with its capacity doubled.
    const auto begin = static_cast<std::uint32_t>(reader_arena_.size());
    const std::uint32_t capacity = std::max<std::uint32_t>(2 * s.size, 1);
    reader_arena_.resize(begin + capacity);
    std::copy_n(reader_arena_.begin() + s.begin, s.size,
                reader_arena_.begin() + begin);
    s.begin = begin;
    s.capacity = capacity;
  }
  reader_arena_[s.begin + s.size++] = reader;
}

void Engine::enqueue_all_nodes() {
  for (NetId id = 0; id < static_cast<NetId>(domain_.size()); ++id)
    enqueue_node(id);
}

bool Engine::narrow(NetId net, const Interval& to, ReasonKind kind,
                    std::uint32_t reason_id,
                    std::span<const std::int32_t> antecedents) {
  RTLSAT_ASSERT(!conflict_.valid);
  const Interval next = domain_[net].intersect(to);
  if (next == domain_[net]) return true;
  if (next.is_empty()) {
    fail(kind, reason_id, antecedents);
    conflict_.net = net;
    if (latest_[net] >= 0) conflict_.antecedents.push_back(latest_[net]);
    tracer_->record(trace::EventKind::kPropConflict, level_, net,
                    static_cast<std::int64_t>(kind));
    return false;
  }
  const std::size_t ante_begin = arena_.size();
  arena_.insert(arena_.end(), antecedents.begin(), antecedents.end());
  record_event(net, next, kind, reason_id, ante_begin);
  return true;
}

void Engine::record_event(NetId net, const Interval& next, ReasonKind kind,
                          std::uint32_t reason_id, std::size_t ante_begin) {
  Event ev;
  ev.net = net;
  ev.prev = domain_[net];
  ev.cur = next;
  ev.level = level_;
  ev.kind = kind;
  ev.reason_id = reason_id;
  ev.prev_on_net = latest_[net];
  ev.ante_begin = static_cast<std::uint32_t>(ante_begin);
  ev.ante_end = static_cast<std::uint32_t>(arena_.size());
  latest_[net] = static_cast<std::int32_t>(trail_.size());
  domain_[net] = next;
  if (!ops_.is_bool(net)) ++num_datapath_narrowings_;
  if (tracer_->verbose()) {
    tracer_->record(trace::EventKind::kNarrowing, level_, net,
                    static_cast<std::int64_t>(next.count()));
  }
  trail_.push_back(ev);
  enqueue_neighbourhood(net);
}

void Engine::enqueue_node(NetId node) {
  if (queued_[node] || node == quiet_) return;
  if (!rule_may_act(ops_, node, domain_)) {
    if constexpr (kSelfCheckBuild) check_settled(node);
    return;
  }
  queued_[node] = 1;
  queue_.push_back(node);
}

void Engine::check_settled(NetId node) const {
  std::vector<Narrowing> out;  // scratch_ may hold the batch being recorded
  node_rules(ops_, node, domain_, out);
  RTLSAT_ASSERT_MSG(out.empty(), "propagate: a settled node's rule narrows");
}

void Engine::enqueue_neighbourhood(NetId net) {
  enqueue_node(net);  // the driver node re-examines its own inputs
  for (NetId reader : readers(net)) enqueue_node(reader);
}

void Engine::append_incident_events(NetId node, NetId skip,
                                    std::vector<std::int32_t>& out) const {
  auto add = [&](NetId n) {
    if (n == skip) return;
    const std::int32_t e = latest_[n];
    if (e >= 0) out.push_back(e);
  };
  add(node);
  for (NetId o : ops_.operands(node)) add(o);
}

bool Engine::propagate() {
  RTLSAT_ASSERT(!conflict_.valid);
  while (!queue_.empty()) {
    // Early out on cancellation/deadline: sound because the queue keeps its
    // pending work (see set_stop's contract in the header).
    if (stop_ != nullptr && --stop_countdown_ <= 0) {
      stop_countdown_ = kStopCheckInterval;
      if (stop_->stop_requested()) return true;
    }
    const NetId node = queue_.back();
    queue_.pop_back();
    queued_[node] = 0;
    if (!rule_may_act(ops_, node, domain_)) {
      ++num_skipped_wakeups_;
      if constexpr (kSelfCheckBuild) check_settled(node);
      continue;
    }
    ++num_propagations_;
    scratch_.clear();
    node_rules(ops_, node, domain_, scratch_);
    quiet_ = rule_is_idempotent(ops_.op(node)) ? node : ir::kNoNet;
    for (const Narrowing& nw : scratch_) {
      if (nw.interval.is_empty()) {
        fail(ReasonKind::kNode, node, {});
        conflict_.net = nw.net;
        append_incident_events(node, ir::kNoNet, conflict_.antecedents);
        tracer_->record(trace::EventKind::kPropConflict, level_, nw.net,
                        static_cast<std::int64_t>(ReasonKind::kNode));
        // Drain the queue so a later propagate() starts clean.
        for (NetId q : queue_) queued_[q] = 0;
        queue_.clear();
        quiet_ = ir::kNoNet;
        return false;
      }
      // The rule result was computed against the domains as they were when
      // node_rules ran; an earlier narrowing in this same batch may already
      // have tightened the net further, so re-intersect.
      const Interval next = domain_[nw.net].intersect(nw.interval);
      if (next == domain_[nw.net]) continue;
      const std::size_t ante_begin = arena_.size();
      append_incident_events(node, nw.net, arena_);
      record_event(nw.net, next, ReasonKind::kNode, node, ante_begin);
    }
    quiet_ = ir::kNoNet;
    // An idempotent rule reached its own fixpoint in one run.
    if constexpr (kSelfCheckBuild) {
      if (rule_is_idempotent(ops_.op(node))) check_settled(node);
    }
  }
  return true;
}

void Engine::rollback_to(std::size_t mark) {
  RTLSAT_ASSERT(mark <= trail_.size());
  for (std::size_t& low_water : low_water_)
    low_water = std::min(low_water, mark);
  if (mark < trail_.size()) arena_.resize(trail_[mark].ante_begin);
  while (trail_.size() > mark) {
    const Event& ev = trail_.back();
    domain_[ev.net] = ev.prev;
    latest_[ev.net] = ev.prev_on_net;
    trail_.pop_back();
  }
  for (NetId q : queue_) queued_[q] = 0;
  queue_.clear();
  clear_conflict();
}

void Engine::backtrack_to_level(std::uint32_t level) {
  std::size_t keep = trail_.size();
  while (keep > 0 && trail_[keep - 1].level > level) --keep;
  rollback_to(keep);
  level_ = level;
}

bool Engine::all_booleans_assigned() const {
  for (NetId id = 0; id < ops_.size(); ++id) {
    if (ops_.is_bool(id) && !domain_[id].is_point()) return false;
  }
  return true;
}

}  // namespace rtlsat::prop

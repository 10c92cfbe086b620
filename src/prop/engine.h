// Event-driven hybrid constraint propagation engine with an implication
// trail (paper §2.2 and the Ddeduce()/implication-graph machinery of §2.4).
//
// The engine owns one interval per net and runs the per-operator rules of
// prop/rules.h to a bounds-consistency fixpoint. Every narrowing is logged
// as a trail Event carrying its *reason* (which node or clause implied it)
// and its *antecedents* (indices of the trail events whose intervals fed
// the rule). The trail is exactly the hybrid implication graph IG(N,E):
// nodes are events, edges run from antecedent to consequence.
//
// A narrowing offers the net's driver and every reader to the queue, which
// checks each node's wake condition at push time (Schulte & Stuckey's
// propagator wake conditions): an idempotent rule (and, or, not, xor, zext)
// is never queued by its own narrowings, and a node whose exact state
// predicate (rule_may_act) says its rule would emit nothing is refused. A
// pop checks the predicate again, because later narrowings may have
// settled the node while it waited; such a pop runs no rule. The queue is
// a LIFO stack. Self-check builds run the rule of every refused or skipped
// node and abort if it would have narrowed.
//
// Narrowings are monotonic (intervals only shrink) so the fixpoint
// terminates on the finite circuit domains, and the trail supports
// chronological undo for backtracking and for the probe/rollback cycle of
// §3's recursive learning.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "interval/interval.h"
#include "ir/circuit.h"
#include "prop/rules.h"
#include "util/stop_token.h"

namespace rtlsat::trace {
class Tracer;
}  // namespace rtlsat::trace

namespace rtlsat::prop {

enum class ReasonKind : std::uint8_t {
  kAssumption,  // external fact, e.g. the proposition under test (level 0)
  kDecision,    // a Decide() assignment
  kNode,        // implied by a circuit operator (reason_id = node net)
  kClause,      // implied by a hybrid clause (reason_id = clause index)
};

// One narrowing on the trail. prev_on_net chains the events of a single
// net; Engine::antecedents() lists the latest events of the other nets that
// entered the implying rule (−1-free; initial full domains need none).
struct Event {
  ir::NetId net = ir::kNoNet;
  Interval prev;
  Interval cur;
  std::uint32_t level = 0;
  ReasonKind kind = ReasonKind::kAssumption;
  std::uint32_t reason_id = 0;
  std::int32_t prev_on_net = -1;
  std::uint32_t ante_begin = 0, ante_end = 0;  // slice of the arena

  // A Boolean assignment event: a 1-bit net narrowed to a point.
  bool is_bool_assignment() const { return cur.is_point() && prev.count() == 2; }
};

// What contradicted what when propagation hit an empty interval.
struct Conflict {
  bool valid = false;
  ReasonKind kind = ReasonKind::kNode;
  std::uint32_t reason_id = 0;
  ir::NetId net = ir::kNoNet;               // the net that went empty
  std::vector<std::int32_t> antecedents;    // events jointly responsible
};

class Engine {
 public:
  explicit Engine(const ir::Circuit& circuit);

  const ir::Circuit& circuit() const { return circuit_; }
  // The circuit's operator nodes as a flat table, kept current by
  // sync_circuit(); the hot paths read it instead of ir::Node.
  const OpTable& ops() const { return ops_; }

  const Interval& interval(ir::NetId net) const { return domain_[net]; }
  // −1 unassigned, else 0/1. Net must be 1-bit.
  int bool_value(ir::NetId net) const {
    const Interval& d = domain_[net];
    if (!d.is_point()) return -1;
    return static_cast<int>(d.lo());
  }

  std::uint32_t level() const { return level_; }
  void push_level() { ++level_; }

  // Adopts nets appended to the circuit since the last call (the circuit
  // is append-only, so existing ids keep their meaning): extends the domain
  // / event bookkeeping, the operator table and the reader lists over the
  // new nets only (an old net can only gain readers, and those are new
  // nodes), and queues the new nodes so the next propagate() makes the
  // grown circuit bounds consistent. The constructor is the call from zero
  // nets. Level 0 only — the level-0 trail survives untouched, which is
  // exactly what incremental BMC reuses.
  void sync_circuit();

  // The nodes that read `net`, ascending, one entry per operand slot (a
  // node reading `net` twice is listed twice): ir::fanouts, kept current
  // by sync_circuit() in one flat reader index. Its size is the net's
  // fanout count; the span is valid until the next sync_circuit().
  std::span<const ir::NetId> readers(ir::NetId net) const {
    const ReaderSlice& s = reader_slice_[net];
    return {reader_arena_.data() + s.begin, s.size};
  }

  // Re-queues every node for examination. Needed when a previous
  // propagation round was abandoned mid-flight (a stop token fired and the
  // queue was later cleared by a rollback): the domains are sound but the
  // fixpoint was never reached, so seed the queue as the constructor does.
  void enqueue_all_nodes();

  // Externally narrow a net (assumption, decision, or clause implication).
  // Returns false and records a conflict when the result is empty. A
  // narrowing that does not change the interval is a silent no-op.
  bool narrow(ir::NetId net, const Interval& to, ReasonKind kind,
              std::uint32_t reason_id = 0,
              std::span<const std::int32_t> antecedents = {});

  // Runs node rules to fixpoint. Returns false on conflict.
  bool propagate();

  bool in_conflict() const { return conflict_.valid; }
  const Conflict& conflict() const { return conflict_; }
  // Keeps the antecedent buffer for the next conflict: no conflict after
  // the first few allocates.
  void clear_conflict() {
    conflict_.valid = false;
    conflict_.antecedents.clear();
  }
  // Records a conflict with no net of its own (e.g. an all-false hybrid
  // clause, which has no single net to narrow).
  void fail(ReasonKind kind, std::uint32_t reason_id,
            std::span<const std::int32_t> antecedents) {
    RTLSAT_ASSERT(!conflict_.valid);
    conflict_.valid = true;
    conflict_.kind = kind;
    conflict_.reason_id = reason_id;
    conflict_.net = ir::kNoNet;
    conflict_.antecedents.assign(antecedents.begin(), antecedents.end());
  }

  const std::vector<Event>& trail() const { return trail_; }
  // Latest event on a net; −1 when the net still has its initial domain.
  std::int32_t latest_event(ir::NetId net) const { return latest_[net]; }

  std::size_t mark() const { return trail_.size(); }
  // Undoes all events at trail index ≥ mark and clears any conflict.
  void rollback_to(std::size_t mark);
  // Lowest trail size reached since `reader`'s previous call. A reader that
  // keeps a trail position (the clause database's cursor, the J-frontier)
  // rewinds it past events undone by backtracking — a plain clamp to the
  // current size is not enough, because new events may already have
  // replaced the undone ones.
  enum class TrailReader : std::uint8_t { kClauses, kFrontier };
  std::size_t consume_trail_low_water(TrailReader reader) {
    std::size_t& low_water = low_water_[static_cast<std::size_t>(reader)];
    const std::size_t low = std::min(low_water, trail_.size());
    low_water = trail_.size();
    return low;
  }
  // Undoes all events with level > `level` (events are level-monotone along
  // the trail) and makes `level` current.
  void backtrack_to_level(std::uint32_t level);

  // Antecedents of trail event `i`, besides its implicit prev_on_net.
  std::span<const std::int32_t> antecedents(std::size_t i) const {
    return {arena_.data() + trail_[i].ante_begin,
            arena_.data() + trail_[i].ante_end};
  }

  // True when every 1-bit net inside `mask` (or everywhere if empty) is
  // assigned. Word nets may still be non-point — that is the FME solver's
  // part of the search (§2.4).
  bool all_booleans_assigned() const;

  // Rule calls that ran, and queued nodes popped without running their
  // rule because narrowings after their push settled them. Their sum is
  // the number of pops; a node refused at push time is never popped.
  std::int64_t num_propagations() const { return num_propagations_; }
  std::int64_t num_skipped_wakeups() const { return num_skipped_wakeups_; }
  std::int64_t num_datapath_narrowings() const {
    return num_datapath_narrowings_;
  }

  // Instrumented heap accounting for the progress heartbeat (O(1) reads;
  // see src/trace/memory.h). The implication graph is the trail plus the
  // antecedent arena at capacity (rollback keeps both for the next descent);
  // the interval store is the domain vector.
  std::int64_t implication_graph_bytes() const {
    return static_cast<std::int64_t>(trail_.capacity() * sizeof(Event) +
                                     arena_.capacity() * sizeof(std::int32_t));
  }
  std::int64_t interval_store_bytes() const {
    return static_cast<std::int64_t>(domain_.capacity() * sizeof(Interval));
  }

  // Observability: conflicts are recorded as kPropConflict events and, when
  // the tracer is verbose, every narrowing as a kNarrowing event. Defaults
  // to trace::global() (disabled unless RTLSAT_TRACE is set); the owning
  // solver overrides it with its own tracer. Never null.
  void set_tracer(trace::Tracer* tracer) {
    RTLSAT_ASSERT(tracer != nullptr);
    tracer_ = tracer;
  }
  trace::Tracer* tracer() const { return tracer_; }

  // Cooperative cancellation: when set, propagate() polls the token every
  // few thousand queue pops and, if it fired, returns true EARLY — no
  // conflict, but also no fixpoint (the queue keeps its pending work, so a
  // later propagate() resumes correctly). Callers that install a token must
  // therefore re-check it after every propagation round before trusting
  // bounds consistency; HdpllSolver does exactly that. Null = never stop.
  void set_stop(const StopToken* stop) { stop_ = stop; }

 private:
  // Logs a narrowing whose antecedents are arena_[ante_begin, end).
  void record_event(ir::NetId net, const Interval& next, ReasonKind kind,
                    std::uint32_t reason_id, std::size_t ante_begin);
  void enqueue_neighbourhood(ir::NetId net);
  // Queues `node` unless it is queued, is the idempotent node whose
  // narrowings are being recorded, or its rule cannot act.
  void enqueue_node(ir::NetId node);
  // Self-check builds: aborts if the rule of a node that was refused or
  // skipped would narrow.
  void check_settled(ir::NetId node) const;
  // Appends to `out` the latest events of all nets incident to `node`
  // (operands + output), optionally skipping `skip`.
  void append_incident_events(ir::NetId node, ir::NetId skip,
                              std::vector<std::int32_t>& out) const;

  const ir::Circuit& circuit_;
  OpTable ops_;
  std::vector<Interval> domain_;
  // The reader index: each net's readers are a slice of one arena with
  // room for `capacity`. sync_circuit() sizes a new net's slice exactly;
  // when an old net gains a reader, add_reader() appends in place while
  // the slice has room, else moves it to the arena's end with its capacity
  // doubled, so growth costs amortized O(1) per appended reader. A net's
  // abandoned slots (c + 2c + ... + capacity/2) are fewer than its live
  // ones, so the arena stays under twice the live capacity and is never
  // compacted.
  struct ReaderSlice {
    std::uint32_t begin = 0, size = 0, capacity = 0;
  };
  void add_reader(ir::NetId net, ir::NetId reader);
  std::vector<ReaderSlice> reader_slice_;
  std::vector<ir::NetId> reader_arena_;
  std::vector<Event> trail_;
  // All events' antecedent lists back to back, in trail order: rollback
  // truncates it with the trail, so recording an event never allocates.
  std::vector<std::int32_t> arena_;
  std::vector<std::int32_t> latest_;
  std::vector<ir::NetId> queue_;
  std::vector<std::uint8_t> queued_;  // per node: 1 while in queue_
  // The idempotent node whose narrowings propagate() is recording: they
  // never queue it. kNoNet otherwise.
  ir::NetId quiet_ = ir::kNoNet;
  Conflict conflict_;
  trace::Tracer* tracer_;
  const StopToken* stop_ = nullptr;
  std::int32_t stop_countdown_ = kStopCheckInterval;
  static constexpr std::int32_t kStopCheckInterval = 4096;
  std::array<std::size_t, 2> low_water_{};  // by TrailReader
  std::uint32_t level_ = 0;
  std::int64_t num_propagations_ = 0;
  std::int64_t num_skipped_wakeups_ = 0;
  std::int64_t num_datapath_narrowings_ = 0;
  std::vector<Narrowing> scratch_;
};

}  // namespace rtlsat::prop

// The four benchmark workloads. Each drives rtlsat through its public API
// from this process: `search` and `learn_fme` solve fixed BMC instance
// lists one by one, `bmc_sweep` asks an incremental BMC unroller bound
// after bound, and `serve_mixed` sends seeded request traffic to an
// in-process rtlsat-serve server over two client connections.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "instrument.h"
#include "oracle.h"
#include "refclock.h"

namespace rtlbench {

// One timed operation: a solve, a solve_bound call, or a serve request.
struct Op {
  double start_s = 0;  // RefClock::now() at its start and end
  double end_s = 0;
  // 'm' fresh solve (for serve: first-touch cache miss), 'h' serve cache
  // hit, 'b' serve BMC-session call.
  char kind = 'm';
};

using Counters = std::map<std::string, std::int64_t>;

struct PassResult {
  // First request to last verdict: on the RefClock, and the raw wall time
  // without the clock's sampling inside.
  double start_s = 0;
  double end_s = 0;
  double wall_s = 0;
  std::vector<Op> ops;
  std::int64_t attempted = 0;  // verdicts checked
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  // Per-layer metrics of this pass. Span-, tracer- and allocation-derived
  // ones are present only when the pass was traced.
  std::map<std::string, double> layer;
  // The pass's counter totals, kept independently of the per-instance rows
  // (per bound for bmc_sweep) that must sum to them; the self-test checks.
  Counters totals;
  std::vector<std::pair<std::string, Counters>> rows;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds what a pass needs — models, unrollings, request texts, the
  // server — replacing any earlier setup. Spans go under `parent`.
  virtual void setup(SpanLog& spans, int parent) = 0;
  // One pass; spans (traced passes only) go under `pass_span`. The pass
  // samples `clock` between its calls, at most every kSampleInterval.
  virtual PassResult run_pass(SpanLog& spans, int pass_span,
                              RefClock& clock) = 0;
  // Untimed, before each set-up after the first: releases what the last
  // set-up holds that a set-up's time should not include (serve: stops the
  // server, which drains its caches and sessions).
  virtual void reset() {}
  // Passes run and discarded before measuring.
  virtual int warmup_passes() const { return 0; }
};

// Long enough that sampling costs a few percent of a pass, short enough
// that the host's speed has not moved far between two samples.
constexpr double kSampleInterval = 0.2;

struct WorkloadConfig {
  std::string name;
  std::uint64_t seed = 1;
  bool shortened = false;  // the self-test's smaller instances
};

std::vector<std::string> workload_names();
// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const WorkloadConfig& config,
                                        const Oracle& oracle);
// Every instance any workload solves, full or shortened, without repeats.
std::vector<InstanceSpec> oracle_instances();

}  // namespace rtlbench

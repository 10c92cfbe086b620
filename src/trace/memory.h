// Process memory accounting for heartbeats, the serve sampler and the bench
// JSON summary: current and peak resident set size read from
// /proc/self/status (VmRSS / VmHWM). Linux-only; on other platforms
// ok == false and callers emit zero or nothing. Heap accounting for
// solver-owned structures (clause DB, implication graph, interval store) is
// done with instrumented byte counters on the owning classes instead — see
// ClauseDb::memory_bytes(), Engine::implication_graph_bytes(),
// Engine::interval_store_bytes() and sat::Solver::memory_bytes().
#pragma once

#include <cstdint>

namespace rtlsat::trace {

struct ProcMemory {
  bool ok = false;
  std::int64_t rss_kb = 0;       // VmRSS
  std::int64_t rss_peak_kb = 0;  // VmHWM (high-water mark)
};

ProcMemory read_proc_memory();

}  // namespace rtlsat::trace

// rtlsat-serve message schema and codec (docs/serve.md has the grammar).
//
// Both directions speak length-framed JSON (serve/net.h). Client→server
// messages are plain: {"type": "solve"|"cancel"|"stats"|"ping"|"shutdown",
// ...}. Server→client messages additionally carry the same ("v", "seq")
// header the progress heartbeat JSONL schema uses (trace/progress.h):
// "v" is the protocol schema version and "seq" increments by one per frame
// per connection, so a client can detect dropped or reordered frames with
// the same check bench_json_validate applies to heartbeat streams.
//
// Progress frames do not re-encode the solver heartbeat: the heartbeat
// record ProgressReporter emitted is embedded verbatim under "hb" (it has
// its own v/seq pair scoped to the worker stream — the two sequence spaces
// are deliberately independent).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace/memory.h"

namespace rtlsat::serve {

// Version of the wire schema, stamped as "v" on every server frame.
// Bumped only for incompatible changes; additive fields keep v = 1.
inline constexpr int kProtocolVersion = 1;

// ---- client → server ------------------------------------------------------

struct SolveRequest {
  std::string rtl;        // full .rtl circuit text (parser/rtl_format.h)
  std::string goal;       // net name inside the circuit
  bool value = true;      // prove/find goal == value
  double budget_seconds = 0;  // 0 = server default
  int jobs = 0;               // portfolio width; 0 = server default
  bool deterministic = false;
  bool use_cache = true;  // structural-hash result cache (serve/cache.h)
  bool use_bank = true;   // cross-job clause bank (serve/bank.h)
  bool progress = false;  // stream worker heartbeats to this client
  // Run the interval presolver before the race (portfolio.h's presolve
  // option; combinational solves only — BMC-mode requests ignore it).
  // Additive field, v stays 1.
  bool presolve = false;

  // BMC mode (additive fields, v stays 1): when `seq_rtl` is non-empty the
  // request is a bounded-model-checking query "property violated at
  // (exactly | within, see `cumulative`) `bound` steps" on a *sequential*
  // .rtl circuit, and `rtl`/`goal` are ignored. Successive bounds on the
  // byte-identical (seq_rtl, property, cumulative) triple reuse one warm
  // incremental solver on the server (serve/bank.h's BmcSessionBank) when
  // `use_bank` is set, so a client sweeping k = 1, 2, 3… pays the
  // unrolling and the learned-clause discovery only once.
  std::string seq_rtl;    // sequential circuit text; non-empty ⟹ BMC mode
  std::string property;   // property name inside the seq circuit
  int bound = 0;          // time-frames (≥ 1)
  bool cumulative = false;  // violation in ANY frame ≤ bound

  bool is_bmc() const { return !seq_rtl.empty(); }
};

struct Request {
  enum class Kind { kSolve, kCancel, kStats, kPing, kShutdown };
  Kind kind = Kind::kPing;
  SolveRequest solve;        // kSolve
  std::uint64_t job = 0;     // kCancel
};

std::string encode_request(const Request& request);
bool parse_request(const std::string& json, Request* out, std::string* error);

// ---- server → client ------------------------------------------------------

// STATS snapshot; also the payload behind `rtlsat client stats`.
struct ServerStats {
  double uptime_seconds = 0;
  std::int64_t connections = 0;     // currently open
  std::int64_t queue_depth = 0;     // jobs waiting
  std::int64_t in_flight = 0;       // jobs being solved
  std::int64_t jobs_done = 0;       // completed (any verdict), incl. cache hits
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_entries = 0;
  std::int64_t bank_pools = 0;      // live cross-job clause pools
  std::int64_t bmc_sessions = 0;    // warm incremental BMC solver sessions
  double cache_hit_ratio = 0;       // hits / (hits + misses), 0 when idle
  double jobs_per_second = 0;       // jobs_done / uptime
};

struct ResultMsg {
  std::string verdict;     // "sat" | "unsat" | "timeout" | "cancelled"
  bool cache_hit = false;
  double solve_seconds = 0;   // the *solver's* time: original solve if cached
  double service_seconds = 0; // this job's wall time inside the server
  std::string winner;         // portfolio worker name, "" when undecided
  // SAT only: value for every primary input, keyed by net name.
  std::vector<std::pair<std::string, std::int64_t>> model;
  // presolve.* counters from the solve (empty unless the request asked for
  // presolve); cached alongside the verdict so a cache hit replays them.
  // Additive field, v stays 1.
  std::vector<std::pair<std::string, std::int64_t>> presolve;
};

struct ServerMsg {
  enum class Kind { kQueued, kProgress, kResult, kError, kStats, kPong, kBye };
  Kind kind = Kind::kPong;
  int v = 0;
  std::int64_t seq = 0;
  std::uint64_t job = 0;     // kQueued/kProgress/kResult, and kError when bound
  bool has_job = false;
  std::string hb;            // kProgress: embedded heartbeat JSON, verbatim
  ResultMsg result;          // kResult
  std::string message;       // kError
  ServerStats stats;         // kStats
};

std::string encode_queued(std::int64_t seq, std::uint64_t job);
std::string encode_progress(std::int64_t seq, std::uint64_t job,
                            const std::string& heartbeat_json);
std::string encode_result(std::int64_t seq, std::uint64_t job,
                          const ResultMsg& result);
// job == 0 with has_job=false ⟹ connection-level error (unbound).
std::string encode_error(std::int64_t seq, const std::string& message);
std::string encode_job_error(std::int64_t seq, std::uint64_t job,
                             const std::string& message);
std::string encode_stats(std::int64_t seq, const ServerStats& stats);

// One sample of the `rtlsat serve --metrics` time series
// (docs/observability.md "Time-series schema").
struct StatsSample {
  double t_s = 0;  // seconds on the sampler's clock
  ServerStats stats;
};
// The JSONL lines of `sample`: a "main" line with every ServerStats field
// under its serve.* name (the stats frame's keys), plus
// serve.{jobs_done,cache_hits,cache_misses}_per_s differenced against
// `previous` (no rates when it is null or not older), then a "process"
// line with `memory` unless !memory.ok.
std::vector<std::string> encode_sample(const StatsSample& sample,
                                       const StatsSample* previous,
                                       const trace::ProcMemory& memory);
std::string encode_pong(std::int64_t seq);
std::string encode_bye(std::int64_t seq);

bool parse_server_msg(const std::string& json, ServerMsg* out,
                      std::string* error);

}  // namespace rtlsat::serve

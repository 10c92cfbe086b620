// The rtlsat-serve daemon core: a TCP front-end, a bounded job queue, a
// solve worker pool, and the two cross-job stores — the structural-hash
// result cache (serve/cache.h) and the exact-instance clause bank
// (serve/bank.h).
//
// Threading model (docs/serve.md has the full walk-through):
//
//   accept thread ──▶ one reader thread per connection ──▶ bounded queue
//                                                              │
//   solve workers (options.solve_workers threads) ◀────────────┘
//
// Connection readers parse requests and answer everything cheap inline:
// ping, stats, cancel, cache hits at submit time. Only a cache-missing
// solve crosses the queue to a worker. Workers write results (and streamed
// progress heartbeats) directly to the submitting connection; a
// per-connection write mutex plus the per-connection "seq" counter keep
// frames whole and ordered no matter which thread sends.
//
// Shutdown has two gears. drain() — the SIGTERM path — stops accepting,
// lets queued and running jobs finish, then closes connections;
// shutdown_now() additionally fires every active job's StopSource so
// in-flight portfolios return kCancelled within their poll latency. Both
// are idempotent, callable from any thread, and only flip state — wait()
// does the joining.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/bank.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "util/timer.h"

namespace rtlsat::serve {

// The strongest single-solver configuration (+S+P): BMC sessions run one
// persistent solver, so it should be the best one.
inline core::HdpllOptions default_bmc_solver_options() {
  core::HdpllOptions options;
  options.structural_decisions = true;
  options.predicate_learning = true;
  return options;
}

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;                   // 0 = ephemeral; Server::port() has the pick
  int solve_workers = 2;          // concurrent jobs
  std::size_t queue_capacity = 64;
  int solve_jobs = 2;             // default portfolio width per job
  double default_budget_seconds = 10;
  double max_budget_seconds = 120;   // client budgets are clamped to this
  std::size_t cache_capacity = 1024;
  std::size_t bank_capacity = 64;
  // Warm incremental-BMC sessions (serve/bank.h's BmcSessionBank). 0
  // disables reuse: every BMC job gets a throwaway session.
  std::size_t bmc_session_capacity = 16;
  // Solver configuration for BMC sessions. One persistent HDPLL instance
  // per session — the portfolio does not apply, because the solver's
  // carried state is exactly what the session exists to reuse.
  core::HdpllOptions bmc_solver = default_bmc_solver_options();
  // Replay every cache-hit SAT model through Circuit::evaluate before
  // trusting it; a failed replay falls back to a fresh solve. One linear
  // pass per hit — cheap insurance on the canonicalization, on by default.
  bool verify_cache_hits = true;
  double progress_interval_seconds = 0.25;
};

// Implementation types (server.cpp): a connection's write half and one
// queued solve. At namespace scope so helpers like the progress forwarder
// can hold them without friending into Server.
struct Connection;
struct Job;

class Server {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();  // shutdown_now() + wait() if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds, listens, spawns the accept thread and the worker pool. False
  // with *error on bind failure.
  bool start(std::string* error);
  int port() const { return port_; }

  void drain();
  void shutdown_now();
  // Joins everything; returns once the last connection closed. Implies the
  // caller (or a client "shutdown" request) eventually triggers drain().
  void wait();

  ServerStats snapshot() const;

  ResultCache& cache() { return cache_; }
  ExactCache& exact_cache() { return exact_cache_; }
  ClauseBank& bank() { return bank_; }
  BmcSessionBank& bmc_bank() { return bmc_bank_; }

 private:
  void accept_loop();
  void connection_loop(std::shared_ptr<Connection> conn);
  void worker_loop();
  void handle_solve(const std::shared_ptr<Connection>& conn,
                    SolveRequest request);
  void handle_cancel(const std::shared_ptr<Connection>& conn,
                     std::uint64_t job_id);
  void enqueue_job(const std::shared_ptr<Job>& job);
  void run_job(const std::shared_ptr<Job>& job);
  void run_bmc_job(const std::shared_ptr<Job>& job);
  void finish_job(const std::shared_ptr<Job>& job, const ResultMsg& result);
  // Cache-hit fast path: reconstructs the witness for `job`'s circuit from
  // the canonical-order model and (optionally) replays it. False ⟹ treat
  // as a miss.
  bool try_cache_hit(const std::shared_ptr<Job>& job);

  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  Timer uptime_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_now_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> conn_threads_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<std::shared_ptr<Job>> queue_;
  std::atomic<std::int64_t> queue_depth_{0};  // mirrors queue_.size()

  // Queued or running jobs, for cancel and shutdown_now. Entries are
  // removed in finish_job.
  std::mutex jobs_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> active_;
  std::atomic<std::uint64_t> next_job_{1};

  // Two cache tiers: exact_cache_ answers byte-identical repeats before the
  // request is even parsed; cache_ answers isomorphic repeats after
  // canonicalization. Stats fold both into cache_hits (an exact hit never
  // reaches the canonical tier, so there is no double counting).
  ResultCache cache_;
  ExactCache exact_cache_;
  ClauseBank bank_;
  BmcSessionBank bmc_bank_;
  std::atomic<std::int64_t> jobs_done_{0};
  std::atomic<std::int64_t> in_flight_{0};
  std::atomic<std::int64_t> open_connections_{0};
};

}  // namespace rtlsat::serve

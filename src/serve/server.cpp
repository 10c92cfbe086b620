#include "serve/server.h"

#include <sys/socket.h>

#include <algorithm>
#include <utility>

#include "ir/cone.h"
#include "parser/rtl_format.h"
#include "portfolio/portfolio.h"
#include "serve/net.h"
#include "trace/sink.h"
#include "util/log.h"
#include "util/stop_token.h"

namespace rtlsat::serve {

using ir::NetId;

// The write half of one client connection. Readers, solve workers, and
// progress forwarders all send through here; the mutex keeps frames whole
// and hands out consecutive "seq" values in send order, so the stream a
// client observes is exactly the stamped order.
struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection() { close_fd(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  template <typename Build>
  bool send(Build&& build) {
    std::lock_guard<std::mutex> lock(write_mu);
    if (dead) return false;
    if (!write_frame(fd, build(seq))) {
      // The peer hung up; later sends become no-ops rather than EPIPEs.
      dead = true;
      return false;
    }
    ++seq;
    return true;
  }

  const int fd;
  std::mutex write_mu;
  std::int64_t seq = 0;  // guarded by write_mu
  bool dead = false;     // guarded by write_mu
};

// One accepted solve, from queued to result frame.
struct Job {
  std::uint64_t id = 0;
  std::shared_ptr<Connection> conn;
  ir::Circuit circuit;
  NetId goal = ir::kNoNet;
  ir::CanonicalCone cone;  // only populated when request.use_cache
  std::string exact_key;   // ditto; exact-text tier key for this request
  ir::SeqCircuit seq{""};  // BMC only: parsed at submit, seeds the session
  SolveRequest request;
  StopSource stop;        // fired by cancel / shutdown_now
  Timer service_timer;    // started at submit
};

namespace {

// Adapts the portfolio's JSONL progress sink to protocol frames: each
// worker heartbeat line becomes one "progress" frame on the submitting
// connection, heartbeat embedded verbatim.
class ProgressForwarder : public trace::JsonlSink {
 public:
  ProgressForwarder(std::shared_ptr<Connection> conn, std::uint64_t job)
      : conn_(std::move(conn)), job_(job) {}

  void write_line(const std::string& line) override {
    conn_->send(
        [&](std::int64_t seq) { return encode_progress(seq, job_, line); });
  }

 private:
  std::shared_ptr<Connection> conn_;
  std::uint64_t job_;
};

// All primary inputs, cache-model values for cone inputs, 0 elsewhere
// (inputs outside the goal cone cannot affect the goal).
std::unordered_map<NetId, std::int64_t> rebuild_model(
    const Job& job, const std::vector<std::int64_t>& canonical_model) {
  std::unordered_map<NetId, std::int64_t> model;
  for (const NetId input : job.circuit.inputs()) model[input] = 0;
  const std::size_t n =
      std::min(job.cone.inputs.size(), canonical_model.size());
  for (std::size_t i = 0; i < n; ++i)
    model[job.cone.inputs[i]] = canonical_model[i];
  return model;
}

void fill_model_names(const Job& job,
                      const std::unordered_map<NetId, std::int64_t>& model,
                      ResultMsg* msg) {
  for (const NetId input : job.circuit.inputs()) {
    const auto it = model.find(input);
    msg->model.emplace_back(job.circuit.net_name(input),
                            it != model.end() ? it->second : 0);
  }
}

// Exact-cache "goal" token for a BMC request: folds bound and goal shape
// into one '\n'-free token. Injective — the suffix after the last '#' is
// digits plus an optional '+', which no earlier split can mimic.
std::string bmc_goal_token(const SolveRequest& request) {
  std::string token = request.property;
  token += '#';
  token += std::to_string(request.bound);
  if (request.cumulative) token += '+';
  return token;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_capacity),
      exact_cache_(options_.cache_capacity),
      bank_(options_.bank_capacity),
      bmc_bank_(options_.bmc_session_capacity) {}

Server::~Server() {
  if (started_.load()) {
    shutdown_now();
    wait();
  }
}

bool Server::start(std::string* error) {
  listen_fd_ = listen_tcp(options_.host, options_.port, &port_, error);
  if (listen_fd_ < 0) return false;
  uptime_.reset();
  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
  const int workers = std::max(options_.solve_workers, 1);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  return true;
}

void Server::drain() {
  // Under queue_mu_ so every worker's exit, and therefore wait()'s
  // listen_fd_ reset and the destructor, happen after this returns: a
  // signal thread may call drain() while the main thread sits in wait().
  std::lock_guard<std::mutex> lock(queue_mu_);
  draining_.store(true);
  // Unblocks the accept loop: accept(2) fails once the listening socket is
  // shut down. The fd itself is closed in wait(), after the thread joined.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  queue_cv_.notify_all();
}

void Server::shutdown_now() {
  stop_now_.store(true);
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    for (auto& [id, job] : active_) job->stop.request_stop();
  }
  drain();
}

void Server::wait() {
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // Workers are done ⟹ every result frame is out; now cut the readers
  // loose. Clients that already disconnected removed themselves from
  // conns_, their threads just need the join.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (std::thread& t : conn_threads_) t.join();
  conn_threads_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  close_fd(listen_fd_);
  listen_fd_ = -1;
  started_.store(false);
}

ServerStats Server::snapshot() const {
  ServerStats s;
  s.uptime_seconds = uptime_.seconds();
  s.connections = open_connections_.load();
  s.queue_depth = queue_depth_.load();
  s.in_flight = in_flight_.load();
  s.jobs_done = jobs_done_.load();
  s.cache_hits = cache_.hits() + exact_cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_entries = static_cast<std::int64_t>(cache_.size());
  s.bank_pools = static_cast<std::int64_t>(bank_.size());
  s.bmc_sessions = static_cast<std::int64_t>(bmc_bank_.size());
  const double lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  s.cache_hit_ratio =
      lookups > 0 ? static_cast<double>(s.cache_hits) / lookups : 0;
  s.jobs_per_second = s.uptime_seconds > 0
                          ? static_cast<double>(s.jobs_done) / s.uptime_seconds
                          : 0;
  return s;
}

void Server::accept_loop() {
  for (;;) {
    const int fd = accept_one(listen_fd_);
    if (fd < 0) return;  // listening socket shut down (drain) or fatal
    if (draining_.load()) {
      close_fd(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>(fd);
    open_connections_.fetch_add(1);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(conn);
    conn_threads_.emplace_back([this, conn] { connection_loop(conn); });
  }
}

void Server::connection_loop(std::shared_ptr<Connection> conn) {
  for (;;) {
    std::string frame;
    std::string frame_error;
    if (!read_frame(conn->fd, &frame, &frame_error)) {
      if (!frame_error.empty()) {
        conn->send([&](std::int64_t seq) {
          return encode_error(seq, "bad frame: " + frame_error);
        });
      }
      break;
    }
    Request request;
    std::string parse_error;
    if (!parse_request(frame, &request, &parse_error)) {
      conn->send([&](std::int64_t seq) {
        return encode_error(seq, "bad request: " + parse_error);
      });
      continue;
    }
    switch (request.kind) {
      case Request::Kind::kPing:
        conn->send([](std::int64_t seq) { return encode_pong(seq); });
        break;
      case Request::Kind::kStats: {
        const ServerStats stats = snapshot();
        conn->send(
            [&](std::int64_t seq) { return encode_stats(seq, stats); });
        break;
      }
      case Request::Kind::kCancel:
        handle_cancel(conn, request.job);
        break;
      case Request::Kind::kShutdown:
        conn->send([](std::int64_t seq) { return encode_bye(seq); });
        drain();
        break;
      case Request::Kind::kSolve:
        handle_solve(conn, std::move(request.solve));
        break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->dead = true;
  }
  {
    // Drop the registry's reference; jobs still holding the connection keep
    // it (and its fd) alive until their result send fails harmlessly.
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
  }
  open_connections_.fetch_sub(1);
}

void Server::handle_solve(const std::shared_ptr<Connection>& conn,
                          SolveRequest request) {
  if (draining_.load() || stop_now_.load()) {
    conn->send([](std::int64_t seq) {
      return encode_error(seq, "server is draining");
    });
    return;
  }
  // BMC requests have their own job pipeline: no canonical-cone tier (the
  // canonicalization is per-circuit, and the instance is the *growing*
  // unrolling), and the solve runs on a warm shared session rather than a
  // fresh portfolio.
  if (request.is_bmc()) {
    std::string exact_key;
    if (request.use_cache) {
      exact_key = exact_request_key(request.seq_rtl, bmc_goal_token(request),
                                    /*value=*/true);
      if (auto hit = exact_cache_.lookup(exact_key); hit.has_value()) {
        const std::uint64_t job_id = next_job_.fetch_add(1);
        Timer service_timer;
        conn->send(
            [&](std::int64_t seq) { return encode_queued(seq, job_id); });
        hit->service_seconds = service_timer.seconds();
        conn->send([&](std::int64_t seq) {
          return encode_result(seq, job_id, *hit);
        });
        jobs_done_.fetch_add(1);
        return;
      }
    }
    // Parse and validate at submit so malformed requests fail before a job
    // id exists, exactly like the combinational path. A warm session makes
    // this parse redundant — but only the session knows that, under its
    // own lock, and submit must not block on a running solve.
    ir::SeqCircuit seq{""};
    try {
      seq = parser::parse_seq_circuit(request.seq_rtl);
    } catch (const std::exception& e) {
      conn->send([&](std::int64_t seq_no) {
        return encode_error(seq_no, std::string("parse error: ") + e.what());
      });
      return;
    }
    if (seq.property(request.property) == ir::kNoNet) {
      conn->send([&](std::int64_t seq_no) {
        return encode_error(seq_no,
                            "unknown property: " + request.property);
      });
      return;
    }
    auto job = std::make_shared<Job>();
    job->id = next_job_.fetch_add(1);
    job->conn = conn;
    job->seq = std::move(seq);
    job->exact_key = std::move(exact_key);
    job->request = std::move(request);
    {
      std::lock_guard<std::mutex> lock(jobs_mu_);
      active_.emplace(job->id, job);
    }
    conn->send(
        [&](std::int64_t seq_no) { return encode_queued(seq_no, job->id); });
    enqueue_job(job);
    return;
  }

  // Exact-text fast path, checked before the request is even parsed: a
  // byte-identical repeat costs one string hash, not a parse plus a
  // canonicalization, which is what keeps warm-cache latency in the
  // microsecond range (docs/serve.md "Two cache tiers").
  std::string exact_key;
  if (request.use_cache) {
    exact_key = exact_request_key(request.rtl, request.goal, request.value);
    if (auto hit = exact_cache_.lookup(exact_key); hit.has_value()) {
      const std::uint64_t job_id = next_job_.fetch_add(1);
      Timer service_timer;
      conn->send(
          [&](std::int64_t seq) { return encode_queued(seq, job_id); });
      hit->service_seconds = service_timer.seconds();
      conn->send([&](std::int64_t seq) {
        return encode_result(seq, job_id, *hit);
      });
      jobs_done_.fetch_add(1);
      return;
    }
  }
  ir::Circuit circuit;
  try {
    circuit = parser::parse_circuit(request.rtl);
  } catch (const std::exception& e) {
    conn->send([&](std::int64_t seq) {
      return encode_error(seq, std::string("parse error: ") + e.what());
    });
    return;
  }
  const NetId goal = circuit.find_net(request.goal);
  if (goal == ir::kNoNet) {
    conn->send([&](std::int64_t seq) {
      return encode_error(seq, "unknown goal net: " + request.goal);
    });
    return;
  }
  if (!circuit.is_bool(goal)) {
    conn->send([&](std::int64_t seq) {
      return encode_error(seq, "goal net is not 1-bit: " + request.goal);
    });
    return;
  }

  auto job = std::make_shared<Job>();
  job->id = next_job_.fetch_add(1);
  job->conn = conn;
  job->circuit = std::move(circuit);
  job->goal = goal;
  job->request = std::move(request);
  if (job->request.use_cache) {
    job->cone = ir::canonical_cone(job->circuit, goal);
    job->exact_key = std::move(exact_key);
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    active_.emplace(job->id, job);
  }
  conn->send(
      [&](std::int64_t seq) { return encode_queued(seq, job->id); });

  // Submit-time fast path: an identical or isomorphic instance answers
  // from the cache without ever touching the queue.
  if (job->request.use_cache && try_cache_hit(job)) return;

  enqueue_job(job);
}

void Server::enqueue_job(const std::shared_ptr<Job>& job) {
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (queue_.size() >= options_.queue_capacity) {
      rejected = true;
    } else {
      queue_.push_back(job);
      queue_depth_.fetch_add(1);
    }
  }
  if (rejected) {
    job->conn->send([&](std::int64_t seq) {
      return encode_job_error(seq, job->id, "queue full");
    });
    std::lock_guard<std::mutex> lock(jobs_mu_);
    active_.erase(job->id);
    return;
  }
  queue_cv_.notify_one();
}

void Server::handle_cancel(const std::shared_ptr<Connection>& conn,
                           std::uint64_t job_id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    const auto it = active_.find(job_id);
    if (it != active_.end()) job = it->second;
  }
  if (job == nullptr) {
    // Benign race: the job may have finished a moment ago. The client
    // treats this as advisory.
    conn->send([&](std::int64_t seq) {
      return encode_job_error(seq, job_id, "job not active");
    });
    return;
  }
  // The "cancelled" result frame is the acknowledgement: a queued job
  // emits it when a worker picks it up, a running one when the portfolio's
  // cancellation poll lands.
  job->stop.request_stop();
}

bool Server::try_cache_hit(const std::shared_ptr<Job>& job) {
  auto hit = cache_.lookup(job->cone, job->request.value);
  if (!hit.has_value()) return false;

  ResultMsg msg;
  msg.cache_hit = true;
  msg.solve_seconds = hit->solve_seconds;
  msg.winner = hit->winner;
  msg.presolve = hit->presolve;
  if (hit->status == core::SolveStatus::kSat) {
    msg.verdict = "sat";
    const auto model = rebuild_model(*job, hit->model);
    if (options_.verify_cache_hits) {
      const auto values = job->circuit.evaluate(model);
      if ((values[job->goal] != 0) != job->request.value) {
        // A canonicalization bug would land here; solve fresh instead of
        // serving a wrong witness, and make it loud.
        RTLSAT_WARN("serve: cache-hit model failed replay for job %llu; "
                 "falling back to a fresh solve",
                 static_cast<unsigned long long>(job->id));
        return false;
      }
    }
    fill_model_names(*job, model, &msg);
  } else {
    msg.verdict = "unsat";
  }
  // Promote to the exact-text tier: the model was rebuilt (and optionally
  // replayed) for exactly this circuit, so the next byte-identical query
  // can skip the parse too.
  exact_cache_.insert(job->exact_key, msg);
  msg.service_seconds = job->service_timer.seconds();
  finish_job(job, msg);
  return true;
}

void Server::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load() || stop_now_.load();
      });
      if (queue_.empty()) return;  // draining and nothing left
      job = queue_.front();
      queue_.pop_front();
      queue_depth_.fetch_sub(1);
    }
    in_flight_.fetch_add(1);
    run_job(job);
    in_flight_.fetch_sub(1);
  }
}

void Server::run_job(const std::shared_ptr<Job>& job) {
  if (job->stop.stop_requested()) {
    ResultMsg msg;
    msg.verdict = "cancelled";
    msg.service_seconds = job->service_timer.seconds();
    finish_job(job, msg);
    return;
  }
  if (job->request.is_bmc()) {
    run_bmc_job(job);
    return;
  }
  // Dequeue-time recheck: an identical job solved while this one queued.
  if (job->request.use_cache && try_cache_hit(job)) return;

  const SolveRequest& request = job->request;
  portfolio::PortfolioOptions popts;
  popts.jobs = request.jobs > 0 ? std::min(request.jobs, 8)
                                : options_.solve_jobs;
  popts.budget_seconds =
      request.budget_seconds > 0
          ? std::min(request.budget_seconds, options_.max_budget_seconds)
          : options_.default_budget_seconds;
  popts.deterministic = request.deterministic;
  popts.presolve = request.presolve;
  popts.stop = job->stop.token();
  popts.progress_interval_seconds = options_.progress_interval_seconds;
  std::unique_ptr<ProgressForwarder> forwarder;
  if (request.progress) {
    forwarder = std::make_unique<ProgressForwarder>(job->conn, job->id);
    popts.progress_sink = forwarder.get();
  }
  BankCheckout checkout;
  if (request.use_bank) {
    // Exact-instance key (see serve/bank.h): byte-identical rtl+goal+value
    // only, never the canonical cone.
    checkout = bank_.checkout(request.rtl, request.goal, request.value,
                              popts.jobs);
    popts.pool = checkout.pool.get();
    popts.worker_id_base = checkout.worker_id_base;
  }

  Timer solve_timer;
  portfolio::Portfolio portfolio(job->circuit, job->goal, request.value,
                                 popts);
  const portfolio::PortfolioResult solved = portfolio.solve();

  ResultMsg msg;
  msg.solve_seconds = solve_timer.seconds();
  msg.winner = solved.winner_name;
  if (request.presolve) {
    for (const auto& [name, value] : solved.stats.all()) {
      if (name.rfind("presolve.", 0) == 0) msg.presolve.emplace_back(name, value);
    }
  }
  switch (solved.status) {
    case core::SolveStatus::kSat:
      msg.verdict = "sat";
      fill_model_names(*job, solved.input_model, &msg);
      break;
    case core::SolveStatus::kUnsat:
      msg.verdict = "unsat";
      break;
    default:
      msg.verdict = job->stop.stop_requested() ? "cancelled" : "timeout";
      break;
  }
  for (const std::string& violation : solved.crosscheck_violations)
    RTLSAT_WARN("serve: job %llu crosscheck: %s",
             static_cast<unsigned long long>(job->id), violation.c_str());

  if (request.use_cache && solved.crosscheck_violations.empty() &&
      (solved.status == core::SolveStatus::kSat ||
       solved.status == core::SolveStatus::kUnsat)) {
    CachedResult cached;
    cached.status = solved.status;
    cached.solve_seconds = msg.solve_seconds;
    cached.winner = solved.winner_name;
    cached.presolve = msg.presolve;
    if (solved.status == core::SolveStatus::kSat) {
      cached.model.reserve(job->cone.inputs.size());
      for (const NetId input : job->cone.inputs) {
        const auto it = solved.input_model.find(input);
        cached.model.push_back(it != solved.input_model.end() ? it->second
                                                              : 0);
      }
    }
    cache_.insert(job->cone, request.value, std::move(cached));
    ResultMsg exact = msg;
    exact.cache_hit = true;  // how every future serve of this entry reads
    exact_cache_.insert(job->exact_key, std::move(exact));
  }

  msg.service_seconds = job->service_timer.seconds();
  finish_job(job, msg);
}

void Server::run_bmc_job(const std::shared_ptr<Job>& job) {
  const SolveRequest& request = job->request;
  // Dequeue-time recheck: an identical bound solved while this one queued.
  if (request.use_cache) {
    if (auto hit = exact_cache_.lookup(job->exact_key); hit.has_value()) {
      hit->service_seconds = job->service_timer.seconds();
      finish_job(job, *hit);
      return;
    }
  }
  const double budget =
      request.budget_seconds > 0
          ? std::min(request.budget_seconds, options_.max_budget_seconds)
          : options_.default_budget_seconds;
  // use_bank gates session reuse just like it gates clause-pool reuse: off
  // ⟹ a private throwaway session, still the same solve path.
  std::shared_ptr<BmcSession> session =
      request.use_bank
          ? bmc_bank_.checkout(request.seq_rtl, request.property,
                               request.cumulative)
          : std::make_shared<BmcSession>();

  ResultMsg msg;
  bool decisive = false;
  {
    // The session *is* the shared state; solves on it are serialized.
    // Cancellation still lands mid-solve through the job's stop token.
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->bmc == nullptr) {
      session->seq = std::move(job->seq);
      session->bmc = std::make_unique<bmc::IncrementalBmc>(
          session->seq, request.property, options_.bmc_solver,
          request.cumulative);
    }
    session->bmc->solver().set_budget(budget, job->stop.token());
    Timer solve_timer;
    const core::SolveResult solved = session->bmc->solve_bound(request.bound);
    msg.solve_seconds = solve_timer.seconds();
    ++session->bounds_solved;
    switch (solved.status) {
      case core::SolveStatus::kSat: {
        msg.verdict = "sat";
        const ir::Circuit& circuit = session->bmc->circuit();
        // Replay the witness on the growing circuit before trusting it —
        // the session solver carries clauses from every earlier bound, so
        // this is the cheap independent check that none of them leaked
        // into an unsound model.
        const ir::NetId goal = session->bmc->ensure_bound(request.bound);
        const auto values = circuit.evaluate(solved.input_model);
        if (values[goal] != 1) {
          RTLSAT_WARN("serve: bmc witness failed replay for job %llu",
                      static_cast<unsigned long long>(job->id));
          msg.verdict = "timeout";  // do not serve (or cache) a bad witness
          break;
        }
        decisive = true;
        for (const NetId input : circuit.inputs()) {
          const auto it = solved.input_model.find(input);
          msg.model.emplace_back(
              circuit.net_name(input),
              it != solved.input_model.end() ? it->second : 0);
        }
        break;
      }
      case core::SolveStatus::kUnsat:
        msg.verdict = "unsat";
        decisive = true;
        break;
      default:
        msg.verdict = job->stop.stop_requested() ? "cancelled" : "timeout";
        break;
    }
  }
  if (request.use_cache && decisive) {
    ResultMsg exact = msg;
    exact.cache_hit = true;
    exact_cache_.insert(job->exact_key, std::move(exact));
  }
  msg.service_seconds = job->service_timer.seconds();
  finish_job(job, msg);
}

void Server::finish_job(const std::shared_ptr<Job>& job,
                        const ResultMsg& msg) {
  // Bookkeeping before the result frame: a client that reads its verdict
  // and immediately asks for stats must see this job in jobs_done.
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    active_.erase(job->id);
  }
  jobs_done_.fetch_add(1);
  job->conn->send(
      [&](std::int64_t seq) { return encode_result(seq, job->id, msg); });
}

}  // namespace rtlsat::serve

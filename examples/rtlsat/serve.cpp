// rtlsat serve / rtlsat client: the solve service and its command-line
// client (docs/serve.md).
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "cli.h"
#include "metrics/sampler.h"
#include "serve/client.h"
#include "serve/server.h"

namespace rtlsat::cli {

// Prints "listening on port <P>" once ready (--port-file also writes the
// number to a file). The first SIGTERM/SIGINT drains: stop accepting,
// finish the queued jobs, exit. A second cancels the jobs in flight.
int cmd_serve(Args& args) {
  serve::ServerOptions options;
  options.host = args.text("--host", options.host);
  options.port = static_cast<int>(args.integer("--port", options.port, 0));
  const std::string port_file = args.text("--port-file", "");
  options.solve_workers =
      static_cast<int>(args.integer("--workers", options.solve_workers, 1));
  options.solve_jobs =
      static_cast<int>(args.integer("--jobs", options.solve_jobs, 1));
  options.queue_capacity = static_cast<std::size_t>(args.integer(
      "--queue-cap", static_cast<std::int64_t>(options.queue_capacity), 0));
  options.cache_capacity = static_cast<std::size_t>(args.integer(
      "--cache-cap", static_cast<std::int64_t>(options.cache_capacity), 0));
  options.bank_capacity = static_cast<std::size_t>(args.integer(
      "--bank-cap", static_cast<std::int64_t>(options.bank_capacity), 0));
  options.default_budget_seconds =
      args.seconds("--budget", options.default_budget_seconds);
  options.max_budget_seconds =
      args.seconds("--max-budget", options.max_budget_seconds);
  const std::string metrics_base = args.text("--metrics", "");
  const double sample_ms = args.seconds("--sample-ms", 500);
  options.verify_cache_hits = !args.flag("--no-verify-hits");
  args.rest(0);

  // Block the drain signals before any thread exists so every thread
  // inherits the mask and only the sigwait thread below sees them.
  sigset_t drain_set;
  sigemptyset(&drain_set);
  sigaddset(&drain_set, SIGTERM);
  sigaddset(&drain_set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &drain_set, nullptr);

  // --metrics BASE: the serve.* gauges and the process line, sampled into
  // <BASE>.metrics.jsonl. Per-job solver state travels as progress frames.
  metrics::MetricsRegistry registry;
  std::unique_ptr<trace::JsonlSink> metrics_sink;
  std::unique_ptr<metrics::Sampler> sampler;
  if (!metrics_base.empty()) {
    metrics_sink =
        std::make_unique<trace::JsonlSink>(metrics_base + ".metrics.jsonl");
    metrics::SamplerOptions sampler_options;
    sampler_options.sink = metrics_sink.get();
    sampler_options.interval_seconds = std::max(sample_ms, 1.0) / 1000.0;
    sampler = std::make_unique<metrics::Sampler>(&registry, sampler_options);
    sampler->start();
    options.metrics = &registry;
  }
  serve::Server server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream(port_file) << server.port() << '\n';
  }
  std::printf("listening on port %d\n", server.port());
  std::fflush(stdout);

  // Detached: once wait() returns the process exits and takes the sigwait
  // with it.
  std::thread([&server, drain_set] {
    for (int signals = 0;; ++signals) {
      int sig = 0;
      if (sigwait(&drain_set, &sig) != 0) return;
      if (signals == 0) {
        std::fprintf(stderr, "draining (signal %d)...\n", sig);
        server.drain();
      } else {
        std::fprintf(stderr, "cancelling in-flight jobs...\n");
        server.shutdown_now();
        return;
      }
    }
  }).detach();

  server.wait();
  if (sampler != nullptr) sampler->stop();
  const serve::ServerStats stats = server.snapshot();
  std::fprintf(stderr,
               "served %lld jobs in %.1fs (%.2f jobs/s, cache hit ratio "
               "%.2f)\n",
               static_cast<long long>(stats.jobs_done), stats.uptime_seconds,
               stats.jobs_per_second, stats.cache_hit_ratio);
  return 0;
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  if (!in || !(text << in.rdbuf())) throw UsageError("cannot read " + path);
  return text.str();
}

// A failed request: "error: <what>", exit 2.
int failed(const std::string& error) {
  std::fprintf(stderr, "error: %s\n", error.c_str());
  return 2;
}

}  // namespace

// solve and bmc block for the verdict unless --no-wait; --progress prints
// the heartbeats as they stream. Successive bmc bounds on one design reuse
// the server's warm incremental session. Exit 0 on sat/unsat, 1 on
// timeout/cancelled, 2 on a usage or request error.
int cmd_client(Args& args) {
  const std::string host = args.text("--host", "127.0.0.1");
  const int port = static_cast<int>(args.integer("--port", 0, 1));
  serve::SolveRequest request;
  request.value = args.integer("--value", 1, 0) != 0;
  request.budget_seconds = args.seconds("--budget", request.budget_seconds);
  request.jobs = static_cast<int>(args.integer("--jobs", request.jobs, 0));
  request.deterministic = args.flag("--deterministic");
  request.use_cache = !args.flag("--no-cache");
  request.use_bank = !args.flag("--no-bank");
  request.cumulative = args.flag("--cumulative");
  request.progress = args.flag("--progress");
  const bool wait_for_result = !args.flag("--no-wait");
  const std::vector<std::string> pos = args.rest(4);
  if (port == 0) throw UsageError("client needs --port");
  if (pos.empty()) throw UsageError("client needs a command");
  const std::string& command = pos[0];
  const auto need = [&](std::size_t n) {
    if (pos.size() != n) throw UsageError("wrong arguments for " + command);
  };
  if (command == "bmc") {
    need(4);
    request.seq_rtl = read_file(pos[1]);
    request.property = pos[2];
    request.bound = static_cast<int>(parse_int(pos[3], "bound", 1));
  } else if (command == "solve") {
    need(3);
    request.rtl = read_file(pos[1]);
    request.goal = pos[2];
  } else if (command == "cancel") {
    need(2);
  } else if (command != "stats" && command != "ping" &&
             command != "shutdown") {
    throw UsageError("unknown client command '" + command + "'");
  } else {
    need(1);
  }

  serve::Client client;
  std::string error;
  if (!client.connect(host, port, &error)) return failed(error);
  if (command == "ping") {
    if (!client.ping(&error)) return failed(error);
    std::printf("pong\n");
    return 0;
  }
  if (command == "shutdown") {
    if (!client.shutdown_server(&error)) return failed(error);
    std::printf("server draining\n");
    return 0;
  }
  if (command == "cancel") {
    const auto job = static_cast<std::uint64_t>(parse_int(
        pos[1], "job", 0, std::numeric_limits<std::int64_t>::max()));
    if (!client.cancel(job, &error)) return failed(error);
    std::printf("cancel requested for job %llu\n",
                static_cast<unsigned long long>(job));
    return 0;
  }
  if (command == "stats") {
    serve::ServerStats s;
    if (!client.stats(&s, &error)) return failed(error);
    std::printf(
        "uptime_s         %.1f\nconnections      %lld\nqueue_depth      %lld\n"
        "in_flight        %lld\njobs_done        %lld\njobs_per_s       %.2f\n"
        "cache_hits       %lld\ncache_misses     %lld\n"
        "cache_hit_ratio  %.2f\ncache_entries    %lld\n"
        "bank_pools       %lld\nbmc_sessions     %lld\n",
        s.uptime_seconds, static_cast<long long>(s.connections),
        static_cast<long long>(s.queue_depth),
        static_cast<long long>(s.in_flight),
        static_cast<long long>(s.jobs_done), s.jobs_per_second,
        static_cast<long long>(s.cache_hits),
        static_cast<long long>(s.cache_misses), s.cache_hit_ratio,
        static_cast<long long>(s.cache_entries),
        static_cast<long long>(s.bank_pools),
        static_cast<long long>(s.bmc_sessions));
    return 0;
  }

  std::uint64_t job = 0;
  if (!client.submit(request, &job, &error)) return failed(error);
  std::fprintf(stderr, "job %llu queued\n",
               static_cast<unsigned long long>(job));
  if (!wait_for_result) return 0;
  serve::ResultMsg result;
  const auto on_progress = [](const std::string& heartbeat) {
    std::printf("%s\n", heartbeat.c_str());
  };
  if (!client.wait(job, &result, &error,
                   request.progress ? serve::Client::ProgressFn(on_progress)
                                    : serve::Client::ProgressFn())) {
    return failed(error);
  }
  std::printf("%s%s (solve %.3fs, service %.3fs%s%s)\n",
              result.verdict.c_str(), result.cache_hit ? " [cache hit]" : "",
              result.solve_seconds, result.service_seconds,
              result.winner.empty() ? "" : ", winner ",
              result.winner.c_str());
  for (const auto& [name, value] : result.model)
    std::printf("  %s = %lld\n", name.c_str(), static_cast<long long>(value));
  return (result.verdict == "sat" || result.verdict == "unsat") ? 0 : 1;
}

}  // namespace rtlsat::cli

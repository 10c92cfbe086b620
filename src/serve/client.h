// Client side of the rtlsat-serve protocol: one blocking connection, one
// request/response conversation at a time.
//
// The transport is deliberately synchronous — submit() then wait() — with
// progress frames surfaced through a callback while wait() blocks. A
// client wanting to cancel a running job does it from a *second*
// connection (job ids are server-global), which is exactly what
// `rtlsat client cancel` does; the blocked wait() then returns the
// "cancelled" result frame.
//
// Every received frame's "seq" is checked against the connection's
// expected counter, so a dropped or duplicated frame surfaces as a
// protocol error instead of a silent desync (satellite of the v/seq
// heartbeat-schema change, see trace/progress.h).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "serve/protocol.h"

namespace rtlsat::serve {

class Client {
 public:
  Client() = default;
  ~Client() { disconnect(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect(const std::string& host, int port, std::string* error);
  void disconnect();
  bool connected() const { return fd_ >= 0; }

  // Called for each progress frame while wait() blocks, with the embedded
  // heartbeat JSON (one JSONL line, no trailing newline).
  using ProgressFn = std::function<void(const std::string& heartbeat)>;

  // Sends a solve request and returns the assigned job id. On a
  // submit-time cache hit the result frame is already in flight; wait()
  // picks it up.
  bool submit(const SolveRequest& request, std::uint64_t* job,
              std::string* error);

  // Blocks until `job`'s result frame arrives. Progress frames for the job
  // are forwarded to `on_progress` when set, dropped otherwise.
  bool wait(std::uint64_t job, ResultMsg* out, std::string* error,
            const ProgressFn& on_progress = nullptr);

  // submit() + wait().
  bool solve(const SolveRequest& request, ResultMsg* out, std::string* error,
             const ProgressFn& on_progress = nullptr);

  // Requests cancellation of a (possibly other connection's) job. The
  // owning connection receives the "cancelled" result; this call only
  // delivers the request.
  bool cancel(std::uint64_t job, std::string* error);

  bool stats(ServerStats* out, std::string* error);
  bool ping(std::string* error);
  // Asks the server to drain (finish queued jobs, then exit); returns once
  // the server acknowledged with "bye".
  bool shutdown_server(std::string* error);

 private:
  bool send(const Request& request, std::string* error);
  // Reads and validates one server frame (version + seq continuity).
  bool read_msg(ServerMsg* out, std::string* error);

  int fd_ = -1;
  std::int64_t expect_seq_ = 0;
};

}  // namespace rtlsat::serve

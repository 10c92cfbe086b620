// JsonlSink: a small thread-safe line sink for JSONL telemetry streams.
//
// The per-worker ProgressReporters of a portfolio run share one sink, so
// interleaved writers from different threads never tear a line. Lines are flushed to the OS on every write — telemetry is
// low-rate (heartbeats, samples) and a crash should lose at most the line
// being written.
//
// crash.h provides the companion fix for the *buffered* sinks (the
// ring-buffered Tracer): a process-wide registry of flush callbacks run on
// atexit and on fatal signals (SIGINT/SIGTERM/SIGABRT), so a cancelled or
// aborting run keeps the tail of its event stream.
#pragma once

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>

namespace rtlsat::trace {

class JsonlSink {
 public:
  // A sink with no backing file: write_line only counts lines. Subclasses
  // (the serve daemon's per-connection progress forwarder) override
  // write_line to redirect the stream somewhere that is not a file.
  JsonlSink() = default;
  explicit JsonlSink(const std::string& path);
  virtual ~JsonlSink();
  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  bool ok() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

  // Writes `line` (without a trailing newline; one is appended) atomically
  // with respect to other writers, then flushes. No-op after close().
  virtual void write_line(const std::string& line);

  std::int64_t lines_written() const;

  void close();

 private:
  std::string path_;
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::int64_t lines_ = 0;
};

}  // namespace rtlsat::trace

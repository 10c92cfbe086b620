#include "trace/progress.h"

#include "trace/json.h"
#include "trace/memory.h"

namespace rtlsat::trace {

ProgressReporter::ProgressReporter(ProgressOptions options)
    : options_(std::move(options)) {
  if (options_.stream == nullptr) options_.stream = stderr;
  if (!options_.clock) {
    options_.clock = [this] { return epoch_.seconds(); };
  }
  last_report_ = options_.clock();
}

bool ProgressReporter::due() {
  const double now = options_.clock();
  if (now - last_report_ < options_.interval_seconds) return false;
  last_report_ = now;
  return true;
}

void ProgressReporter::finish(const ProgressSnapshot& snapshot) {
  emit(snapshot, options_.clock());
}

void ProgressReporter::emit(const ProgressSnapshot& snapshot, double now) {
  ++reports_;
  if (options_.banner) {
    if (!header_printed_) {
      header_printed_ = true;
      std::fprintf(options_.stream,
                   "|   time(s) |  conflicts |  decisions | propagations | "
                   " learnt |    trail | lvl |\n");
    }
    std::fprintf(options_.stream,
                 "| %9.2f | %10lld | %10lld | %12lld | %7lld | %8lld | %3u |\n",
                 now, static_cast<long long>(snapshot.conflicts),
                 static_cast<long long>(snapshot.decisions),
                 static_cast<long long>(snapshot.propagations),
                 static_cast<long long>(snapshot.learnt),
                 static_cast<long long>(snapshot.trail), snapshot.level);
    std::fflush(options_.stream);
  }
  if (options_.sink != nullptr) {
    JsonWriter w;
    w.begin_object();
    // Schema version + per-reporter sequence number: a streaming consumer
    // (the serve wire protocol, a tailing dashboard) detects dropped or
    // reordered lines by a gap or regression in `seq`. reports_ was
    // incremented above, so seq starts at 0 and advances by exactly 1 per
    // emitted line.
    w.key("v").value(kHeartbeatSchemaVersion);
    w.key("seq").value(reports_ - 1);
    w.key("t_s").value(now);
    if (!options_.label.empty()) w.key("worker").value(options_.label);
    w.key("conflicts").value(snapshot.conflicts);
    w.key("decisions").value(snapshot.decisions);
    w.key("propagations").value(snapshot.propagations);
    w.key("learnt").value(snapshot.learnt);
    w.key("restarts").value(snapshot.restarts);
    w.key("trail").value(snapshot.trail);
    w.key("level").value(static_cast<std::int64_t>(snapshot.level));
    w.key("clauses_exported").value(snapshot.clauses_exported);
    w.key("clauses_imported").value(snapshot.clauses_imported);
    w.key("clause_db_bytes").value(snapshot.clause_db_bytes);
    w.key("implication_graph_bytes").value(snapshot.implication_graph_bytes);
    w.key("interval_store_bytes").value(snapshot.interval_store_bytes);
    const ProcMemory mem = read_proc_memory();
    w.key("rss_kb").value(mem.ok ? mem.rss_kb : 0);
    w.end_object();
    options_.sink->write_line(w.str());
  }
  if (options_.tracer != nullptr) {
    options_.tracer->record(EventKind::kProgress, snapshot.level,
                            snapshot.conflicts, snapshot.decisions);
  }
}

}  // namespace rtlsat::trace

#include "serve/protocol.h"

#include "trace/json.h"

namespace rtlsat::serve {

using trace::JsonValue;
using trace::JsonWriter;

namespace {

// Lookup helpers tolerating absent optional members.
bool get_string(const JsonValue& obj, const char* key, std::string* out) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_string()) return false;
  *out = v->string;
  return true;
}

double get_number(const JsonValue& obj, const char* key, double fallback) {
  const JsonValue* v = obj.find(key);
  return (v != nullptr && v->is_number()) ? v->number : fallback;
}

std::int64_t get_int(const JsonValue& obj, const char* key,
                     std::int64_t fallback) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr || !v->is_number()) return fallback;
  return v->exact_integer ? v->integer : static_cast<std::int64_t>(v->number);
}

bool get_bool(const JsonValue& obj, const char* key, bool fallback) {
  const JsonValue* v = obj.find(key);
  return (v != nullptr && v->kind == JsonValue::Kind::kBool) ? v->boolean
                                                             : fallback;
}

JsonWriter server_header(const char* type, std::int64_t seq) {
  JsonWriter w;
  w.begin_object();
  w.key("v").value(kProtocolVersion);
  w.key("seq").value(seq);
  w.key("type").value(type);
  return w;
}

bool fail(std::string* error, const char* message) {
  if (error != nullptr) *error = message;
  return false;
}

}  // namespace

std::string encode_request(const Request& request) {
  JsonWriter w;
  w.begin_object();
  switch (request.kind) {
    case Request::Kind::kSolve: {
      const SolveRequest& s = request.solve;
      w.key("type").value("solve");
      w.key("rtl").value(s.rtl);
      w.key("goal").value(s.goal);
      w.key("value").value(s.value);
      if (s.budget_seconds > 0) w.key("budget_s").value(s.budget_seconds);
      if (s.jobs > 0) w.key("jobs").value(s.jobs);
      if (s.deterministic) w.key("deterministic").value(true);
      if (!s.use_cache) w.key("cache").value(false);
      if (!s.use_bank) w.key("bank").value(false);
      if (s.progress) w.key("progress").value(true);
      if (s.presolve) w.key("presolve").value(true);
      if (s.is_bmc()) {
        w.key("seq_rtl").value(s.seq_rtl);
        w.key("property").value(s.property);
        w.key("bound").value(s.bound);
        if (s.cumulative) w.key("cumulative").value(true);
      }
      break;
    }
    case Request::Kind::kCancel:
      w.key("type").value("cancel");
      w.key("job").value(static_cast<std::int64_t>(request.job));
      break;
    case Request::Kind::kStats:
      w.key("type").value("stats");
      break;
    case Request::Kind::kPing:
      w.key("type").value("ping");
      break;
    case Request::Kind::kShutdown:
      w.key("type").value("shutdown");
      break;
  }
  w.end_object();
  return w.take();
}

bool parse_request(const std::string& json, Request* out, std::string* error) {
  JsonValue doc;
  if (!trace::json_parse(json, &doc, error)) return false;
  if (!doc.is_object()) return fail(error, "request is not an object");
  std::string type;
  if (!get_string(doc, "type", &type))
    return fail(error, "request missing string \"type\"");

  *out = Request{};
  if (type == "solve") {
    out->kind = Request::Kind::kSolve;
    SolveRequest& s = out->solve;
    get_string(doc, "seq_rtl", &s.seq_rtl);
    if (s.is_bmc()) {
      // BMC mode: the sequential text replaces rtl/goal (both optional and
      // ignored when present).
      if (!get_string(doc, "property", &s.property))
        return fail(error, "bmc solve missing string \"property\"");
      s.bound = static_cast<int>(get_int(doc, "bound", 0));
      if (s.bound < 1)
        return fail(error, "bmc solve missing positive \"bound\"");
      s.cumulative = get_bool(doc, "cumulative", false);
      get_string(doc, "rtl", &s.rtl);
      get_string(doc, "goal", &s.goal);
    } else {
      if (!get_string(doc, "rtl", &s.rtl))
        return fail(error, "solve missing string \"rtl\"");
      if (!get_string(doc, "goal", &s.goal))
        return fail(error, "solve missing string \"goal\"");
    }
    s.value = get_bool(doc, "value", true);
    s.budget_seconds = get_number(doc, "budget_s", 0);
    s.jobs = static_cast<int>(get_int(doc, "jobs", 0));
    s.deterministic = get_bool(doc, "deterministic", false);
    s.use_cache = get_bool(doc, "cache", true);
    s.use_bank = get_bool(doc, "bank", true);
    s.progress = get_bool(doc, "progress", false);
    s.presolve = get_bool(doc, "presolve", false);
    return true;
  }
  if (type == "cancel") {
    out->kind = Request::Kind::kCancel;
    const std::int64_t job = get_int(doc, "job", -1);
    if (job < 0) return fail(error, "cancel missing numeric \"job\"");
    out->job = static_cast<std::uint64_t>(job);
    return true;
  }
  if (type == "stats") { out->kind = Request::Kind::kStats; return true; }
  if (type == "ping") { out->kind = Request::Kind::kPing; return true; }
  if (type == "shutdown") { out->kind = Request::Kind::kShutdown; return true; }
  return fail(error, "unknown request type");
}

std::string encode_queued(std::int64_t seq, std::uint64_t job) {
  JsonWriter w = server_header("queued", seq);
  w.key("job").value(static_cast<std::int64_t>(job));
  w.end_object();
  return w.take();
}

std::string encode_progress(std::int64_t seq, std::uint64_t job,
                            const std::string& heartbeat_json) {
  JsonWriter w = server_header("progress", seq);
  w.key("job").value(static_cast<std::int64_t>(job));
  w.key("hb").raw_value(heartbeat_json);
  w.end_object();
  return w.take();
}

std::string encode_result(std::int64_t seq, std::uint64_t job,
                          const ResultMsg& result) {
  JsonWriter w = server_header("result", seq);
  w.key("job").value(static_cast<std::int64_t>(job));
  w.key("verdict").value(result.verdict);
  w.key("cache_hit").value(result.cache_hit);
  w.key("solve_s").value(result.solve_seconds);
  w.key("service_s").value(result.service_seconds);
  if (!result.winner.empty()) w.key("winner").value(result.winner);
  if (!result.model.empty()) {
    w.key("model").begin_object();
    for (const auto& [name, value] : result.model) w.key(name).value(value);
    w.end_object();
  }
  if (!result.presolve.empty()) {
    w.key("presolve").begin_object();
    for (const auto& [name, value] : result.presolve) w.key(name).value(value);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

std::string encode_error(std::int64_t seq, const std::string& message) {
  JsonWriter w = server_header("error", seq);
  w.key("message").value(message);
  w.end_object();
  return w.take();
}

std::string encode_job_error(std::int64_t seq, std::uint64_t job,
                             const std::string& message) {
  JsonWriter w = server_header("error", seq);
  w.key("job").value(static_cast<std::int64_t>(job));
  w.key("message").value(message);
  w.end_object();
  return w.take();
}

namespace {

// Every ServerStats field, each key prefixed with `prefix`: the stats
// frame writes them bare, the time series under "serve.".
void write_stats_fields(JsonWriter& w, const ServerStats& stats,
                        const std::string& prefix) {
  const auto key = [&](const char* name) -> JsonWriter& {
    return w.key(prefix + name);
  };
  key("uptime_s").value(stats.uptime_seconds);
  key("connections").value(stats.connections);
  key("queue_depth").value(stats.queue_depth);
  key("in_flight").value(stats.in_flight);
  key("jobs_done").value(stats.jobs_done);
  key("cache_hits").value(stats.cache_hits);
  key("cache_misses").value(stats.cache_misses);
  key("cache_entries").value(stats.cache_entries);
  key("bank_pools").value(stats.bank_pools);
  key("bmc_sessions").value(stats.bmc_sessions);
  key("cache_hit_ratio").value(stats.cache_hit_ratio);
  key("jobs_per_s").value(stats.jobs_per_second);
}

}  // namespace

std::string encode_stats(std::int64_t seq, const ServerStats& stats) {
  JsonWriter w = server_header("stats", seq);
  write_stats_fields(w, stats, "");
  w.end_object();
  return w.take();
}

std::vector<std::string> encode_sample(const StatsSample& sample,
                                       const StatsSample* previous,
                                       const trace::ProcMemory& memory) {
  std::vector<std::string> lines;
  JsonWriter w;
  w.begin_object();
  w.key("t_s").value(sample.t_s);
  w.key("source").value("main");
  write_stats_fields(w, sample.stats, "serve.");
  if (previous != nullptr && sample.t_s > previous->t_s) {
    const double dt = sample.t_s - previous->t_s;
    const auto rate = [&](const char* name, std::int64_t now,
                          std::int64_t before) {
      w.key(name).value(static_cast<double>(now - before) / dt);
    };
    rate("serve.jobs_done_per_s", sample.stats.jobs_done,
         previous->stats.jobs_done);
    rate("serve.cache_hits_per_s", sample.stats.cache_hits,
         previous->stats.cache_hits);
    rate("serve.cache_misses_per_s", sample.stats.cache_misses,
         previous->stats.cache_misses);
  }
  w.end_object();
  lines.push_back(w.take());
  if (memory.ok) {
    JsonWriter p;
    p.begin_object();
    p.key("t_s").value(sample.t_s);
    p.key("source").value("process");
    p.key("rss_kb").value(memory.rss_kb);
    p.key("rss_peak_kb").value(memory.rss_peak_kb);
    p.end_object();
    lines.push_back(p.take());
  }
  return lines;
}

std::string encode_pong(std::int64_t seq) {
  JsonWriter w = server_header("pong", seq);
  w.end_object();
  return w.take();
}

std::string encode_bye(std::int64_t seq) {
  JsonWriter w = server_header("bye", seq);
  w.end_object();
  return w.take();
}

bool parse_server_msg(const std::string& json, ServerMsg* out,
                      std::string* error) {
  JsonValue doc;
  if (!trace::json_parse(json, &doc, error)) return false;
  if (!doc.is_object()) return fail(error, "server message is not an object");

  *out = ServerMsg{};
  out->v = static_cast<int>(get_int(doc, "v", 0));
  if (out->v != kProtocolVersion)
    return fail(error, "unsupported protocol version");
  const JsonValue* seq = doc.find("seq");
  if (seq == nullptr || !seq->is_int())
    return fail(error, "server message missing integer \"seq\"");
  out->seq = seq->integer;

  std::string type;
  if (!get_string(doc, "type", &type))
    return fail(error, "server message missing string \"type\"");
  const std::int64_t job = get_int(doc, "job", -1);
  out->has_job = job >= 0;
  if (out->has_job) out->job = static_cast<std::uint64_t>(job);

  if (type == "queued") {
    out->kind = ServerMsg::Kind::kQueued;
    return out->has_job ? true : fail(error, "queued missing \"job\"");
  }
  if (type == "progress") {
    out->kind = ServerMsg::Kind::kProgress;
    const JsonValue* hb = doc.find("hb");
    if (hb == nullptr || !hb->is_object())
      return fail(error, "progress missing object \"hb\"");
    // Keep the raw heartbeat for pass-through consumers (the client CLI
    // re-emits it as a heartbeat JSONL line); re-encode from the parse.
    JsonWriter w;
    w.begin_object();
    for (const auto& [key, value] : hb->object) {
      w.key(key);
      if (value.is_string()) w.value(value.string);
      else if (value.kind == JsonValue::Kind::kBool) w.value(value.boolean);
      else if (value.is_int()) w.value(value.integer);
      else if (value.is_number()) w.value(value.number);
      else w.null();
    }
    w.end_object();
    out->hb = w.take();
    return out->has_job ? true : fail(error, "progress missing \"job\"");
  }
  if (type == "result") {
    out->kind = ServerMsg::Kind::kResult;
    if (!out->has_job) return fail(error, "result missing \"job\"");
    ResultMsg& r = out->result;
    if (!get_string(doc, "verdict", &r.verdict))
      return fail(error, "result missing string \"verdict\"");
    r.cache_hit = get_bool(doc, "cache_hit", false);
    r.solve_seconds = get_number(doc, "solve_s", 0);
    r.service_seconds = get_number(doc, "service_s", 0);
    get_string(doc, "winner", &r.winner);
    if (const JsonValue* model = doc.find("model");
        model != nullptr && model->is_object()) {
      for (const auto& [name, value] : model->object) {
        if (!value.is_int()) return fail(error, "non-integer model value");
        r.model.emplace_back(name, value.integer);
      }
    }
    if (const JsonValue* pre = doc.find("presolve");
        pre != nullptr && pre->is_object()) {
      for (const auto& [name, value] : pre->object) {
        if (!value.is_int()) return fail(error, "non-integer presolve value");
        r.presolve.emplace_back(name, value.integer);
      }
    }
    return true;
  }
  if (type == "error") {
    out->kind = ServerMsg::Kind::kError;
    if (!get_string(doc, "message", &out->message))
      return fail(error, "error missing string \"message\"");
    return true;
  }
  if (type == "stats") {
    out->kind = ServerMsg::Kind::kStats;
    ServerStats& s = out->stats;
    s.uptime_seconds = get_number(doc, "uptime_s", 0);
    s.connections = get_int(doc, "connections", 0);
    s.queue_depth = get_int(doc, "queue_depth", 0);
    s.in_flight = get_int(doc, "in_flight", 0);
    s.jobs_done = get_int(doc, "jobs_done", 0);
    s.cache_hits = get_int(doc, "cache_hits", 0);
    s.cache_misses = get_int(doc, "cache_misses", 0);
    s.cache_entries = get_int(doc, "cache_entries", 0);
    s.bank_pools = get_int(doc, "bank_pools", 0);
    s.bmc_sessions = get_int(doc, "bmc_sessions", 0);
    s.cache_hit_ratio = get_number(doc, "cache_hit_ratio", 0);
    s.jobs_per_second = get_number(doc, "jobs_per_s", 0);
    return true;
  }
  if (type == "pong") { out->kind = ServerMsg::Kind::kPong; return true; }
  if (type == "bye") { out->kind = ServerMsg::Kind::kBye; return true; }
  return fail(error, "unknown server message type");
}

}  // namespace rtlsat::serve

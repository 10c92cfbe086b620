// Schema validator for the observability layer's machine-readable outputs,
// used by CI to prove that what the benches and the tracer emit actually
// parses back and carries the documented fields (docs/observability.md).
//
//   $ ./bench_json_validate bench  BENCH_table1.json   # bench --json output
//   $ ./bench_json_validate race   race.json           # rtlsat race --json
//   $ ./bench_json_validate chrome out.trace.json      # Chrome trace_event
//   $ ./bench_json_validate jsonl  out.jsonl           # tracer events or
//                                                     # solver heartbeats
//   $ ./bench_json_validate timeseries ts.jsonl        # serve --metrics series
//   $ ./bench_json_validate loadgen loadgen.json       # serve loadgen --json
//   $ ./bench_json_validate counters a.json b.json     # two bench --json
//                              # files must have identical solver counters
//                              # (time.* stripped) — the zero-drift gate
//
// Exit 0 when the file is valid; prints the first violation and exits 1
// otherwise.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "trace/json.h"

using rtlsat::trace::JsonValue;
using rtlsat::trace::json_parse;

namespace {

bool fail(const std::string& message) {
  std::fprintf(stderr, "invalid: %s\n", message.c_str());
  return false;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

bool require_number(const JsonValue& object, const char* name,
                    const std::string& where) {
  const JsonValue* v = object.find(name);
  if (v == nullptr || !v->is_number())
    return fail(where + ": missing numeric field '" + name + "'");
  return true;
}

bool require_string(const JsonValue& object, const char* name,
                    const std::string& where) {
  const JsonValue* v = object.find(name);
  if (v == nullptr || !v->is_string())
    return fail(where + ": missing string field '" + name + "'");
  return true;
}

bool valid_verdict(const std::string& verdict) {
  return verdict == "S" || verdict == "U" || verdict == "T" ||
         verdict == "C" || verdict == "?";
}

// Per-worker array shared by bench portfolio rows and race documents.
bool validate_workers(const JsonValue& workers, const std::string& where) {
  if (!workers.is_array()) return fail(where + ": 'workers' is not an array");
  for (std::size_t j = 0; j < workers.array.size(); ++j) {
    const JsonValue& worker = workers.array[j];
    const std::string wwhere = where + ".workers[" + std::to_string(j) + "]";
    if (!worker.is_object()) return fail(wwhere + ": not an object");
    if (!require_string(worker, "name", wwhere)) return false;
    if (!require_string(worker, "verdict", wwhere)) return false;
    if (!require_number(worker, "seconds", wwhere)) return false;
    if (!require_number(worker, "clauses_exported", wwhere)) return false;
    if (!require_number(worker, "clauses_imported", wwhere)) return false;
    if (!require_number(worker, "cancel_latency", wwhere)) return false;
  }
  return true;
}

// Proof-logging counters flow from the solver into each row's counters
// when RTLSAT_PROOF is set (docs/proofs.md): every proof.* value must be
// a non-negative number, and proof.rejected must be zero — a rejected
// certificate anywhere in the run fails the whole document, which is how
// the CI proof-check job turns a bad proof into a red build.
bool validate_proof_counters(const JsonValue& counters,
                             const std::string& where, std::size_t* seen) {
  for (const auto& [key, value] : counters.object) {
    if (key.rfind("proof.", 0) != 0) continue;
    if (!value.is_number() || value.number < 0)
      return fail(where + ": counter '" + key +
                  "' is not a non-negative number");
    if (key == "proof.rejected" && value.number != 0)
      return fail(where + ": proof.rejected is " +
                  std::to_string(static_cast<long long>(value.number)) +
                  " (a certificate was rejected)");
    ++*seen;
  }
  return true;
}

// Presolve-lane rows (config contains "presolve", emitted by the table
// benches under --presolve) must carry the presolve.* rewrite counters:
// every one a non-negative number, and at least one present — a lane that
// stops exporting them would otherwise go green while the bench JSON
// silently loses its presolve signal.
bool validate_presolve_counters(const JsonValue& row,
                                const JsonValue& counters,
                                const std::string& where, std::size_t* seen) {
  std::size_t in_row = 0;
  for (const auto& [key, value] : counters.object) {
    if (key.rfind("presolve.", 0) != 0) continue;
    if (!value.is_number() || value.number < 0)
      return fail(where + ": counter '" + key +
                  "' is not a non-negative number");
    ++in_row;
  }
  const JsonValue* config = row.find("config");
  const bool presolve_row =
      config != nullptr && config->is_string() &&
      config->string.find("presolve") != std::string::npos;
  if (presolve_row && in_row == 0)
    return fail(where + ": presolve row carries no presolve.* counters");
  *seen += in_row;
  return true;
}

// {"bench": "...", "rows": [{instance, config, verdict, seconds, ...}]}
bool validate_bench(const std::string& text) {
  JsonValue doc;
  std::string error;
  if (!json_parse(text, &doc, &error)) return fail(error);
  if (!doc.is_object()) return fail("top level is not an object");
  if (!require_string(doc, "bench", "top level")) return false;
  const JsonValue* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array())
    return fail("top level: missing array field 'rows'");
  std::size_t proof_counters = 0;
  std::size_t presolve_counters = 0;
  for (std::size_t i = 0; i < rows->array.size(); ++i) {
    const JsonValue& row = rows->array[i];
    const std::string where = "rows[" + std::to_string(i) + "]";
    if (!row.is_object()) return fail(where + ": not an object");
    if (!require_string(row, "instance", where)) return false;
    if (!require_string(row, "config", where)) return false;
    if (!require_string(row, "verdict", where)) return false;
    const std::string& verdict = row.find("verdict")->string;
    if (!valid_verdict(verdict))
      return fail(where + ": verdict '" + verdict + "' is not S/U/T/C/?");
    if (!require_number(row, "seconds", where)) return false;
    const JsonValue* counters = row.find("counters");
    if (counters == nullptr || !counters->is_object())
      return fail(where + ": missing object field 'counters'");
    if (!validate_proof_counters(*counters, where, &proof_counters))
      return false;
    if (!validate_presolve_counters(row, *counters, where,
                                    &presolve_counters)) {
      return false;
    }
    // Portfolio rows additionally carry a per-worker array.
    const JsonValue* workers = row.find("workers");
    if (workers != nullptr && !validate_workers(*workers, where)) return false;
  }
  std::printf("ok: %zu bench rows (%zu proof counters, %zu presolve "
              "counters)\n",
              rows->array.size(), proof_counters, presolve_counters);
  return true;
}

// rtlsat race --json: {instance, verdict, winner, seconds,
//  crosscheck_violations, workers: [...], counters: {...}}
bool validate_race(const std::string& text) {
  JsonValue doc;
  std::string error;
  if (!json_parse(text, &doc, &error)) return fail(error);
  if (!doc.is_object()) return fail("top level is not an object");
  const std::string where = "top level";
  if (!require_string(doc, "instance", where)) return false;
  if (!require_string(doc, "verdict", where)) return false;
  const std::string& verdict = doc.find("verdict")->string;
  if (!valid_verdict(verdict))
    return fail(where + ": verdict '" + verdict + "' is not S/U/T/C/?");
  if (!require_string(doc, "winner", where)) return false;
  if (!require_number(doc, "seconds", where)) return false;
  if (!require_number(doc, "crosscheck_violations", where)) return false;
  const JsonValue* counters = doc.find("counters");
  if (counters == nullptr || !counters->is_object())
    return fail(where + ": missing object field 'counters'");
  const JsonValue* workers = doc.find("workers");
  if (workers == nullptr)
    return fail(where + ": missing array field 'workers'");
  if (!validate_workers(*workers, where)) return false;
  std::printf("ok: race with %zu workers\n", workers->array.size());
  return true;
}

// {"displayTimeUnit": "ms", "traceEvents": [{ph, ts, name, ...}]}
bool validate_chrome(const std::string& text) {
  JsonValue doc;
  std::string error;
  if (!json_parse(text, &doc, &error)) return fail(error);
  if (!doc.is_object()) return fail("top level is not an object");
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array())
    return fail("top level: missing array field 'traceEvents'");
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& ev = events->array[i];
    const std::string where = "traceEvents[" + std::to_string(i) + "]";
    if (!ev.is_object()) return fail(where + ": not an object");
    if (!require_string(ev, "ph", where)) return false;
    if (!require_number(ev, "ts", where)) return false;
    if (!require_string(ev, "name", where)) return false;
  }
  std::printf("ok: %zu trace events\n", events->array.size());
  return true;
}

// One JSON object per line, each with t_us/kind (trace events) or
// conflicts (progress heartbeats). A heartbeat must carry v == 2, a
// numeric per-stream increasing sequence number "seq" (streams are keyed by
// the optional "worker" label — the serve wire protocol relies on both
// fields to detect dropped lines; seq 0 starts a new stream under the same
// label, as each race of `table2 --jobs` does) and the schema's numeric
// counter, byte and rss fields.
bool validate_jsonl(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  std::size_t lineno = 0;
  std::map<std::string, double> last_seq;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue doc;
    std::string error;
    if (!json_parse(line, &doc, &error))
      return fail("line " + std::to_string(lineno) + ": " + error);
    const std::string where = "line " + std::to_string(lineno);
    if (!doc.is_object()) return fail(where + ": not an object");
    const bool is_event = doc.find("kind") != nullptr;
    const bool is_heartbeat = doc.find("conflicts") != nullptr;
    if (!is_event && !is_heartbeat)
      return fail(where + ": neither a trace event ('kind') nor a progress "
                          "heartbeat ('conflicts')");
    if (is_event) {
      if (!require_number(doc, "t_us", where)) return false;
      if (!require_string(doc, "kind", where)) return false;
      if (!require_number(doc, "level", where)) return false;
    } else {
      const JsonValue* version = doc.find("v");
      if (version == nullptr || !version->is_number() || version->number != 2)
        return fail(where + ": heartbeat schema version is not 2");
      for (const char* field :
           {"seq", "t_s", "conflicts", "decisions", "propagations", "learnt",
            "restarts", "trail", "level", "clauses_exported",
            "clauses_imported", "clause_db_bytes", "implication_graph_bytes",
            "interval_store_bytes", "rss_kb"}) {
        if (!require_number(doc, field, where)) return false;
      }
      const JsonValue* worker = doc.find("worker");
      const std::string stream =
          worker != nullptr && worker->is_string() ? worker->string : "";
      const double seq = doc.find("seq")->number;
      const auto it = last_seq.find(stream);
      if (it != last_seq.end() && seq != 0 && seq <= it->second)
        return fail(where + ": heartbeat seq did not advance for stream '" +
                    stream + "'");
      last_seq[stream] = seq;
    }
    ++count;
  }
  std::printf("ok: %zu jsonl records\n", count);
  return true;
}

// `serve --metrics` time series (docs/observability.md "Time-series
// schema"): one JSON object per line with numeric t_s and string source;
// timestamps are non-decreasing per source; every other field is a number
// or a string; "main" lines carry serve.jobs_done and "process" lines
// rss_kb/rss_peak_kb.
bool validate_timeseries(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  std::size_t count = 0;
  std::size_t lineno = 0;
  std::map<std::string, double> last_t;
  while (std::getline(lines, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue doc;
    std::string error;
    if (!json_parse(line, &doc, &error))
      return fail("line " + std::to_string(lineno) + ": " + error);
    const std::string where = "line " + std::to_string(lineno);
    if (!doc.is_object()) return fail(where + ": not an object");
    if (!require_number(doc, "t_s", where)) return false;
    if (!require_string(doc, "source", where)) return false;
    const double t = doc.find("t_s")->number;
    const std::string& source = doc.find("source")->string;
    const auto it = last_t.find(source);
    if (it != last_t.end() && t < it->second)
      return fail(where + ": t_s moves backwards for source '" + source + "'");
    last_t[source] = t;
    if (source == "main" && !require_number(doc, "serve.jobs_done", where))
      return false;
    if (source == "process") {
      if (!require_number(doc, "rss_kb", where)) return false;
      if (!require_number(doc, "rss_peak_kb", where)) return false;
    }
    for (const auto& [key, value] : doc.object) {
      if (!value.is_number() && !value.is_string())
        return fail(where + ": field '" + key +
                    "' is neither a number nor a string");
    }
    ++count;
  }
  if (count == 0) return fail("no samples");
  std::printf("ok: %zu samples over %zu sources\n", count, last_t.size());
  return true;
}

// Serve loadgen output (docs/serve.md "Load generation"):
// {"bench": "loadgen", "workloads": [{workload, clients, requests, ok,
//  errors, cache_hits, p50_ms, p99_ms, mean_ms, jobs_per_s}],
//  "warm_speedup": X}. The CI serve-smoke job additionally requires the
// warm workload to be all cache hits and every request to have succeeded.
bool validate_loadgen(const std::string& text) {
  JsonValue doc;
  std::string error;
  if (!json_parse(text, &doc, &error)) return fail(error);
  if (!doc.is_object()) return fail("top level is not an object");
  const JsonValue* bench = doc.find("bench");
  if (bench == nullptr || !bench->is_string() || bench->string != "loadgen")
    return fail("top level: 'bench' is not \"loadgen\"");
  if (!require_number(doc, "warm_speedup", "top level")) return false;
  const JsonValue* workloads = doc.find("workloads");
  if (workloads == nullptr || !workloads->is_array())
    return fail("top level: missing array field 'workloads'");
  if (workloads->array.empty()) return fail("no workloads");
  for (std::size_t i = 0; i < workloads->array.size(); ++i) {
    const JsonValue& w = workloads->array[i];
    const std::string where = "workloads[" + std::to_string(i) + "]";
    if (!w.is_object()) return fail(where + ": not an object");
    if (!require_string(w, "workload", where)) return false;
    const std::string& name = w.find("workload")->string;
    if (name != "cold" && name != "warm" && name != "mixed")
      return fail(where + ": workload '" + name + "' is not cold/warm/mixed");
    for (const char* field : {"clients", "requests", "ok", "errors",
                              "cache_hits", "p50_ms", "p99_ms", "mean_ms",
                              "jobs_per_s"}) {
      if (!require_number(w, field, where)) return false;
    }
    const double requests = w.find("requests")->number;
    const double ok = w.find("ok")->number;
    const double errors = w.find("errors")->number;
    const double hits = w.find("cache_hits")->number;
    if (ok + errors != requests)
      return fail(where + ": ok + errors != requests");
    if (errors != 0) return fail(where + ": has request errors");
    if (name == "cold" && hits != 0)
      return fail(where + ": cold workload saw cache hits");
    if (name == "warm" && hits != ok)
      return fail(where + ": warm workload was not all cache hits");
    if (w.find("p50_ms")->number > w.find("p99_ms")->number)
      return fail(where + ": p50 exceeds p99");
  }
  std::printf("ok: %zu loadgen workloads, warm speedup %.1fx\n",
              workloads->array.size(), doc.find("warm_speedup")->number);
  return true;
}

// Flattens a bench --json document into "instance|config|counter" -> value,
// dropping time.* (wall-clock buckets legitimately differ run to run).
bool counter_map(const std::string& text, const std::string& label,
                 std::map<std::string, double>* out) {
  JsonValue doc;
  std::string error;
  if (!json_parse(text, &doc, &error)) return fail(label + ": " + error);
  const JsonValue* rows = doc.is_object() ? doc.find("rows") : nullptr;
  if (rows == nullptr || !rows->is_array())
    return fail(label + ": missing array field 'rows'");
  for (const JsonValue& row : rows->array) {
    if (!row.is_object()) return fail(label + ": row is not an object");
    const JsonValue* instance = row.find("instance");
    const JsonValue* config = row.find("config");
    const JsonValue* counters = row.find("counters");
    if (instance == nullptr || config == nullptr || counters == nullptr ||
        !counters->is_object()) {
      return fail(label + ": row without instance/config/counters");
    }
    for (const auto& [key, value] : counters->object) {
      if (key.rfind("time.", 0) == 0) continue;
      (*out)[instance->string + "|" + config->string + "|" + key] =
          value.number;
    }
  }
  return true;
}

// The zero-drift gate: two runs of the same bench (one sampled, one not)
// must agree on every search counter, or sampling perturbed the search.
bool validate_counters_equal(const std::string& text_a,
                             const std::string& text_b) {
  std::map<std::string, double> a, b;
  if (!counter_map(text_a, "first file", &a)) return false;
  if (!counter_map(text_b, "second file", &b)) return false;
  if (a.empty()) return fail("first file has no counters");
  for (const auto& [key, value] : a) {
    const auto it = b.find(key);
    if (it == b.end()) return fail("second file is missing '" + key + "'");
    if (it->second != value)
      return fail("counter drift: '" + key + "' is " + std::to_string(value) +
                  " vs " + std::to_string(it->second));
  }
  for (const auto& [key, value] : b) {
    if (a.find(key) == a.end())
      return fail("first file is missing '" + key + "'");
  }
  std::printf("ok: %zu counters identical\n", a.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc >= 2 ? argv[1] : "";
  const int want_files = mode == "counters" ? 2 : 1;
  if (argc != 2 + want_files) {
    std::fprintf(stderr,
                 "usage: %s <bench|race|chrome|jsonl|timeseries|loadgen>"
                 " <file>\n       %s counters <file> <file>\n",
                 argv[0], argv[0]);
    return 2;
  }
  std::string text;
  if (!read_file(argv[2], &text)) return 1;
  bool ok = false;
  if (mode == "bench") {
    ok = validate_bench(text);
  } else if (mode == "race") {
    ok = validate_race(text);
  } else if (mode == "chrome") {
    ok = validate_chrome(text);
  } else if (mode == "jsonl") {
    ok = validate_jsonl(text);
  } else if (mode == "timeseries") {
    ok = validate_timeseries(text);
  } else if (mode == "loadgen") {
    ok = validate_loadgen(text);
  } else if (mode == "counters") {
    std::string text_b;
    if (!read_file(argv[3], &text_b)) return 1;
    ok = validate_counters_equal(text, text_b);
  } else {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  return ok ? 0 : 1;
}

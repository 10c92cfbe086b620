#include "metrics/sampler.h"

#include <chrono>

#include "trace/json.h"
#include "trace/memory.h"

namespace rtlsat::metrics {

Sampler::Sampler(MetricsRegistry* registry, SamplerOptions options)
    : registry_(registry), options_(std::move(options)) {
  if (!options_.clock) {
    options_.clock = [this] { return epoch_.seconds(); };
  }
  if (options_.interval_seconds <= 0) options_.interval_seconds = 0.1;
}

Sampler::~Sampler() { stop(); }

void Sampler::start() {
  std::lock_guard<std::mutex> lock(thread_mu_);
  if (running_) return;
  running_ = true;
  stop_requested_ = false;
  thread_ = std::thread([this] { run(); });
}

void Sampler::stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    if (!running_) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard<std::mutex> lock(thread_mu_);
    running_ = false;
  }
  // Final sample: a run shorter than one interval still yields a series.
  tick();
}

void Sampler::run() {
  const auto interval = std::chrono::duration<double>(options_.interval_seconds);
  std::unique_lock<std::mutex> lock(thread_mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, interval, [this] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    tick();
    lock.lock();
  }
}

void Sampler::tick() { sample_once(options_.clock()); }

std::int64_t Sampler::samples() const {
  std::lock_guard<std::mutex> lock(sample_mu_);
  return samples_;
}

std::vector<std::string> Sampler::drain() {
  std::lock_guard<std::mutex> lock(sample_mu_);
  std::vector<std::string> out = std::move(collected_);
  collected_.clear();
  return out;
}

void Sampler::emit(const std::string& line) {
  if (options_.sink != nullptr) options_.sink->write_line(line);
  if (options_.collect_in_memory) collected_.push_back(line);
}

void Sampler::sample_once(double now) {
  const std::vector<MetricsRegistry::Sample> scraped = registry_->scrape();
  std::lock_guard<std::mutex> lock(sample_mu_);
  ++samples_;
  // One line per source; scrape() is sorted by (name, source), so collect
  // the sources first, then emit each group in registration-name order.
  std::vector<std::string> sources;
  for (const auto& s : scraped) {
    bool seen = false;
    for (const std::string& src : sources) seen = seen || src == s.source;
    if (!seen) sources.push_back(s.source);
  }
  for (const std::string& source : sources) {
    trace::JsonWriter w;
    w.begin_object();
    w.key("t_s").value(now);
    w.key("source").value(source.empty() ? "main" : source);
    bool labels_written = false;
    for (const auto& s : scraped) {
      if (s.source != source) continue;
      if (!labels_written) {
        labels_written = true;
        for (const Label& l : s.labels) w.key(l.key).value(l.value);
      }
      w.key(s.name).value(s.value);
      if (s.monotone) {
        const std::string key = s.name + "|" + s.source;
        auto it = prev_.find(key);
        if (it != prev_.end() && s.value >= it->second.second &&
            now > it->second.first) {
          const double rate =
              static_cast<double>(s.value - it->second.second) /
              (now - it->second.first);
          w.key(s.name + "_per_s").value(rate);
        }
        prev_[key] = {now, s.value};
      }
    }
    w.end_object();
    emit(w.str());
  }
  if (options_.include_process) {
    const trace::ProcMemory mem = trace::read_proc_memory();
    if (mem.ok) {
      trace::JsonWriter w;
      w.begin_object();
      w.key("t_s").value(now);
      w.key("source").value("process");
      w.key("rss_kb").value(mem.rss_kb);
      w.key("rss_peak_kb").value(mem.rss_peak_kb);
      w.end_object();
      emit(w.str());
    }
  }
}

}  // namespace rtlsat::metrics

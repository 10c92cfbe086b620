#include "cli.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "itc99/itc99.h"
#include "parser/rtl_format.h"
#include "portfolio/portfolio.h"
#include "util/strings.h"
#include "verilog/verilog.h"

namespace rtlsat::cli {

std::int64_t parse_int(const std::string& text, const std::string& what,
                       std::int64_t min, std::int64_t max) {
  std::int64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < min || v > max) {
    throw UsageError(str_format(
        "%s must be an integer in [%lld, %lld], got '%s'", what.c_str(),
        static_cast<long long>(min), static_cast<long long>(max),
        text.c_str()));
  }
  return v;
}

double parse_seconds(const std::string& text, const std::string& what) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < 0) {
    throw UsageError(str_format("%s must be a number >= 0, got '%s'",
                                what.c_str(), text.c_str()));
  }
  return v;
}

bool Args::flag(const std::string& name) {
  const auto it = std::find(words_.begin(), words_.end(), name);
  if (it == words_.end()) return false;
  words_.erase(it);
  return true;
}

std::optional<std::string> Args::value(const std::string& name) {
  const auto it = std::find(words_.begin(), words_.end(), name);
  if (it == words_.end()) return std::nullopt;
  if (it + 1 == words_.end()) throw UsageError(name + " needs a value");
  std::string v = *(it + 1);
  words_.erase(it, it + 2);
  return v;
}

std::int64_t Args::integer(const std::string& name, std::int64_t fallback,
                           std::int64_t min, std::int64_t max) {
  const std::optional<std::string> v = value(name);
  return v ? parse_int(*v, name, min, max) : fallback;
}

double Args::seconds(const std::string& name, double fallback) {
  const std::optional<std::string> v = value(name);
  return v ? parse_seconds(*v, name) : fallback;
}

std::vector<std::string> Args::rest(std::size_t max) {
  for (const std::string& w : words_) {
    if (w.rfind("--", 0) == 0) throw UsageError("unknown flag '" + w + "'");
  }
  if (words_.size() > max)
    throw UsageError("unexpected argument '" + words_[max] + "'");
  return words_;
}

ir::SeqCircuit load_model(const std::string& target) {
  std::string models;
  for (const std::string& name : itc99::available()) {
    if (name == target) return itc99::build(target);
    models += " " + name;
  }
  if (!std::filesystem::exists(target)) {
    throw UsageError("'" + target + "' is neither a file nor a model:" +
                     models);
  }
  try {
    const bool verilog =
        target.size() > 2 && target.compare(target.size() - 2, 2, ".v") == 0;
    return verilog ? verilog::load_file(target)
                   : parser::load_seq_circuit(target);
  } catch (const std::exception& e) {
    throw UsageError(target + ": " + e.what());
  }
}

bmc::BmcInstance unroll_model(const ir::SeqCircuit& seq,
                              const std::string& property,
                              const std::string& bound) {
  const int k = static_cast<int>(parse_int(bound, "bound", 1));
  if (seq.property(property) == ir::kNoNet) {
    std::string available;
    for (const auto& p : seq.properties()) available += " " + p.name;
    throw UsageError("no property '" + property + "'; available:" +
                     available);
  }
  return bmc::unroll(seq, property, k);
}

Config parse_config(const std::string& word) {
  if (word == "base") return Config::kHdpll;
  if (word == "s") return Config::kStructural;
  if (word == "sp") return Config::kStructuralPred;
  throw UsageError("config must be base, s or sp, got '" + word + "'");
}

core::HdpllOptions make_options(Config config, double timeout,
                                int learn_threshold) {
  core::HdpllOptions options;
  options.structural_decisions =
      config == Config::kStructural || config == Config::kStructuralPred;
  options.predicate_learning = config == Config::kStructuralPred;
  options.learning.max_relations = learn_threshold;
  options.conflict_learning = config != Config::kChrono;
  options.timeout_seconds = timeout;
  return options;
}

ProofCapture ProofCapture::from_env() {
  const char* env = std::getenv("RTLSAT_PROOF");
  ProofCapture proof;
  proof.on = env != nullptr && *env != '\0';
  if (proof.on && std::string(env) != "1") proof.dir = env;
  return proof;
}

Telemetry::Telemetry(const std::string& path, double sample_ms)
    : interval_seconds_(std::max(sample_ms, 1.0) / 1000.0) {
  if (path.empty()) return;
  sink_ = std::make_unique<trace::JsonlSink>(path);
  trace::ProgressOptions options;
  options.banner = false;
  options.interval_seconds = interval_seconds_;
  options.sink = sink_.get();
  options.label = "hdpll";
  progress_ = std::make_unique<trace::ProgressReporter>(options);
}

void Telemetry::attach(portfolio::PortfolioOptions* options) const {
  options->progress_sink = sink_.get();
  options->progress_interval_seconds = interval_seconds_;
}

}  // namespace rtlsat::cli

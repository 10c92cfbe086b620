#include "metrics/metrics.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace rtlsat::metrics {

std::string canonical_labels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  std::string out;
  for (const Label& l : sorted) {
    if (!out.empty()) out += ',';
    out += l.key;
    out += '=';
    out += l.value;
  }
  return out;
}

Gauge* MetricsRegistry::gauge(const std::string& name, const Labels& labels,
                              bool monotone) {
  const std::string source = canonical_labels(labels);
  const std::string key = name + "|" + source;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    Entry e{name, labels, source, std::make_unique<Gauge>()};
    it = entries_.emplace(key, std::move(e)).first;
  }
  Gauge* g = it->second.gauge.get();
  if (monotone) g->monotone_ = true;
  return g;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::scrape() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) {
    out.push_back({e.name, e.labels, e.source, e.gauge->monotone(),
                   e.gauge->value()});
  }
  return out;
}

std::string exposition_name(const std::string& name) {
  std::string out = "rtlsat_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

namespace {

std::string exposition_labels(const Labels& labels) {
  if (labels.empty()) return "";
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  std::string out = "{";
  bool first = true;
  for (const Label& l : sorted) {
    if (!first) out += ',';
    first = false;
    out += l.key;
    out += "=\"";
    for (char c : l.value) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

void MetricsRegistry::expose(std::ostream& out) const {
  const std::vector<Sample> samples = scrape();
  const std::string* prev_name = nullptr;
  for (const Sample& s : samples) {
    const std::string ename = exposition_name(s.name);
    if (prev_name == nullptr || *prev_name != s.name) {
      out << "# TYPE " << ename << " gauge\n";
    }
    prev_name = &s.name;
    out << ename << exposition_labels(s.labels) << ' ' << s.value << '\n';
  }
}

bool parse_exposition(const std::string& text,
                      std::map<std::string, double>* out, std::string* error) {
  out->clear();
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    // `name` or `name{labels}`, one space, value.
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space == 0 ||
        space + 1 >= line.size()) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": expected 'name value'";
      }
      return false;
    }
    const std::string key = line.substr(0, space);
    const std::string value_text = line.substr(space + 1);
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(value_text.c_str(), &end);
    if (end == value_text.c_str() || *end != '\0' || errno != 0) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": bad value '" +
                 value_text + "'";
      }
      return false;
    }
    // A name must start with a letter and any '{' must close at the end.
    const char c0 = key[0];
    if (!((c0 >= 'a' && c0 <= 'z') || (c0 >= 'A' && c0 <= 'Z') || c0 == '_')) {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": bad metric name";
      }
      return false;
    }
    const std::size_t brace = key.find('{');
    if (brace != std::string::npos && key.back() != '}') {
      if (error != nullptr) {
        *error = "line " + std::to_string(lineno) + ": unterminated labels";
      }
      return false;
    }
    (*out)[key] = value;
  }
  return true;
}

}  // namespace rtlsat::metrics

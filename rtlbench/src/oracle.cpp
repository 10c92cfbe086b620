#include "oracle.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bitblast/bitblast.h"
#include "bmc/unroll.h"
#include "itc99/itc99.h"

namespace rtlbench {

std::string InstanceSpec::name() const {
  return model + "_" + property + "(" + std::to_string(bound) + ")";
}

bool Oracle::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string instance;
    std::string verdict;
    if (!std::getline(fields, instance, '\t') || !(fields >> verdict) ||
        (verdict != "sat" && verdict != "unsat")) {
      *error = path + ":" + std::to_string(line_no) + ": malformed row";
      return false;
    }
    verdicts_[instance] = verdict;
  }
  return true;
}

std::string Oracle::verdict(const std::string& instance) const {
  const auto it = verdicts_.find(instance);
  return it == verdicts_.end() ? "" : it->second;
}

bool write_oracle(const std::vector<InstanceSpec>& instances,
                  const std::string& path) {
  std::vector<std::string> verdicts(instances.size());
  std::atomic<std::size_t> next{0};
  std::mutex log_mu;
  const auto worker = [&] {
    for (std::size_t i = next++; i < instances.size(); i = next++) {
      const InstanceSpec& spec = instances[i];
      const rtlsat::ir::SeqCircuit seq = rtlsat::itc99::build(spec.model);
      const rtlsat::bmc::BmcInstance inst =
          rtlsat::bmc::unroll(seq, spec.property, spec.bound);
      const auto check =
          rtlsat::bitblast::check_sat(inst.circuit, inst.goal, true);
      if (check.result == rtlsat::sat::Result::kSat) {
        // The oracle's own model must replay, or its SAT row is worthless.
        const auto values = inst.circuit.evaluate(check.input_model);
        verdicts[i] = values[inst.goal] == 1 ? "sat" : "";
      } else if (check.result == rtlsat::sat::Result::kUnsat) {
        verdicts[i] = "unsat";
      }
      std::lock_guard<std::mutex> lock(log_mu);
      std::fprintf(stderr, "oracle %s: %s\n", spec.name().c_str(),
                   verdicts[i].empty() ? "FAILED" : verdicts[i].c_str());
    }
  };
  std::vector<std::thread> pool;
  const unsigned threads = std::max(std::thread::hardware_concurrency(), 1u);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "# Reference verdicts from bitblast::check_sat (SAT models "
               "replayed).\n# Regenerate: rtlbench --make-oracle <path>\n");
  bool ok = true;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    ok = ok && !verdicts[i].empty();
    std::fprintf(f, "%s\t%s\n", instances[i].name().c_str(),
                 verdicts[i].empty() ? "unknown" : verdicts[i].c_str());
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace rtlbench

// Reference verdicts for every instance the workloads solve, produced once
// by the bit-blast CDCL engine (bitblast::check_sat), which shares no
// search code with HDPLL. The table is rtlbench/oracle.tsv: one
// "<instance>\t<sat|unsat>" row per instance, '#' lines are comments.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace rtlbench {

// One BMC instance: `model` unrolled for `bound` frames against
// `property`, named as the unroller names it ("b13_5(200)").
struct InstanceSpec {
  std::string model;
  std::string property;
  int bound = 0;
  std::string name() const;
};

class Oracle {
 public:
  bool load(const std::string& path, std::string* error);
  // "sat", "unsat", or "" when the table has no row for the instance.
  std::string verdict(const std::string& instance) const;

 private:
  std::map<std::string, std::string> verdicts_;
};

// Solves every instance with the bit-blast engine, one thread per core, and
// writes the table. Returns false when an instance did not finish.
bool write_oracle(const std::vector<InstanceSpec>& instances,
                  const std::string& path);

}  // namespace rtlbench

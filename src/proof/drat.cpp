#include "proof/drat.h"

#include <cstdio>
#include <cstdlib>

namespace rtlsat::proof {

namespace {

void append_text_clause(std::string* out, const std::vector<int>& clause) {
  for (const int lit : clause) {
    *out += std::to_string(lit);
    *out += ' ';
  }
  *out += "0\n";
}

// Binary DRAT maps signed lit l to the unsigned 2·|l| + (l < 0), emitted
// as ULEB128, with a 0 byte terminating the clause.
void append_binary_clause(std::string* out, const std::vector<int>& clause) {
  for (const int lit : clause) {
    auto mapped = static_cast<std::uint64_t>(
        2 * static_cast<std::uint64_t>(lit < 0 ? -static_cast<std::int64_t>(lit)
                                               : lit) +
        (lit < 0 ? 1 : 0));
    do {
      const auto byte = static_cast<unsigned char>(mapped & 0x7f);
      mapped >>= 7;
      out->push_back(static_cast<char>(mapped != 0 ? byte | 0x80 : byte));
    } while (mapped != 0);
  }
  out->push_back('\0');
}

}  // namespace

void DratWriter::original(const std::vector<int>& clause) {
  ++num_original_;
  for (const int lit : clause) {
    const int var = lit < 0 ? -lit : lit;
    if (var > max_var_) max_var_ = var;
  }
  append_text_clause(&formula_, clause);
}

void DratWriter::emit(char tag, const std::vector<int>& clause) {
  for (const int lit : clause) {
    const int var = lit < 0 ? -lit : lit;
    if (var > max_var_) max_var_ = var;
  }
  if (options_.binary) {
    proof_.push_back(tag == 'd' ? 'd' : 'a');
    append_binary_clause(&proof_, clause);
  } else {
    if (tag == 'd') proof_ += "d ";
    append_text_clause(&proof_, clause);
  }
}

void DratWriter::learned(const std::vector<int>& clause) {
  ++num_steps_;
  if (clause.empty()) concluded_ = true;
  emit('a', clause);
}

void DratWriter::deleted(const std::vector<int>& clause) {
  ++num_steps_;
  ++num_deletions_;
  emit('d', clause);
}

std::string DratWriter::dimacs() const {
  std::string out = "p cnf " + std::to_string(max_var_) + ' ' +
                    std::to_string(num_original_) + '\n';
  out += formula_;
  return out;
}

bool DratWriter::save(const std::string& dimacs_path,
                      const std::string& proof_path,
                      std::string* error) const {
  const auto write_file = [error](const std::string& path,
                                  const std::string& content) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      if (error != nullptr) *error = "cannot open " + path;
      return false;
    }
    const std::size_t written =
        content.empty() ? 0 : std::fwrite(content.data(), 1, content.size(), f);
    const bool ok = std::fclose(f) == 0 && written == content.size();
    if (!ok && error != nullptr) *error = "short write to " + path;
    return ok;
  };
  return write_file(dimacs_path, dimacs()) &&
         write_file(proof_path, proof_);
}

}  // namespace rtlsat::proof

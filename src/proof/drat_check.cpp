#include "proof/drat_check.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <unordered_map>
#include <vector>

namespace rtlsat::proof {

namespace {

// Literal code: 2·(var−1) + (negated ? 1 : 0), vars are 1-based DIMACS.
std::uint32_t code_of(int lit) {
  const auto var = static_cast<std::uint32_t>(lit < 0 ? -lit : lit);
  return 2 * (var - 1) + (lit < 0 ? 1 : 0);
}

struct ProofStep {
  bool deletion = false;
  std::vector<int> lits;
};

// A clause as the checker keeps it: sorted, each literal once. Producers
// log clauses exactly as they were passed in, so a formula or proof line
// may repeat a literal; two watches on the same literal would make a unit
// clause look binary and stop it from propagating.
std::vector<int> canonical(std::vector<int> lits) {
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  return lits;
}

bool parse_dimacs(std::string_view text, std::vector<std::vector<int>>* out,
                  std::string* error) {
  std::vector<int> current;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (c == 'c' || c == 'p') {  // comment / problem line: skip to newline
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    bool negative = false;
    if (c == '-') {
      negative = true;
      ++i;
    }
    if (i >= text.size() ||
        std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      *error = "dimacs: unexpected character at byte " + std::to_string(i);
      return false;
    }
    long value = 0;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      value = value * 10 + (text[i] - '0');
      if (value > 1 << 30) {
        *error = "dimacs: literal out of range";
        return false;
      }
      ++i;
    }
    if (value == 0) {
      out->push_back(canonical(std::move(current)));
      current.clear();
    } else {
      current.push_back(negative ? -static_cast<int>(value)
                                 : static_cast<int>(value));
    }
  }
  if (!current.empty()) {
    *error = "dimacs: last clause not 0-terminated";
    return false;
  }
  return true;
}

bool parse_text_proof(std::string_view text, std::vector<ProofStep>* out,
                      std::string* error) {
  ProofStep current;
  bool in_clause = false;  // saw 'd' or at least one literal
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (c == 'c') {
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (c == 'd' && !in_clause) {
      current.deletion = true;
      in_clause = true;
      ++i;
      continue;
    }
    bool negative = false;
    if (c == '-') {
      negative = true;
      ++i;
    }
    if (i >= text.size() ||
        std::isdigit(static_cast<unsigned char>(text[i])) == 0) {
      *error = "proof: unexpected character at byte " + std::to_string(i);
      return false;
    }
    long value = 0;
    while (i < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
      value = value * 10 + (text[i] - '0');
      if (value > 1 << 30) {
        *error = "proof: literal out of range";
        return false;
      }
      ++i;
    }
    in_clause = true;
    if (value == 0) {
      current.lits = canonical(std::move(current.lits));
      out->push_back(std::move(current));
      current = ProofStep{};
      in_clause = false;
    } else {
      current.lits.push_back(negative ? -static_cast<int>(value)
                                      : static_cast<int>(value));
    }
  }
  if (in_clause) {
    *error = "proof: truncated final step (missing 0 terminator)";
    return false;
  }
  return true;
}

bool parse_binary_proof(std::string_view bytes, std::vector<ProofStep>* out,
                        std::string* error) {
  std::size_t i = 0;
  while (i < bytes.size()) {
    const auto tag = static_cast<unsigned char>(bytes[i++]);
    ProofStep step;
    if (tag == 'd') {
      step.deletion = true;
    } else if (tag != 'a') {
      *error = "proof: bad step tag 0x" + std::to_string(tag) + " at byte " +
               std::to_string(i - 1);
      return false;
    }
    while (true) {
      if (i >= bytes.size()) {
        *error = "proof: truncated final step (unterminated clause)";
        return false;
      }
      std::uint64_t mapped = 0;
      int shift = 0;
      while (true) {
        if (i >= bytes.size() || shift > 63) {
          *error = "proof: malformed varint at byte " + std::to_string(i);
          return false;
        }
        const auto byte = static_cast<unsigned char>(bytes[i++]);
        mapped |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) break;
        shift += 7;
      }
      if (mapped == 0) break;  // clause terminator
      if (mapped < 2 || mapped > (1u << 31)) {
        *error = "proof: literal out of range at byte " + std::to_string(i);
        return false;
      }
      const auto var = static_cast<int>(mapped >> 1);
      step.lits.push_back((mapped & 1) != 0 ? -var : var);
    }
    step.lits = canonical(std::move(step.lits));
    out->push_back(std::move(step));
  }
  return true;
}

// Hash of a canonical clause, used to resolve deletion lines by content.
std::size_t clause_hash(const std::vector<int>& lits) {
  std::size_t h = 0x9e3779b97f4a7c15ull;
  for (const int l : lits) {
    h ^= static_cast<std::size_t>(static_cast<long long>(l)) +
         0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  }
  return h;
}

// `stored` may have had its literals reordered by watch maintenance.
bool same_clause(std::vector<int> stored, const std::vector<int>& lits) {
  std::sort(stored.begin(), stored.end());
  return stored == lits;
}

class RupChecker {
 public:
  void ensure_var(int lit) {
    const auto var = static_cast<std::size_t>(lit < 0 ? -lit : lit);
    if (var > value_.size()) {
      value_.resize(var, 0);
      watches_.resize(2 * var);
    }
  }

  // Adds a clause to the store and maintains root propagation. Returns
  // false only on a root conflict — which means the formula is refuted.
  bool attach(std::vector<int> lits) {
    for (const int l : lits) ensure_var(l);
    const std::uint32_t id = static_cast<std::uint32_t>(clauses_.size());
    by_hash_.emplace(clause_hash(lits), id);
    clauses_.push_back({std::move(lits), false});
    std::vector<int>& c = clauses_.back().lits;
    if (c.empty()) return false;
    // Prefer non-false watches; a clause attached at root with ≤1
    // non-false literal is unit (enqueue) or conflicting.
    std::size_t non_false = 0;
    for (std::size_t k = 0; k < c.size(); ++k) {
      if (value_of(c[k]) != -1) {
        std::swap(c[k], c[non_false]);
        ++non_false;
        if (non_false == 2) break;
      }
    }
    if (non_false == 0) return false;
    if (c.size() == 1 || non_false == 1) {
      watch(c[0], id);
      if (c.size() > 1) watch(c[1], id);
      if (value_of(c[0]) == 0) enqueue(c[0]);
      return propagate();
    }
    watch(c[0], id);
    watch(c[1], id);
    return true;
  }

  // RUP test: assume the negation of `lits`, propagate, require conflict.
  // Restores the pre-call trail before returning.
  bool clause_is_rup(const std::vector<int>& lits) {
    for (const int l : lits) ensure_var(l);
    const std::size_t mark = trail_.size();
    const std::size_t qmark = qhead_;
    bool conflict = false;
    for (const int l : lits) {
      const int v = value_of(l);
      if (v == 1) {  // clause already satisfied at root ⟹ ¬l conflicts
        conflict = true;
        break;
      }
      if (v == 0) enqueue(-l);
    }
    if (!conflict) conflict = !propagate();
    // Undo the assumptions and everything they propagated.
    while (trail_.size() > mark) {
      value_[static_cast<std::size_t>(std::abs(trail_.back())) - 1] = 0;
      trail_.pop_back();
    }
    qhead_ = qmark;
    return conflict;
  }

  // Marks one clause matching `lits` (by content) deleted. Returns false
  // if none matched.
  bool remove(const std::vector<int>& lits) {
    auto [lo, hi] = by_hash_.equal_range(clause_hash(lits));
    for (auto it = lo; it != hi; ++it) {
      Clause& c = clauses_[it->second];
      if (!c.deleted && same_clause(c.lits, lits)) {
        c.deleted = true;
        by_hash_.erase(it);
        return true;
      }
    }
    return false;
  }

 private:
  struct Clause {
    std::vector<int> lits;
    bool deleted = false;
  };

  int value_of(int lit) const {
    const int v = value_[static_cast<std::size_t>(std::abs(lit)) - 1];
    return lit < 0 ? -v : v;
  }

  void enqueue(int lit) {
    value_[static_cast<std::size_t>(std::abs(lit)) - 1] = lit < 0 ? -1 : 1;
    trail_.push_back(lit);
  }

  void watch(int lit, std::uint32_t id) {
    watches_[code_of(lit)].push_back(id);
  }

  // Two-watched-literal propagation from qhead_. Returns false on
  // conflict; whether that conflict is at root (formula refuted) or under
  // RUP assumptions is the caller's context.
  bool propagate() {
    while (qhead_ < trail_.size()) {
      const int lit = trail_[qhead_++];
      std::vector<std::uint32_t>& wl = watches_[code_of(-lit)];
      std::size_t keep = 0;
      for (std::size_t i = 0; i < wl.size(); ++i) {
        const std::uint32_t id = wl[i];
        Clause& c = clauses_[id];
        if (c.deleted) continue;  // lazily dropped from the watch list
        std::vector<int>& lits = c.lits;
        if (lits.size() == 1) {
          // Unit clause watched once; falsified ⟹ conflict.
          if (value_of(lits[0]) == -1) {
            for (; i < wl.size(); ++i) wl[keep++] = wl[i];
            wl.resize(keep);
            return false;
          }
          wl[keep++] = id;
          continue;
        }
        if (lits[0] == -lit) std::swap(lits[0], lits[1]);
        if (value_of(lits[0]) == 1) {
          wl[keep++] = id;
          continue;
        }
        bool moved = false;
        for (std::size_t k = 2; k < lits.size(); ++k) {
          if (value_of(lits[k]) != -1) {
            std::swap(lits[1], lits[k]);
            watch(lits[1], id);
            moved = true;
            break;
          }
        }
        if (moved) continue;
        wl[keep++] = id;
        if (value_of(lits[0]) == -1) {
          for (++i; i < wl.size(); ++i) wl[keep++] = wl[i];
          wl.resize(keep);
          return false;
        }
        enqueue(lits[0]);
      }
      wl.resize(keep);
    }
    return true;
  }

  std::vector<Clause> clauses_;
  std::vector<std::vector<std::uint32_t>> watches_;  // by literal code
  std::vector<int> value_;                           // 1/-1/0 per var
  std::vector<int> trail_;
  std::size_t qhead_ = 0;
  std::unordered_multimap<std::size_t, std::uint32_t> by_hash_;
};

}  // namespace

DratCheckResult drat_check(std::string_view dimacs, std::string_view proof,
                           bool binary) {
  DratCheckResult result;
  std::vector<std::vector<int>> problem;
  if (!parse_dimacs(dimacs, &problem, &result.error)) return result;
  std::vector<ProofStep> steps;
  const bool parsed = binary
                          ? parse_binary_proof(proof, &steps, &result.error)
                          : parse_text_proof(proof, &steps, &result.error);
  if (!parsed) return result;

  RupChecker checker;
  bool refuted = false;
  for (auto& clause : problem) {
    if (!checker.attach(std::move(clause))) {
      refuted = true;  // the formula propagates to conflict on its own
      break;
    }
  }
  for (std::size_t i = 0; i < steps.size() && !refuted; ++i) {
    ProofStep& step = steps[i];
    ++result.steps_checked;
    if (step.deletion) {
      if (!checker.remove(step.lits)) ++result.deletions_ignored;
      continue;
    }
    if (!checker.clause_is_rup(step.lits)) {
      result.error = "step " + std::to_string(i + 1) +
                     ": clause is not RUP (no conflict from its negation)";
      return result;
    }
    if (!checker.attach(std::move(step.lits))) refuted = true;
  }
  if (!refuted) {
    result.error = "proof ends without deriving the empty clause";
    return result;
  }
  result.ok = true;
  return result;
}

}  // namespace rtlsat::proof

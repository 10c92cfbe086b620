#include "serve/cache.h"

namespace rtlsat::serve {

std::optional<ResultMsg> ExactCache::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const ResultMsg* hit = lru_.find(key);
  if (hit == nullptr) return std::nullopt;
  ++hits_;
  return *hit;
}

void ExactCache::insert(const std::string& key, ResultMsg result) {
  std::lock_guard<std::mutex> lock(mu_);
  if (lru_.find(key) == nullptr) lru_.insert(key, std::move(result));
}

std::size_t ExactCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::int64_t ExactCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::optional<CachedResult> ResultCache::lookup(const ir::CanonicalCone& cone,
                                                bool value) {
  const std::string key = make_key(cone, value);
  std::lock_guard<std::mutex> lock(mu_);
  const CachedResult* hit = lru_.find(key);
  if (hit == nullptr) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return *hit;
}

void ResultCache::insert(const ir::CanonicalCone& cone, bool value,
                         CachedResult result) {
  if (result.status != core::SolveStatus::kSat &&
      result.status != core::SolveStatus::kUnsat) {
    return;
  }
  std::string key = make_key(cone, value);
  std::lock_guard<std::mutex> lock(mu_);
  if (lru_.find(key) == nullptr) lru_.insert(std::move(key), std::move(result));
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::int64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::int64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::int64_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.evictions();
}

}  // namespace rtlsat::serve

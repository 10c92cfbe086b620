// The one bounded LRU behind serve's four stores: cache.h's ExactCache and
// ResultCache, bank.h's ClauseBank and BmcSessionBank. It is a map from a
// string key to a Value plus a recency list; each store wraps it in its
// own mutex together with the policy that makes it that store
// (decisive-only inserts, hit/miss counters, worker-id ranges, capacity 0
// meaning "never share").
//
// The index holds string_views into the list nodes' keys: nodes never move
// (splice relinks them), so each key is stored once however long it is —
// for the canonical tier that is the whole cone text.
#pragma once

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

namespace rtlsat::serve {

// Injective key for a byte-identical request; `goal` is one .rtl token so
// the newline separators cannot be forged. The exact-text cache tier keys
// results by it, and both banks key their shared solver state by it.
inline std::string exact_request_key(const std::string& rtl,
                                     const std::string& goal, bool value) {
  std::string key = goal;
  key += value ? "\n1\n" : "\n0\n";
  key += rtl;
  return key;
}

// Not thread-safe; the owning store locks around it.
template <typename Value>
class Lru {
 public:
  explicit Lru(std::size_t capacity) : capacity_(capacity) {}
  Lru(const Lru&) = delete;
  Lru& operator=(const Lru&) = delete;

  // The value under `key`, bumped to most recently used; null when absent.
  Value* find(std::string_view key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    list_.splice(list_.begin(), list_, it->second);
    return &it->second->second;
  }

  // Stores `value` under the absent `key` as most recently used, dropping
  // the least recently used entry beyond the capacity. Returns the stored
  // value; null, with nothing stored, when the capacity is 0.
  Value* insert(std::string key, Value value) {
    if (capacity_ == 0) return nullptr;
    list_.emplace_front(std::move(key), std::move(value));
    index_.emplace(list_.front().first, list_.begin());
    if (list_.size() > capacity_) {
      index_.erase(list_.back().first);
      list_.pop_back();
      ++evictions_;
    }
    return &list_.front().second;
  }

  std::size_t size() const { return list_.size(); }
  std::int64_t evictions() const { return evictions_; }

 private:
  using Node = std::pair<std::string, Value>;

  std::size_t capacity_;
  std::list<Node> list_;  // front = most recently used
  std::unordered_map<std::string_view, typename std::list<Node>::iterator>
      index_;
  std::int64_t evictions_ = 0;
};

}  // namespace rtlsat::serve

#include "serve/bank.h"

namespace rtlsat::serve {

BankCheckout ClauseBank::checkout(const std::string& rtl,
                                  const std::string& goal, bool value,
                                  int workers) {
  std::string key = exact_request_key(rtl, goal, value);
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = lru_.find(key);
  if (entry == nullptr) {
    auto pool = std::make_shared<portfolio::ClausePool>();
    entry = lru_.insert(std::move(key), Entry{pool});
    // Capacity 0 stores nothing: the unshared pool behaves exactly like the
    // portfolio's local one, so callers need no special case.
    if (entry == nullptr) return BankCheckout{pool, 0};
  }
  BankCheckout out{entry->pool, entry->next_worker_id};
  entry->next_worker_id += workers > 0 ? workers : 1;
  return out;
}

std::size_t ClauseBank::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::shared_ptr<BmcSession> BmcSessionBank::checkout(
    const std::string& seq_rtl, const std::string& property,
    bool cumulative) {
  std::string key = exact_request_key(seq_rtl, property, cumulative);
  std::lock_guard<std::mutex> lock(mu_);
  if (const auto* session = lru_.find(key)) return *session;
  auto session = std::make_shared<BmcSession>();
  // Capacity 0 stores nothing: the caller gets a fresh unshared session.
  lru_.insert(std::move(key), session);
  return session;
}

std::size_t BmcSessionBank::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

}  // namespace rtlsat::serve

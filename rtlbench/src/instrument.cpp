#include "instrument.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace rtlbench {
namespace {

std::atomic<bool> g_counting{false};

// Per-thread counter slots, so the serve workload's solver threads do not
// all bump one contended cache line.
struct alignas(64) Slot {
  std::atomic<std::int64_t> count{0};
  std::atomic<std::int64_t> bytes{0};
};
constexpr int kSlots = 64;
Slot g_slots[kSlots];
std::atomic<int> g_next_slot{0};
thread_local int t_slot = -1;

inline void count_alloc(std::size_t bytes) {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  if (t_slot < 0)
    t_slot = g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
  Slot& slot = g_slots[t_slot];
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.bytes.fetch_add(static_cast<std::int64_t>(bytes),
                       std::memory_order_relaxed);
}

void* checked_malloc(std::size_t bytes) {
  count_alloc(bytes);
  void* p = std::malloc(bytes == 0 ? 1 : bytes);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* checked_aligned(std::size_t bytes, std::align_val_t align) {
  count_alloc(bytes);
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, a, bytes == 0 ? 1 : bytes) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

AllocCounts alloc_counts() {
  AllocCounts out;
  for (const Slot& slot : g_slots) {
    out.count += slot.count.load(std::memory_order_relaxed);
    out.bytes += slot.bytes.load(std::memory_order_relaxed);
  }
  return out;
}

int SpanLog::add(const std::string& name, int parent,
                 const std::string& subject, double start_s, double dur_s) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, parent, name, subject, start_s, dur_s});
  return id;
}

int SpanLog::open(const std::string& name, int parent,
                  const std::string& subject) {
  return add(name, parent, subject, now(), 0);
}

void SpanLog::close(int id) {
  if (id < 0) return;
  const double end = now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.dur_s = end - span.start_s;
}

double SpanLog::duration(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int>(spans_.size())) return 0;
  return spans_[static_cast<std::size_t>(id)].dur_s;
}

std::map<std::string, double> SpanLog::self_seconds(int root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  if (root < 0) return out;
  // A span is opened after its parent, so ids increase down every chain.
  const std::size_t n = spans_.size();
  std::vector<char> under(n, 0);
  std::vector<double> child_sum(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const int p = spans_[i].parent;
    if (p < 0) continue;
    const auto pi = static_cast<std::size_t>(p);
    under[i] = p == root || under[pi] != 0;
    child_sum[pi] += spans_[i].dur_s;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (under[i] == 0) continue;
    out[spans_[i].name] += spans_[i].dur_s - child_sum[i];
  }
  return out;
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"subject\":\"%s\","
                 "\"start_s\":%.9f,\"dur_s\":%.9f}\n",
                 s.id, s.parent, s.name.c_str(), s.subject.c_str(), s.start_s,
                 s.dur_s);
  }
  return std::fclose(f) == 0;
}

}  // namespace rtlbench

// The counting allocator. Replacing the global forms covers every
// allocation in the process, the library's included.
void* operator new(std::size_t n) { return rtlbench::checked_malloc(n); }
void* operator new[](std::size_t n) { return rtlbench::checked_malloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return rtlbench::checked_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return rtlbench::checked_malloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t a) {
  return rtlbench::checked_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return rtlbench::checked_aligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

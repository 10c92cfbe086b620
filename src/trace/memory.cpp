#include "trace/memory.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace rtlsat::trace {

ProcMemory read_proc_memory() {
  ProcMemory mem;
#ifdef __linux__
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return mem;
  char line[256];
  bool saw_rss = false;
  bool saw_peak = false;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    // Lines look like "VmRSS:      123456 kB".
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      mem.rss_kb = std::strtoll(line + 6, nullptr, 10);
      saw_rss = true;
    } else if (std::strncmp(line, "VmHWM:", 6) == 0) {
      mem.rss_peak_kb = std::strtoll(line + 6, nullptr, 10);
      saw_peak = true;
    }
    if (saw_rss && saw_peak) break;
  }
  std::fclose(f);
  mem.ok = saw_rss && saw_peak;
#endif
  return mem;
}

}  // namespace rtlsat::trace

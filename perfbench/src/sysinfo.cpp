#include "sysinfo.h"

#include <dirent.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (dirent* e = readdir(dir)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') ids.push_back(std::atoi(e->d_name));
  }
  closedir(dir);
  return ids;
}

std::uint64_t thread_cpu_ns(int tid) {
  // schedstat's first field is on-CPU time in ns; stat's utime + stime
  // (fields 14 and 15, in clock ticks) is the coarse fallback.
  std::string base = "/proc/self/task/" + std::to_string(tid);
  {
    std::ifstream in(base + "/schedstat");
    std::uint64_t ns = 0;
    if (in >> ns) return ns;
  }
  std::ifstream in(base + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(text.substr(close + 2));
  std::string f;
  std::uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> f; ++i) {
    if (i == 14) utime = std::strtoull(f.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(f.c_str(), nullptr, 10);
  }
  long hz = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1000000000ull / static_cast<std::uint64_t>(hz > 0 ? hz : 100));
}

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

bool set_thread_cpus(int tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::uint64_t self_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace perfbench

// Process and thread facts from /proc and the scheduler, for the validity
// guard and the memory metric.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// CPUs this process may run on (what `nproc` prints).
int cpus_available();

/// Peak resident set size of the process so far (VmHWM), in MiB.
double peak_rss_mb();

/// Kernel thread ids of this process.
std::vector<int> thread_ids();

/// CPU time consumed so far by thread `tid` of this process, in ns.
std::uint64_t thread_cpu_ns(int tid);

/// CPU time consumed so far by the calling thread, in ns.
std::uint64_t self_cpu_ns();

/// The CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// Restricts thread `tid` (0 = the calling thread) to `cpus`.
bool set_thread_cpus(int tid, const std::vector<int>& cpus);

}  // namespace perfbench

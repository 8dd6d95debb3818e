#pragma once
// Process-level runtime counters: OS thread count from /proc/self/task and
// CPU time and context switches from getrusage.

#include <cstdint>

namespace perfbench {

struct ProcStat {
  double cpuSeconds = 0;            ///< user + system
  std::uint64_t contextSwitches = 0;  ///< voluntary + involuntary

  static ProcStat now();
  ProcStat operator-(const ProcStat& earlier) const;
};

/// Number of OS threads of this process right now.
std::uint64_t threadCount();

/// Online processors.
unsigned processorCount();

}  // namespace perfbench

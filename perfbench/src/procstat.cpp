#include "procstat.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

ProcStat ProcStat::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  ProcStat s;
  s.cpuSeconds = secs(ru.ru_utime) + secs(ru.ru_stime);
  s.contextSwitches = static_cast<std::uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return s;
}

ProcStat ProcStat::operator-(const ProcStat& earlier) const {
  ProcStat d;
  d.cpuSeconds = cpuSeconds - earlier.cpuSeconds;
  d.contextSwitches = contextSwitches - earlier.contextSwitches;
  return d;
}

std::uint64_t threadCount() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  std::uint64_t n = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

unsigned processorCount() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

}  // namespace perfbench

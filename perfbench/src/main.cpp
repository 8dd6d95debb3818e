// The dapple benchmark binary.
//
//   perfbench --workload <wan-rpc|wan-fanout|wan-session> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file>]
//
// Builds the workload's rig (the median of kSetups builds is setup_s),
// measures for --seconds, checks the workload's oracles and prints one line
// per figure, then the result as one JSON object on the last line: the
// end-to-end metrics for --trace 0, the per-layer metrics for --trace 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "dapple/util/log.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<wan-rpc|wan-fanout|wan-session> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\n",
               why.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--spans") {
      options.spansPath = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!(options.seconds > 0)) return usage("--seconds must be positive");

  // Lossy WAN links make the library warn about expected retransmissions
  // and recalls; only errors belong on the benchmark's stderr.
  dapple::log::setLevel(dapple::log::Level::kError);
  try {
    perfbench::Report report;
    if (options.workload == "wan-rpc") {
      report = perfbench::runWanRpc(options);
    } else if (options.workload == "wan-fanout") {
      report = perfbench::runWanFanout(options);
    } else if (options.workload == "wan-session") {
      report = perfbench::runWanSession(options);
    } else {
      return usage("unknown workload '" + options.workload + "'");
    }
    report.print(options.trace);
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
}

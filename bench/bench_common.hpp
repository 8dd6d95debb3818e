#pragma once
// Shared bench-harness helpers: every bench_* binary, google-benchmark or
// hand-rolled, emits a machine-readable BENCH_<name>.json next to where it
// runs, and understands `--quick` (one cheap repetition) so CI can smoke the
// whole suite (the `bench-smoke` ctest label) without paying full
// measurement time.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dapple/core/reactor.hpp"
#include "dapple/reliable/reliable.hpp"
#include "dapple/serial/wire.hpp"

namespace dapple::benchutil {

/// True when `--quick` appears in argv.  Hand-rolled benches use this to
/// shrink their sweeps; runBenchmarks() handles it for google-benchmark.
inline bool quickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") return true;
  }
  return false;
}

/// `--codec text|binary` (default text, matching DappletConfig).  Benches
/// on the data path thread this into their rig configs so the same binary
/// captures a text baseline and a binary candidate; runBenchmarks() strips
/// the flag before gbench sees it.
inline WireCodec codecFlag(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--codec" &&
        std::string(argv[i + 1]) == "binary") {
      return WireCodec::kBinary;
    }
  }
  return WireCodec::kText;
}

/// Paces standalone endpoints' retransmission scans as a dapplet does: a
/// one-loop reactor on their clock (null: the system clock) ticks each of
/// them every `interval`.  Declare it after the endpoints, so that it stops
/// first.
inline std::unique_ptr<Reactor> tickEvery(
    Duration interval, std::initializer_list<ReliableEndpoint*> endpoints,
    ClockSource* clock = nullptr) {
  Reactor::Options opts;
  opts.threads = 1;
  opts.clock = clock;
  auto reactor = std::make_unique<Reactor>(opts);
  for (ReliableEndpoint* endpoint : endpoints) {
    reactor->every(interval, [endpoint] { endpoint->tick(); });
  }
  return reactor;
}

/// Google-benchmark front door.  Rewrites argv so that:
///  * `--quick` becomes `--benchmark_min_time=0.01` (one short repetition);
///  * unless the caller passed `--benchmark_out`, the run writes
///    `BENCH_<shortName>.json` in JSON format.  (Constructing a JSONReporter
///    by hand is NOT equivalent: RunSpecifiedBenchmarks ignores the file
///    reporter when the flag is absent.)
inline int runBenchmarks(const char* shortName, int argc, char** argv) {
  std::vector<std::string> args;
  args.emplace_back(argc > 0 ? argv[0] : shortName);
  bool haveOut = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      args.emplace_back("--benchmark_min_time=0.01");
      continue;
    }
    if (arg == "--codec") {  // consumed by codecFlag(); skip flag + value
      if (i + 1 < argc) ++i;
      continue;
    }
    if (arg.rfind("--benchmark_out=", 0) == 0) haveOut = true;
    args.push_back(std::move(arg));
  }
  if (!haveOut) {
    args.emplace_back(std::string("--benchmark_out=BENCH_") + shortName +
                      ".json");
    args.emplace_back("--benchmark_out_format=json");
  }
  std::vector<char*> argvVec;
  argvVec.reserve(args.size());
  for (std::string& a : args) argvVec.push_back(a.data());
  int argcVec = static_cast<int>(argvVec.size());
  benchmark::Initialize(&argcVec, argvVec.data());
  if (benchmark::ReportUnrecognizedArguments(argcVec, argvVec.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// JSON emitter for the hand-rolled benches (tables that don't fit
/// google-benchmark's per-iteration model).  Mirrors the gbench layout —
/// a top-level "benchmarks" array of {"name": ..., <numeric fields>} — so
/// one script can read both kinds of BENCH_*.json.
///
///   BenchReport rep("session");
///   rep.row("establish/members=8").num("median_ms", 12.3);
///   ...
///   // ~BenchReport (or rep.write()) emits BENCH_session.json
class BenchReport {
 public:
  explicit BenchReport(std::string shortName)
      : name_(std::move(shortName)) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() { write(); }

  class Row {
   public:
    Row& num(const std::string& key, double value) {
      fields_.emplace_back(key, value);
      return *this;
    }

   private:
    friend class BenchReport;
    explicit Row(std::string name) : name_(std::move(name)) {}
    std::string name_;
    std::vector<std::pair<std::string, double>> fields_;
  };

  Row& row(std::string rowName) {
    rows_.push_back(Row(std::move(rowName)));
    return rows_.back();
  }

  /// Writes BENCH_<name>.json.  Idempotent; also runs from the destructor.
  void write() {
    if (written_) return;
    written_ = true;
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return;
    }
    std::fprintf(f,
                 "{\n  \"context\": {\"bench\": \"%s\", \"format\": "
                 "\"dapple-bench-v1\"},\n  \"benchmarks\": [",
                 name_.c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f, "%s\n    {\"name\": \"%s\"", i == 0 ? "" : ",",
                   r.name_.c_str());
      for (const auto& [key, value] : r.fields_) {
        // JSON has no NaN/Inf literal; degrade to 0 rather than corrupt.
        const double safe = std::isfinite(value) ? value : 0.0;
        std::fprintf(f, ", \"%s\": %.6g", key.c_str(), safe);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
    std::printf("\n[bench] wrote %s (%zu rows)\n", path.c_str(),
                rows_.size());
  }

 private:
  std::string name_;
  std::vector<Row> rows_;
  bool written_ = false;
};

}  // namespace dapple::benchutil

#pragma once
// A run's result: run context, end-to-end metrics, per-layer metrics (each
// ratio with its base counts), oracle verdicts and the span summary.
// print() writes one human-readable line per item and, last, the single
// JSON object the benchmark contract asks for.

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

class Report {
 public:
  /// Run context: seed, machine, codec, transport, generator lateness...
  void info(const std::string& key, const std::string& value);
  void info(const std::string& key, double value);

  /// A metric every workload reports; in the JSON of an untraced run.
  void endToEnd(const std::string& name, double value, const std::string& unit);

  /// A per-layer metric every workload reports; in the JSON of a traced
  /// run.  `base` names what the value was computed from, with the counts.
  void layer(const std::string& name, double value, const std::string& unit,
             const std::string& base = "");

  /// A figure only this workload has (printed, never in the JSON).
  void extra(const std::string& name, double value, const std::string& unit,
             const std::string& base = "");

  /// An output check; any failure makes the run incorrect.
  void oracle(const std::string& name, bool pass, const std::string& detail);

  /// Operations attempted and failed (throws, wrong results, timeouts).
  void operations(std::uint64_t attempted, std::uint64_t failed);

  void spanSummary(const std::vector<SpanSummary>& summary,
                   const std::string& clock);

  bool correct() const;

  /// Prints everything; the JSON carries the per-layer metrics when
  /// `traced`, the end-to-end metrics otherwise.
  void print(bool traced) const;

 private:
  struct Item {
    std::string name;
    double value = 0;
    std::string unit;
    std::string base;
  };
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<Item> endToEnd_;
  std::vector<Item> layers_;
  std::vector<Item> extras_;
  struct Verdict {
    std::string name;
    bool pass = false;
    std::string detail;
  };
  std::vector<Verdict> oracles_;
  std::vector<SpanSummary> spans_;
  std::string spanClock_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Shortest round-trip decimal text of `v` (finite; NaN/inf print as 0).
std::string formatNumber(double v);

/// "num / den" with both counts, for ratio bases.
std::string base(const std::string& numName, double num,
                 const std::string& denName, double den);

}  // namespace perfbench

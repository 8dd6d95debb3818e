#include "report.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace perfbench {

std::string formatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string base(const std::string& numName, double num,
                 const std::string& denName, double den) {
  return numName + " " + formatNumber(num) + " / " + denName + " " +
         formatNumber(den);
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::info(const std::string& key, double value) {
  info_.emplace_back(key, formatNumber(value));
}

void Report::endToEnd(const std::string& name, double value,
                      const std::string& unit) {
  endToEnd_.push_back({name, value, unit, ""});
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit, const std::string& base) {
  layers_.push_back({name, value, unit, base});
}

void Report::extra(const std::string& name, double value,
                   const std::string& unit, const std::string& base) {
  extras_.push_back({name, value, unit, base});
}

void Report::oracle(const std::string& name, bool pass,
                    const std::string& detail) {
  oracles_.push_back({name, pass, detail});
}

void Report::operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ = attempted;
  failed_ = failed;
}

void Report::spanSummary(const std::vector<SpanSummary>& summary,
                         const std::string& clock) {
  spans_ = summary;
  spanClock_ = clock;
}

bool Report::correct() const {
  if (failed_ != 0 || attempted_ == 0) return false;
  for (const Verdict& v : oracles_) {
    if (!v.pass) return false;
  }
  return true;
}

namespace {

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void printItem(const char* kind, const std::string& name, double value,
               const std::string& unit, const std::string& base) {
  std::printf("%-7s %s = %s %s", kind, name.c_str(),
              formatNumber(value).c_str(), unit.c_str());
  if (!base.empty()) std::printf("  (%s)", base.c_str());
  std::printf("\n");
}

}  // namespace

void Report::print(bool traced) const {
  for (const auto& [key, value] : info_) {
    std::printf("info    %s = %s\n", key.c_str(), value.c_str());
  }
  for (const Verdict& v : oracles_) {
    std::printf("oracle  %s %s: %s\n", v.pass ? "PASS" : "FAIL",
                v.name.c_str(), v.detail.c_str());
  }
  const double failRatio =
      attempted_ == 0 ? 0.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("ops     attempted = %llu, failed = %llu, fail_ratio = %s\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_),
              formatNumber(failRatio).c_str());
  for (const Item& m : endToEnd_) {
    printItem("e2e", m.name, m.value, m.unit, m.base);
  }
  for (const Item& m : layers_) {
    printItem("layer", m.name, m.value, m.unit, m.base);
  }
  for (const Item& m : extras_) {
    printItem("extra", m.name, m.value, m.unit, m.base);
  }
  if (!spans_.empty()) {
    std::printf("spans   (%s clock) %-28s %10s %14s %14s\n", spanClock_.c_str(),
                "name", "count", "total_ms", "self_ms");
    for (const SpanSummary& s : spans_) {
      std::printf("span    %-40s %10llu %14.3f %14.3f\n", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.totalNs * 1e-6,
                  s.selfNs * 1e-6);
    }
  }
  const std::vector<Item>& metrics = traced ? layers_ : endToEnd_;
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += jsonString(metrics[i].name) + ": {\"value\": " +
            formatNumber(metrics[i].value) +
            ", \"unit\": " + jsonString(metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

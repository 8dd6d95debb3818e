#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <numeric>

namespace perfbench {

std::uint32_t SpanLog::intern(std::string_view name) {
  std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

const std::string& SpanLog::nameOf(std::uint32_t id) const {
  static const std::string kNone = "-";
  std::scoped_lock lock(mutex_);
  return id < names_.size() ? names_[id] : kNone;
}

SpanLog::Buffer& SpanLog::localBuffer() {
  // Keyed by log so a second SpanLog (as in the helper tests) never writes
  // into the first one's buffer.
  thread_local const SpanLog* owner = nullptr;
  thread_local Buffer* local = nullptr;
  if (owner != this) {
    auto buffer = std::make_unique<Buffer>();
    local = buffer.get();
    owner = this;
    std::scoped_lock lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  return *local;
}

void SpanLog::record(const Span& span) {
  Buffer& buffer = localBuffer();
  std::scoped_lock lock(buffer.mutex);
  buffer.spans.push_back(span);
}

std::vector<Span> SpanLog::drain() {
  std::vector<Span> all;
  std::scoped_lock lock(mutex_);
  for (auto& buffer : buffers_) {
    std::scoped_lock bufferLock(buffer->mutex);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

SpanLog& spans() {
  static SpanLog log;
  return log;
}

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<std::size_t> stitch(const std::vector<Span>& spans) {
  constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::vector<std::size_t> parentOf(spans.size(), npos);
  std::vector<std::size_t> order(spans.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return spans[a].seq != spans[b].seq ? spans[a].seq < spans[b].seq
                                        : spans[a].startNs < spans[b].startNs;
  });
  for (std::size_t lo = 0; lo < order.size();) {
    std::size_t hi = lo;
    while (hi < order.size() && spans[order[hi]].seq == spans[order[lo]].seq) {
      ++hi;
    }
    // One operation's spans: order[lo, hi).
    for (std::size_t i = lo; i < hi; ++i) {
      const Span& child = spans[order[i]];
      if (child.parent == SpanLog::kRoot) continue;
      for (std::size_t j = lo; j < hi; ++j) {
        const Span& cand = spans[order[j]];
        if (j != i && cand.name == child.parent &&
            cand.startNs <= child.startNs && child.startNs <= cand.endNs) {
          parentOf[order[i]] = order[j];
          break;
        }
      }
    }
    lo = hi;
  }
  return parentOf;
}

std::int64_t selfTimeNs(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  if (end <= start) return 0;
  for (auto& [s, e] : children) {
    s = std::clamp(s, start, end);
    e = std::clamp(e, start, end);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t runStart = 0, runEnd = 0;
  bool open = false;
  for (const auto& [s, e] : children) {
    if (e <= s) continue;
    if (open && s <= runEnd) {
      runEnd = std::max(runEnd, e);
      continue;
    }
    if (open) covered += runEnd - runStart;
    runStart = s;
    runEnd = e;
    open = true;
  }
  if (open) covered += runEnd - runStart;
  return (end - start) - covered;
}

std::vector<SpanSummary> summarize(const std::vector<Span>& spans,
                                   const SpanLog& names) {
  const std::vector<std::size_t> parentOf = stitch(spans);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (parentOf[i] != static_cast<std::size_t>(-1)) {
      children[parentOf[i]].emplace_back(spans[i].startNs, spans[i].endNs);
    }
  }
  std::map<std::uint32_t, SpanSummary> byName;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanSummary& s = byName[spans[i].name];
    ++s.count;
    s.totalNs += static_cast<double>(spans[i].endNs - spans[i].startNs);
    s.selfNs += static_cast<double>(
        selfTimeNs(spans[i].startNs, spans[i].endNs, std::move(children[i])));
  }
  std::vector<SpanSummary> out;
  for (auto& [id, s] : byName) {
    s.name = names.nameOf(id);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const SpanSummary& a, const SpanSummary& b) {
              return a.totalNs > b.totalNs;
            });
  return out;
}

std::size_t writeSpans(const std::string& path, const std::vector<Span>& spans,
                       const SpanLog& names, std::size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  const std::size_t n = std::min(limit, spans.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"seq\":%llu,\"name\":\"%s\",\"parent\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.seq),
                 names.nameOf(s.name).c_str(),
                 s.parent == SpanLog::kRoot ? ""
                                            : names.nameOf(s.parent).c_str(),
                 static_cast<long long>(s.startNs),
                 static_cast<long long>(s.endNs));
  }
  std::fclose(f);
  return n;
}

}  // namespace perfbench

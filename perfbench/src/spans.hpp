#pragma once
// In-memory spans recorded by the benchmark's own code around the public
// calls it makes into each layer.  A span has a name, a start, an end and
// the name of its parent; every span of one operation carries that
// operation's sequence id, so spans recorded on different threads (a caller
// and the server method it reached) stitch into one tree afterwards.
// Recording appends to a per-thread buffer; nothing is written until the
// run ends.

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t seq = 0;     ///< operation id shared by all its spans
  std::uint32_t name = 0;    ///< interned span name
  std::uint32_t parent = 0;  ///< interned parent name, or SpanLog::kRoot
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
};

class SpanLog {
 public:
  static constexpr std::uint32_t kRoot =
      std::numeric_limits<std::uint32_t>::max();

  /// Returns the id of `name`, adding it on first use.  Thread-safe; meant
  /// for set-up, not the hot path.
  std::uint32_t intern(std::string_view name);
  const std::string& nameOf(std::uint32_t id) const;

  /// Recording is off until enabled; workloads check enabled() once per
  /// operation so an operation is traced whole or not at all.
  void setEnabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Appends to the calling thread's buffer.
  void record(const Span& span);
  void record(std::uint64_t seq, std::uint32_t name, std::uint32_t parent,
              std::int64_t startNs, std::int64_t endNs) {
    record(Span{seq, name, parent, startNs, endNs});
  }

  /// Moves every recorded span out of every thread's buffer.
  std::vector<Span> drain();

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<Span> spans;
  };
  Buffer& localBuffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::deque<std::string> names_;  // stable references for nameOf
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// The process-wide span log.
SpanLog& spans();

/// Steady-clock nanoseconds (the span time base of the UDP workloads).
std::int64_t nowNs();

/// For every span, the index of its parent span, or npos for roots and
/// orphans.  The parent is the earliest span of the same seq whose name is
/// the child's parent name and whose interval contains the child's start.
std::vector<std::size_t> stitch(const std::vector<Span>& spans);

/// Duration of [start, end] not covered by the union of `children`
/// (each clipped to [start, end]).
std::int64_t selfTimeNs(std::int64_t start, std::int64_t end,
                        std::vector<std::pair<std::int64_t, std::int64_t>>
                            children);

struct SpanSummary {
  std::string name;
  std::uint64_t count = 0;
  double totalNs = 0;
  double selfNs = 0;
};

/// Stitches `spans` and returns count, total and self time per span name,
/// largest total first.
std::vector<SpanSummary> summarize(const std::vector<Span>& spans,
                                   const SpanLog& names);

/// Writes up to `limit` spans as JSON lines; returns the number written.
std::size_t writeSpans(const std::string& path, const std::vector<Span>& spans,
                       const SpanLog& names, std::size_t limit);

}  // namespace perfbench

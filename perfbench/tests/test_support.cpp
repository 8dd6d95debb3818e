// Tests of the benchmark's own helpers: sample and histogram percentiles,
// span stitching and self time.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenRanks) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5);
  std::vector<double> even{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(percentile(even, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(even, 0.99), 3.97);
}

TEST(Percentile, EmptyAndSingle) {
  std::vector<double> none;
  EXPECT_DOUBLE_EQ(percentile(none, 0.5), 0);
  std::vector<double> one{7};
  EXPECT_DOUBLE_EQ(percentile(one, 0.99), 7);
  EXPECT_DOUBLE_EQ(median({9, 1, 5}), 5);
  EXPECT_DOUBLE_EQ(ratio(1, 0), 0);
  EXPECT_DOUBLE_EQ(ratio(3, 2), 1.5);
}

TEST(HistogramQuantile, InterpolatesInsideTheLog2Bucket) {
  dapple::obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(100);  // bucket [64, 128)
  const double q = histogramQuantile(h.snapshot(), 0.5);
  EXPECT_GE(q, 64);
  EXPECT_LT(q, 128);
  EXPECT_DOUBLE_EQ(histogramQuantile(dapple::obs::HistogramSnapshot{}, 0.5), 0);
}

TEST(HistogramQuantile, StaysInsideTheBucketAtItsTopRank) {
  // 7 samples in [2, 4), 2 in [64, 128), 1 in [8192, 16384): rank 8.9 is
  // 1.9 ranks into the middle bucket, which holds only 2.
  dapple::obs::Histogram h;
  for (int i = 0; i < 7; ++i) h.record(3);
  for (int i = 0; i < 2; ++i) h.record(100);
  h.record(10000);
  const double q = histogramQuantile(h.snapshot(), 8.9 / 9);
  EXPECT_GE(q, 64);
  EXPECT_LE(q, 128);
}

TEST(HistogramQuantile, DeltaCoversOnlyTheWindow) {
  dapple::obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(3);
  const auto before = h.snapshot();
  for (int i = 0; i < 10; ++i) h.record(1000);
  const auto delta = histogramDelta(h.snapshot(), before);
  EXPECT_EQ(delta.count, 10u);
  EXPECT_GE(histogramQuantile(delta, 0.5), 512);
}

TEST(SelfTime, SubtractsTheUnionOfClippedChildren) {
  EXPECT_EQ(selfTimeNs(0, 100, {}), 100);
  EXPECT_EQ(selfTimeNs(0, 100, {{10, 30}, {20, 50}, {70, 80}}), 50);
  EXPECT_EQ(selfTimeNs(0, 100, {{-10, 5}, {95, 200}}), 90);
  EXPECT_EQ(selfTimeNs(0, 100, {{0, 100}, {10, 20}}), 0);
  EXPECT_EQ(selfTimeNs(50, 50, {{0, 100}}), 0);
}

TEST(Stitch, ParentsMatchWithinOneOperationAcrossThreads) {
  SpanLog log;
  const auto call = log.intern("rpc.call");
  const auto leg = log.intern("rpc.request_leg");
  const auto method = log.intern("rpc.method");
  // Two operations whose intervals overlap; only the seq tells them apart.
  // The children of op 1 are recorded on another thread, as a server
  // method records them.
  std::thread server([&] {
    log.record(1, leg, call, 0, 40);
    log.record(1, method, call, 40, 60);
  });
  server.join();
  log.record(1, call, SpanLog::kRoot, 0, 100);
  log.record(2, call, SpanLog::kRoot, 10, 90);
  log.record(2, method, call, 50, 55);
  const std::vector<Span> spans = log.drain();
  ASSERT_EQ(spans.size(), 5u);
  EXPECT_TRUE(log.drain().empty());
  const std::vector<std::size_t> parent = stitch(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent == SpanLog::kRoot) {
      EXPECT_EQ(parent[i], static_cast<std::size_t>(-1));
      continue;
    }
    ASSERT_NE(parent[i], static_cast<std::size_t>(-1));
    EXPECT_EQ(spans[parent[i]].seq, spans[i].seq);
    EXPECT_EQ(spans[parent[i]].name, call);
  }
}

TEST(Stitch, ChildOutsideEveryParentIsAnOrphan) {
  SpanLog log;
  const auto root = log.intern("member.tokens");
  const auto child = log.intern("tokens.request");
  const std::vector<Span> spans{{7, root, SpanLog::kRoot, 0, 10},
                                {7, child, root, 95, 99},  // after its op
                                {8, child, root, 0, 5}};   // op 8 has no root
  const std::vector<std::size_t> parent = stitch(spans);
  EXPECT_EQ(parent[1], static_cast<std::size_t>(-1));
  EXPECT_EQ(parent[2], static_cast<std::size_t>(-1));
}

TEST(Summarize, CountsTotalsAndSelfTimePerName) {
  SpanLog log;
  const auto call = log.intern("rpc.call");
  const auto leg = log.intern("rpc.request_leg");
  const std::vector<Span> spans{{1, call, SpanLog::kRoot, 0, 100},
                                {1, leg, call, 0, 30},
                                {2, call, SpanLog::kRoot, 0, 50},
                                {2, leg, call, 10, 20}};
  const std::vector<SpanSummary> s = summarize(spans, log);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].name, "rpc.call");
  EXPECT_EQ(s[0].count, 2u);
  EXPECT_DOUBLE_EQ(s[0].totalNs, 150);
  EXPECT_DOUBLE_EQ(s[0].selfNs, 110);
  EXPECT_EQ(s[1].name, "rpc.request_leg");
  EXPECT_DOUBLE_EQ(s[1].totalNs, 40);
  EXPECT_DOUBLE_EQ(s[1].selfNs, 40);
}

}  // namespace
}  // namespace perfbench

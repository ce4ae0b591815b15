// Metrics-registry suite (obs/metrics.h).
//
// The contract under test:
//  1. Registration is idempotent per name and kind-stable: the same name
//     always returns the same metric object; re-registering under a
//     different kind throws.
//  2. Recording is lossless under concurrency: counters, gauges and
//     histograms are hammered from several threads and the totals must
//     be exact (this is the TSan surface for the relaxed-atomic paths).
//     The histogram's own layout, quantile and merge contract lives in
//     test_histogram.cpp.
//  3. Exposition is deterministic: snapshots are name-sorted, and the
//     Prometheus/JSON renderings of equal state are identical strings.
//
// All names here are "test."-prefixed so the suite never collides with
// the serving layers' registrations in the shared process registry.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/error.h"

namespace muffin::obs {
namespace {

TEST(Registry, SameNameReturnsSameMetric) {
  Counter& a = registry().counter("test.same_counter");
  Counter& b = registry().counter("test.same_counter");
  EXPECT_EQ(&a, &b);
  Gauge& g1 = registry().gauge("test.same_gauge");
  Gauge& g2 = registry().gauge("test.same_gauge");
  EXPECT_EQ(&g1, &g2);
  Histogram& h1 = registry().histogram("test.same_hist");
  Histogram& h2 = registry().histogram("test.same_hist");
  EXPECT_EQ(&h1, &h2);
}

TEST(Registry, KindConflictThrows) {
  (void)registry().counter("test.kind_conflict");
  EXPECT_THROW((void)registry().gauge("test.kind_conflict"), Error);
  EXPECT_THROW((void)registry().histogram("test.kind_conflict"), Error);
}

TEST(Counter, IncrementsAndResets) {
  Counter& counter = registry().counter("test.counter_basic");
  const std::uint64_t before = counter.value();
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), before + 42);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Gauge, SetAddSub) {
  Gauge& gauge = registry().gauge("test.gauge_basic");
  gauge.set(10);
  EXPECT_EQ(gauge.value(), 10);
  gauge.add(5);
  gauge.sub(20);
  EXPECT_EQ(gauge.value(), -5);  // gauges are signed levels
}

TEST(Registry, ConcurrentRecordingIsLossless) {
  Counter& counter = registry().counter("test.mt_counter");
  Gauge& gauge = registry().gauge("test.mt_gauge");
  Histogram& hist = registry().histogram("test.mt_hist");
  counter.reset();
  gauge.reset();
  hist.reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
        gauge.add(1);
        hist.observe(static_cast<double>(i % 200));
        // Snapshots race with recording by design; they must be safe.
        if (i % 1000 == 0) (void)registry().snapshot();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(gauge.value(), kThreads * kPerThread);
  const HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count(), kThreads * kPerThread);
  // Exposition derives _count and +Inf from the same buckets.
  MetricsSnapshot metrics;
  metrics.histograms = {snap};
  metrics.histograms[0].name = "test.mt_hist";
  const std::string total = std::to_string(kThreads * kPerThread);
  const std::string text = metrics.to_prometheus();
  EXPECT_NE(text.find("muffin_test_mt_hist_bucket{le=\"+Inf\"} " + total),
            std::string::npos);
  EXPECT_NE(text.find("muffin_test_mt_hist_count " + total),
            std::string::npos);
}

TEST(Snapshot, FindsRegisteredMetricsSorted) {
  registry().counter("test.snap_b").inc(2);
  registry().counter("test.snap_a").inc(1);
  const MetricsSnapshot snap = registry().snapshot();
  const CounterSnapshot* a = snap.find_counter("test.snap_a");
  const CounterSnapshot* b = snap.find_counter("test.snap_b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->value, 1u);
  EXPECT_EQ(b->value, 2u);
  EXPECT_EQ(snap.find_counter("test.snap_missing"), nullptr);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }
}

TEST(Snapshot, PrometheusExpositionIsDeterministic) {
  registry().counter("test.prom_counter").inc(7);
  registry().histogram("test.prom_hist").observe(3.0);
  const MetricsSnapshot snap = registry().snapshot();
  const std::string text = snap.to_prometheus();
  // Names are prefixed and dot-mangled; histogram buckets cumulative
  // with a +Inf terminator.
  EXPECT_NE(text.find("muffin_test_prom_counter 7"), std::string::npos);
  EXPECT_NE(text.find("muffin_test_prom_hist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("muffin_test_prom_hist_count"), std::string::npos);
  // Two snapshots of the same state render byte-identically.
  EXPECT_EQ(text, registry().snapshot().to_prometheus());
}

TEST(Snapshot, JsonExpositionContainsAllKinds) {
  registry().counter("test.json_counter").inc(3);
  registry().gauge("test.json_gauge").set(-4);
  registry().histogram("test.json_hist").observe(1.0);
  const std::string json = registry().snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"test.json_counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_gauge\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\":{\"count\":"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[[1,"), std::string::npos);
}

TEST(Registry, ResetZeroesButKeepsRegistrations) {
  Counter& counter = registry().counter("test.reset_counter");
  counter.inc(5);
  registry().reset();
  EXPECT_EQ(counter.value(), 0u);
  // Same object after reset — references never dangle.
  EXPECT_EQ(&registry().counter("test.reset_counter"), &counter);
}

TEST(Obs, CompiledInMatchesBuild) {
#if defined(MUFFIN_OBS_DISABLED)
  EXPECT_FALSE(compiled_in());
#else
  EXPECT_TRUE(compiled_in());
#endif
}

}  // namespace
}  // namespace muffin::obs

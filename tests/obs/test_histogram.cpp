// Log-linear histogram suite (obs/metrics.h): the one latency/size
// distribution type of the serving stack.
//
// The contract under test:
//  1. Layout: 16 linear sub-buckets per power of two, upper edges
//     inclusive, every bucket at most 1/16 of its values wide.
//  2. Quantiles are nearest-rank at bucket resolution: the reported value
//     is the upper edge of the bucket holding the exact nearest-rank
//     sample, so it is never below it and within one bucket width above.
//  3. Merge is a bucket-wise sum: exact, commutative and associative at
//     any count. A ShardRouter's aggregate — live replicas, a removed
//     replica's frozen snapshot, and a shard fetched over the Stats RPC —
//     equals one histogram fed every value.
//  4. observe/record/snapshot/merge are safe concurrently (TSan surface).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../serve/router_test_access.h"
#include "common/error.h"
#include "common/hash.h"
#include "common/socket.h"
#include "obs/metrics.h"
#include "serve/router.h"
#include "serve/rpc/wire.h"

namespace muffin::obs {
namespace {

HistogramSnapshot collect(const std::vector<double>& values) {
  Histogram histogram;
  for (const double v : values) histogram.record(v);
  return histogram.snapshot();
}

/// Nearest-rank quantile of the raw values (the exact reference).
double nearest_rank(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const std::size_t rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * n)), 1, values.size());
  return values[rank - 1];
}

/// Deterministic values spread log-uniformly over 0.5 us .. 0.5 s, plus
/// zero and a few exact bucket edges.
std::vector<double> spread_values(std::size_t n, std::uint64_t seed) {
  std::vector<double> values = {0.0, 1.0, 2.0, 32.0, 100.0};
  for (std::size_t i = 0; i < n; ++i) {
    const double u = static_cast<double>(splitmix64_next(seed) >> 11) /
                     9007199254740992.0;  // [0, 1)
    values.push_back(0.5 * std::exp(u * std::log(1e6)));
  }
  return values;
}

const std::vector<double>& reported_quantiles() {
  static const std::vector<double> qs = {0.0,  0.1,  0.25,  0.5, 0.75,
                                         0.9,  0.95, 0.99,  0.999, 1.0};
  return qs;
}

/// Bucket-for-bucket and quantile-for-quantile equality; sums may differ
/// in the last bits because floating-point addition order differs.
void expect_same_histogram(const HistogramSnapshot& a,
                           const HistogramSnapshot& b) {
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.max(), b.max());
  for (const double q : reported_quantiles()) {
    EXPECT_EQ(a.quantile(q), b.quantile(q)) << "q=" << q;
  }
  EXPECT_NEAR(a.sum, b.sum, 1e-9 * std::max(1.0, std::abs(b.sum)));
}

TEST(Histogram, BucketEdgesAreLogLinear) {
  EXPECT_EQ(kHistogramBuckets, 801u);
  EXPECT_EQ(histogram_edge(0), std::ldexp(1.0, kHistogramMinExponent));
  EXPECT_EQ(histogram_edge(kHistogramBuckets - 1),
            std::ldexp(1.0, kHistogramMaxExponent));
  for (std::size_t b = 1; b < kHistogramBuckets; ++b) {
    const double lower = histogram_edge(b - 1);
    const double upper = histogram_edge(b);
    ASSERT_LT(lower, upper);
    // No bucket is wider than 1/16 of the smallest value it holds.
    EXPECT_LE(upper - lower, lower / 16.0) << "bucket " << b;
    // Upper edges are inclusive; the next double up opens the next bucket.
    EXPECT_EQ(histogram_bucket(upper), b);
    EXPECT_EQ(histogram_bucket(std::nextafter(lower, upper)), b);
  }
  // Integers up to 32 are edges themselves, so batch sizes bucket exactly.
  for (int rows = 1; rows <= 32; ++rows) {
    EXPECT_EQ(histogram_edge(histogram_bucket(rows)), rows);
  }
}

TEST(Histogram, EmptySnapshotIsZero) {
  const Histogram histogram;
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_EQ(snap.quantile(0.5), 0.0);
  EXPECT_EQ(snap.max(), 0.0);
  EXPECT_EQ(snap.mean(), 0.0);
}

TEST(Histogram, QuantileRejectsBadInput) {
  const HistogramSnapshot snap = collect({1.0, 2.0});
  EXPECT_THROW((void)snap.quantile(-0.01), Error);
  EXPECT_THROW((void)snap.quantile(1.01), Error);
  EXPECT_THROW((void)snap.quantile(std::nan("")), Error);
}

TEST(Histogram, SnapshotSummarizesSamples) {
  std::vector<double> values;
  for (int us = 1; us <= 100; ++us) values.push_back(us);
  const HistogramSnapshot snap = collect(values);
  EXPECT_EQ(snap.count(), 100u);
  EXPECT_NEAR(snap.mean(), 50.5, 1e-9);  // the sum is exact, not bucketed
  // 50 sits in (48, 50], 95 in (92, 96], 99 in (96, 100].
  EXPECT_EQ(snap.quantile(0.50), 50.0);
  EXPECT_EQ(snap.quantile(0.95), 96.0);
  EXPECT_EQ(snap.quantile(0.99), 100.0);
  EXPECT_EQ(snap.max(), 100.0);
}

TEST(Histogram, QuantilesOnKnownSkewedDistribution) {
  // 90% fast, 9% slower, 1% tail; every value is a bucket edge, so the
  // quantiles are the exact nearest-rank values.
  std::vector<double> values(900, 1.0);
  values.insert(values.end(), 90, 10.0);
  values.insert(values.end(), 10, 100.0);
  const HistogramSnapshot snap = collect(values);
  EXPECT_EQ(snap.count(), 1000u);
  EXPECT_EQ(snap.quantile(0.50), 1.0);
  EXPECT_EQ(snap.quantile(0.95), 10.0);
  EXPECT_EQ(snap.quantile(0.99), 10.0);  // the tail starts past rank 990
  EXPECT_EQ(snap.max(), 100.0);
  EXPECT_NEAR(snap.mean(), (900.0 + 900.0 + 1000.0) / 1000.0, 1e-9);
}

TEST(Histogram, QuantilesOnBimodalDistribution) {
  std::vector<double> values(50, 2.0);
  values.insert(values.end(), 50, 8.0);
  const HistogramSnapshot snap = collect(values);
  EXPECT_EQ(snap.quantile(0.50), 2.0);  // rank 50 is the last fast sample
  EXPECT_EQ(snap.quantile(0.95), 8.0);
  EXPECT_NEAR(snap.mean(), 5.0, 1e-9);
}

TEST(Histogram, QuantilesWithinOneBucketOfNearestRank) {
  const std::vector<double> values = spread_values(20000, 0x5EED);
  const HistogramSnapshot snap = collect(values);
  for (double q = 0.0; q <= 1.0; q += 0.005) {
    const double exact = nearest_rank(values, q);
    const double reported = snap.quantile(q);
    const std::size_t bucket = histogram_bucket(exact);
    EXPECT_EQ(reported, histogram_edge(bucket)) << "q=" << q;
    EXPECT_GE(reported, exact) << "q=" << q;
    if (bucket > 0) {
      EXPECT_LE(reported - exact,
                histogram_edge(bucket) - histogram_edge(bucket - 1))
          << "q=" << q;
    }
  }
  EXPECT_EQ(snap.max(), histogram_edge(histogram_bucket(
                            *std::max_element(values.begin(), values.end()))));
}

TEST(Histogram, BucketsByUpperBoundWithInfOverflow) {
  Histogram& histogram = registry().histogram("test.hist_buckets");
  histogram.reset();
  histogram.record(0.5);
  histogram.record(1.0);   // edges are inclusive upper bounds
  histogram.record(1.01);  // the next bucket, (1, 1.0625]
  histogram.record(1e15);  // past 2^40: the last bucket
  histogram.record(-3.0);  // non-positive values share the first bucket
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.counts[histogram_bucket(0.5)], 1u);
  EXPECT_EQ(snap.counts[histogram_bucket(1.0)], 1u);
  EXPECT_EQ(histogram_bucket(1.01), histogram_bucket(1.0) + 1);
  EXPECT_EQ(snap.counts[histogram_bucket(1.01)], 1u);
  EXPECT_EQ(snap.counts[kHistogramBuckets - 1], 1u);
  EXPECT_EQ(snap.counts[0], 1u);
  EXPECT_EQ(snap.count(), 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.01 + 1e15 - 3.0);
  // Prometheus: one cumulative line per non-empty bucket, then +Inf.
  MetricsSnapshot metrics;
  metrics.histograms = {snap};
  metrics.histograms[0].name = "test.hist_buckets";
  const std::string text = metrics.to_prometheus();
  EXPECT_NE(text.find("muffin_test_hist_buckets_bucket{le=\"1\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("muffin_test_hist_buckets_bucket{le=\"1.0625\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("muffin_test_hist_buckets_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("muffin_test_hist_buckets_count 5\n"),
            std::string::npos);
}

TEST(Histogram, ObserveFollowsTheBuildButRecordAlwaysCounts) {
  Histogram histogram;
  histogram.observe(3.0);
  histogram.record(3.0);
  EXPECT_EQ(histogram.snapshot().count(), compiled_in() ? 2u : 1u);
}

TEST(Histogram, ResetClearsEveryBucket) {
  Histogram histogram;
  for (const double v : spread_values(100, 7)) histogram.record(v);
  histogram.reset();
  const HistogramSnapshot snap = histogram.snapshot();
  EXPECT_EQ(snap.count(), 0u);
  EXPECT_EQ(snap.sum, 0.0);
}

TEST(Histogram, ConcurrentRecordingIsLossless) {
  Histogram histogram;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&histogram, t]() {
      for (int i = 0; i < 2500; ++i) histogram.record(1.0 + (i + t) % 300);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(histogram.snapshot().count(), 10000u);
}

TEST(HistogramMerge, CombinesExactAggregatesAndPercentiles) {
  std::vector<double> low;
  std::vector<double> high;
  for (int us = 1; us <= 100; ++us) low.push_back(us);
  for (int us = 101; us <= 200; ++us) high.push_back(us);
  HistogramSnapshot merged = collect(low);
  const HistogramSnapshot other = collect(high);
  merged.merge(other);
  EXPECT_EQ(merged.count(), 200u);
  EXPECT_NEAR(merged.mean(), 100.5, 1e-9);
  EXPECT_EQ(merged.quantile(0.50), 100.0);
  EXPECT_EQ(merged.quantile(0.95), 192.0);  // 190 sits in (184, 192]
  EXPECT_EQ(merged.max(), 200.0);
  EXPECT_EQ(other.count(), 100u);  // the merged-from side is unchanged
  std::vector<double> all = low;
  all.insert(all.end(), high.begin(), high.end());
  expect_same_histogram(merged, collect(all));
}

TEST(HistogramMerge, IsCommutative) {
  const HistogramSnapshot a = collect(spread_values(3000, 1));
  const HistogramSnapshot b = collect(spread_values(1000, 2));
  HistogramSnapshot ab = a;
  ab.merge(b);
  HistogramSnapshot ba = b;
  ba.merge(a);
  expect_same_histogram(ab, ba);
  EXPECT_EQ(ab.sum, ba.sum);  // two operands: addition commutes exactly
}

TEST(HistogramMerge, IsAssociative) {
  const HistogramSnapshot a = collect(spread_values(2000, 3));
  const HistogramSnapshot b = collect(spread_values(1500, 4));
  const HistogramSnapshot c = collect(spread_values(500, 5));
  HistogramSnapshot left = a;  // (a + b) + c
  left.merge(b).merge(c);
  HistogramSnapshot bc = b;  // a + (b + c)
  bc.merge(c);
  HistogramSnapshot right = a;
  right.merge(bc);
  expect_same_histogram(left, right);
  EXPECT_EQ(left.count(), a.count() + b.count() + c.count());
}

TEST(HistogramMerge, EmptySidesAreIdentity) {
  const HistogramSnapshot a = collect(spread_values(50, 6));
  HistogramSnapshot merged = a;
  merged.merge(HistogramSnapshot{});
  expect_same_histogram(merged, a);
  HistogramSnapshot fresh;
  fresh.merge(a);
  expect_same_histogram(fresh, a);
}

TEST(HistogramMerge, StaysExactAtAnyCount) {
  // 200,000 values split over two shards: the merge still equals one
  // collector, bucket for bucket.
  const std::vector<double> values = spread_values(200000, 8);
  Histogram one;
  Histogram shards[2];
  for (std::size_t i = 0; i < values.size(); ++i) {
    one.record(values[i]);
    shards[i % 2].record(values[i]);
  }
  HistogramSnapshot merged = shards[0].snapshot();
  merged.merge(shards[1].snapshot());
  expect_same_histogram(merged, one.snapshot());
}

TEST(HistogramMerge, ConcurrentObserveSnapshotMergeIsSafe) {
  // Shards keep recording while an aggregator thread repeatedly snapshots
  // and merges them — the router's aggregate_latency pattern.
  Histogram shard_a;
  Histogram shard_b;
  std::thread recorder_a([&]() {
    for (int i = 0; i < 20000; ++i) shard_a.record(3.0);
  });
  std::thread recorder_b([&]() {
    for (int i = 0; i < 20000; ++i) shard_b.observe(9.0);
  });
  for (int i = 0; i < 50; ++i) {
    HistogramSnapshot merged = shard_a.snapshot();
    merged.merge(shard_b.snapshot());
    EXPECT_LE(merged.count(), 40000u);
  }
  recorder_a.join();
  recorder_b.join();
  HistogramSnapshot merged = shard_a.snapshot();
  merged.merge(shard_b.snapshot());
  EXPECT_EQ(merged.count(), compiled_in() ? 40000u : 20000u);
}

// --- the fleet: a router aggregate equals one collector --------------------

/// A replica that serves no traffic and reports a latency histogram the
/// test fills with chosen values.
class FixedLatencyReplica final : public serve::ReplicaBackend {
 public:
  void feed(double us) { latency_.record(us); }

  [[nodiscard]] std::future<serve::Prediction> submit(
      const data::Record&) override {
    throw Error("fixed-latency replica serves no traffic");
  }
  void shutdown() override {}
  [[nodiscard]] bool probe() override { return true; }
  [[nodiscard]] bool remote() const override { return false; }
  [[nodiscard]] std::string describe() const override { return "fixed"; }
  [[nodiscard]] serve::EngineCounters counters() const override {
    return {};
  }
  [[nodiscard]] const Histogram& latency() const override { return latency_; }
  [[nodiscard]] std::size_t cache_entries() const override { return 0; }
  [[nodiscard]] bool cache_contains(std::uint64_t) const override {
    return false;
  }
  [[nodiscard]] std::optional<serve::StatsReport> authoritative_stats()
      override {
    serve::StatsReport report;
    report.elapsed_seconds = 1.0;
    report.latency = latency_.snapshot();
    return report;
  }
  [[nodiscard]] std::uint64_t reload(const std::string&) override {
    throw Error("fixed-latency replica has no model");
  }

 private:
  Histogram latency_;
};

/// Answers exactly one Stats RPC with `report`, on its own thread.
class OneShotStatsServer {
 public:
  explicit OneShotStatsServer(serve::StatsReport report)
      : listener_(common::Endpoint::parse("127.0.0.1:0")),
        thread_([this, report = std::move(report)]() {
          try {
            answer(report);
          } catch (const std::exception& error) {
            error_ = error.what();
          }
        }) {}
  ~OneShotStatsServer() { (void)finish(); }
  OneShotStatsServer(const OneShotStatsServer&) = delete;
  OneShotStatsServer& operator=(const OneShotStatsServer&) = delete;

  [[nodiscard]] std::string address() const {
    return listener_.local().to_string();
  }
  /// Stop waiting for the request; returns what went wrong, if anything.
  [[nodiscard]] std::string finish() {
    if (thread_.joinable()) {
      listener_.interrupt();
      thread_.join();
    }
    return error_;
  }

 private:
  void answer(const serve::StatsReport& report) {
    common::Socket socket = listener_.accept(/*timeout_ms=*/20000);
    if (!socket.valid()) {
      error_ = "no stats request arrived";
      return;
    }
    const std::optional<serve::rpc::Frame> request = serve::rpc::read_frame(
        socket, serve::rpc::kDefaultMaxFrameBytes, /*timeout_ms=*/20000);
    if (!request ||
        request->header.type != serve::rpc::MsgType::StatsRequest) {
      error_ = "expected one StatsRequest frame";
      return;
    }
    serve::rpc::write_frame(socket, serve::rpc::encode_stats_response(
                                        request->header.seq, report));
  }

  common::ListenSocket listener_;
  std::string error_;  ///< written by the thread, read after joining it
  std::thread thread_;
};

TEST(HistogramFleet, RouterAggregateEqualsOneCollector) {
  const std::vector<double> values = spread_values(20000, 0xF1EE7);
  Histogram single;  // the reference: one collector fed every value
  for (const double v : values) single.record(v);

  // Shard 0 is remote: a Stats RPC server answering with the histogram of
  // every fourth value. Shards 1-3 are in-process and hold the rest.
  serve::StatsReport remote_report;
  remote_report.elapsed_seconds = 2.5;
  {
    Histogram remote_latency;
    for (std::size_t i = 0; i < values.size(); i += 4) {
      remote_latency.record(values[i]);
    }
    remote_report.latency = remote_latency.snapshot();
  }
  OneShotStatsServer server(remote_report);

  serve::RouterConfig config;
  config.shards = 0;
  config.remote_endpoints = {server.address()};
  config.health.probe_interval = std::chrono::milliseconds(0);
  serve::ShardRouter router(nullptr, config);
  std::vector<std::shared_ptr<FixedLatencyReplica>> locals;
  for (int s = 1; s <= 3; ++s) {
    locals.push_back(std::make_shared<FixedLatencyReplica>());
    ASSERT_EQ(serve::RouterTestAccess::add_backend(router, locals.back()),
              static_cast<std::size_t>(s));
  }
  Histogram client_observed;  // what the router sees without the RPC
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i % 4 == 0) continue;
    locals[i % 4 - 1]->feed(values[i]);
    client_observed.record(values[i]);
  }
  // Retire shard 2: from here on its values come from the frozen snapshot.
  router.remove_replica(2);

  // Client-observed aggregate: the remote shard served nothing through
  // this router, the removed shard contributes its frozen snapshot.
  expect_same_histogram(router.aggregate_latency(),
                        client_observed.snapshot());
  HistogramSnapshot from_infos;
  for (const serve::ShardInfo& info : router.shard_infos()) {
    from_infos.merge(info.latency);
  }
  expect_same_histogram(from_infos, client_observed.snapshot());

  // Authoritative aggregate: the remote shard's server-side histogram
  // crosses the Stats RPC and joins the in-process and frozen ones.
  const serve::StatsReport fleet = router.authoritative_stats();
  EXPECT_EQ(server.finish(), "");
  expect_same_histogram(fleet.latency, single.snapshot());
  EXPECT_EQ(fleet.elapsed_seconds, 2.5);  // the largest replica age
  router.shutdown();
}

}  // namespace
}  // namespace muffin::obs

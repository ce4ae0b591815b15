#include "serve/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.h"
#include "common/hash.h"
#include "obs/metrics.h"
#include "serve_test_util.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace muffin::serve {
namespace {

const data::Dataset& engine_dataset() {
  static const data::Dataset ds = data::synthetic_isic2019(1500, 77);
  return ds;
}

const models::ModelPool& engine_pool() {
  static const models::ModelPool pool =
      models::calibrated_isic_pool(engine_dataset());
  return pool;
}

// One shared immutable FusedModel per gate variant (training is
// deterministic; retraining per test would dominate TSan runtime).
std::shared_ptr<core::FusedModel> make_fused(bool head_only_on_disagreement) {
  static const std::shared_ptr<core::FusedModel> gated =
      testutil::build_fused(engine_pool(), engine_dataset(), /*epochs=*/6,
                            /*head_only_on_disagreement=*/true);
  static const std::shared_ptr<core::FusedModel> ungated =
      testutil::build_fused(engine_pool(), engine_dataset(), /*epochs=*/6,
                            /*head_only_on_disagreement=*/false);
  return head_only_on_disagreement ? gated : ungated;
}

TEST(InferenceEngine, RejectsBadConstruction) {
  EXPECT_THROW(InferenceEngine(nullptr), Error);
  EngineConfig config;
  config.workers = 0;
  EXPECT_THROW(InferenceEngine(make_fused(true), config), Error);
}

TEST(InferenceEngine, BatchedOutputBitIdenticalToSequentialScores) {
  const auto fused = make_fused(true);
  EngineConfig config;
  config.workers = 4;
  config.max_batch = 32;
  InferenceEngine engine(fused, config);

  std::span<const data::Record> records = engine_dataset().records();
  const std::vector<Prediction> batched = engine.predict_batch(records);

  ASSERT_EQ(batched.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const tensor::Vector expected =
        testutil::canonical_scores(fused->scores(records[i]));
    EXPECT_EQ(batched[i].scores, expected) << "record " << i;
    EXPECT_EQ(batched[i].predicted, tensor::argmax(expected)) << "record "
                                                              << i;
  }
}

TEST(InferenceEngine, SubmitBatchMatchesPerRecordSubmit) {
  // submit_batch is the RPC server's frame path: one atomic group
  // enqueue, one future per record, same arithmetic as submit().
  const auto fused = make_fused(true);
  EngineConfig config;
  config.workers = 2;
  config.max_batch = 16;
  InferenceEngine engine(fused, config);

  std::span<const data::Record> records = engine_dataset().records();
  std::vector<std::future<Prediction>> futures =
      engine.submit_batch(records.subspan(0, 100));
  ASSERT_EQ(futures.size(), 100u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().scores,
              testutil::canonical_scores(fused->scores(records[i])))
        << "record " << i;
  }
  EXPECT_EQ(engine.counters().requests, 100u);

  // All-or-nothing on a stopped engine: no partial prefix, no count.
  engine.shutdown();
  EXPECT_THROW((void)engine.submit_batch(records.subspan(0, 8)), Error);
  EXPECT_EQ(engine.counters().requests, 100u);
}

TEST(InferenceEngine, ParityHoldsWithHeadEverywhere) {
  const auto fused = make_fused(false);
  InferenceEngine engine(fused);
  std::span<const data::Record> records = engine_dataset().records();
  const std::vector<Prediction> batched =
      engine.predict_batch(records.subspan(0, 400));
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].scores,
              testutil::canonical_scores(fused->scores(records[i])))
        << "record " << i;
    EXPECT_FALSE(batched[i].consensus);
  }
}

TEST(InferenceEngine, ConsensusFlagMatchesBodyAgreement) {
  const auto fused = make_fused(true);
  InferenceEngine engine(fused);
  std::size_t consensus_seen = 0;
  for (std::size_t i = 0; i < 300; ++i) {
    const data::Record& record = engine_dataset().record(i);
    const Prediction prediction = engine.predict(record);
    const bool agree = fused->body()[0]->predict(record) ==
                       fused->body()[1]->predict(record);
    EXPECT_EQ(prediction.consensus, agree) << "record " << i;
    if (agree) {
      EXPECT_EQ(prediction.predicted, fused->body()[0]->predict(record));
      ++consensus_seen;
    }
  }
  EXPECT_GT(consensus_seen, 0u);
  const EngineCounters counters = engine.counters();
  EXPECT_EQ(counters.consensus_short_circuits, consensus_seen);
  EXPECT_EQ(counters.requests, 300u);
}

TEST(InferenceEngine, RepeatedRequestsAreServedFromCache) {
  const auto fused = make_fused(true);
  InferenceEngine engine(fused);
  std::span<const data::Record> records = engine_dataset().records();
  const auto first = engine.predict_batch(records.subspan(0, 200));
  const auto second = engine.predict_batch(records.subspan(0, 200));
  ASSERT_EQ(first.size(), second.size());
  std::size_t cached = 0;
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second[i].scores, first[i].scores);
    EXPECT_EQ(second[i].predicted, first[i].predicted);
    if (second[i].cached) ++cached;
  }
  // Every repeat must hit the memo (capacity far exceeds 200 records).
  EXPECT_EQ(cached, second.size());
  EXPECT_GE(engine.counters().cache_hits, cached);
}

TEST(InferenceEngine, CacheDisabledStillBitIdentical) {
  const auto fused = make_fused(true);
  EngineConfig config;
  config.result_cache_capacity = 0;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();
  const auto first = engine.predict_batch(records.subspan(0, 100));
  const auto second = engine.predict_batch(records.subspan(0, 100));
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].scores, second[i].scores);
    EXPECT_FALSE(second[i].cached);
  }
  EXPECT_EQ(engine.counters().cache_hits, 0u);
}

TEST(InferenceEngine, DisabledCacheNeverMemoizesEvenUnderConcurrency) {
  // Regression for the result_cache_capacity = 0 path: a disabled cache
  // must never memoize (no entry, no cached flag, no hit counter) and
  // must never crash, including when hot uids hammer it from many
  // threads at once.
  const auto fused = make_fused(true);
  EngineConfig config;
  config.result_cache_capacity = 0;
  config.workers = 2;
  config.max_batch = 8;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();

  std::vector<std::thread> clients;
  std::atomic<std::size_t> cached_answers{0};
  for (std::size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&]() {
      for (std::size_t i = 0; i < 50; ++i) {
        // Everyone hits the same 8 hot records — maximum memo pressure.
        if (engine.predict(records[i % 8]).cached) {
          cached_answers.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(cached_answers.load(), 0u);
  EXPECT_EQ(engine.counters().cache_hits, 0u);
  EXPECT_EQ(engine.cache_entries(), 0u);
  EXPECT_FALSE(engine.cache_contains(records[0].uid));
}

TEST(InferenceEngine, CacheIntrospectionTracksMemoContents) {
  const auto fused = make_fused(true);
  InferenceEngine engine(fused);
  std::span<const data::Record> records = engine_dataset().records();
  EXPECT_EQ(engine.cache_entries(), 0u);
  (void)engine.predict_batch(records.subspan(0, 50));
  EXPECT_EQ(engine.cache_entries(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(engine.cache_contains(records[i].uid)) << "record " << i;
  }
  EXPECT_FALSE(engine.cache_contains(records[50].uid));
  // cache_contains is a pure observer: it must not refresh LRU recency.
  EngineConfig tiny;
  tiny.result_cache_capacity = 4;
  tiny.max_batch = 1;
  InferenceEngine small(fused, tiny);
  for (std::size_t i = 0; i < 4; ++i) (void)small.predict(records[i]);
  ASSERT_TRUE(small.cache_contains(records[0].uid));
  (void)small.predict(records[4]);  // evicts the oldest entry: record 0
  EXPECT_FALSE(small.cache_contains(records[0].uid));
  EXPECT_EQ(small.cache_entries(), 4u);
}

TEST(InferenceEngine, ClockEvictionGivesHitEntriesASecondChance) {
  const auto fused = make_fused(true);
  EngineConfig tiny;
  tiny.result_cache_capacity = 4;
  tiny.max_batch = 1;
  InferenceEngine engine(fused, tiny);
  std::span<const data::Record> records = engine_dataset().records();
  for (std::size_t i = 0; i < 4; ++i) (void)engine.predict(records[i]);
  ASSERT_TRUE(engine.predict(records[0]).cached);  // sets record 0's bit

  // The hand passes record 0 (clearing its bit) and evicts record 1, the
  // first entry nobody asked for again.
  (void)engine.predict(records[4]);
  EXPECT_TRUE(engine.cache_contains(records[0].uid));
  EXPECT_FALSE(engine.cache_contains(records[1].uid));
  for (std::size_t i = 2; i <= 4; ++i) {
    EXPECT_TRUE(engine.cache_contains(records[i].uid)) << "record " << i;
  }

  // A cache_contains probe is not a hit: record 2 was just probed, yet
  // it is the next victim.
  (void)engine.predict(records[5]);
  EXPECT_FALSE(engine.cache_contains(records[2].uid));
  for (const std::size_t i : {0u, 3u, 4u, 5u}) {
    EXPECT_TRUE(engine.cache_contains(records[i].uid)) << "record " << i;
  }
  EXPECT_EQ(engine.cache_entries(), 4u);
  EXPECT_EQ(engine.counters().cache_hits, 1u);
}

TEST(InferenceEngine, MemoIndexFindsEveryEntryAfterHeavyChurn) {
  // Thousands of CLOCK evictions, each a backward-shift delete from the
  // half-full uid index: afterwards exactly `capacity` of the records
  // must be findable, and each found one must answer from the memo.
  const auto fused = make_fused(true);
  constexpr std::size_t kCapacity = 64;
  constexpr std::size_t kPopulation = 300;
  EngineConfig config;
  config.workers = 1;
  config.max_batch = 8;
  config.result_cache_capacity = kCapacity;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();
  std::vector<data::Record> traffic;
  std::uint64_t state = 42;
  for (std::size_t i = 0; i < 4000; ++i) {
    // Skewed draws, so hits (reference bits) and misses both occur.
    const std::uint64_t draw = splitmix64_next(state);
    const std::size_t r = (draw % 4 == 0) ? draw % 16 : draw % kPopulation;
    traffic.push_back(records[r]);
  }
  const std::vector<Prediction> replies = engine.predict_batch(traffic);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    ASSERT_EQ(replies[i].scores,
              testutil::canonical_scores(fused->scores(traffic[i])))
        << "request " << i;
  }
  EXPECT_GT(engine.counters().cache_hits, 0u);
  std::vector<data::Record> memoized;
  for (std::size_t r = 0; r < kPopulation; ++r) {
    if (engine.cache_contains(records[r].uid)) memoized.push_back(records[r]);
  }
  EXPECT_EQ(memoized.size(), kCapacity);
  EXPECT_EQ(engine.cache_entries(), kCapacity);
  for (const Prediction& prediction : engine.predict_batch(memoized)) {
    EXPECT_TRUE(prediction.cached);
  }
}

std::int64_t memo_bytes_gauge() {
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  const obs::GaugeSnapshot* gauge = snap.find_gauge("serve.result_memo_bytes");
  return gauge != nullptr ? gauge->value : 0;
}

TEST(InferenceEngine, MemoBytesTrackFillEvictionReplaceAndDestruction) {
  const auto fused = make_fused(true);
  std::span<const data::Record> records = engine_dataset().records();
  const std::size_t classes = fused->num_classes();
  struct Case {
    tensor::QuantMode mode;
    std::size_t row_bytes;  // score payload of one memoized reply
  };
  const Case cases[] = {
      {tensor::QuantMode::Off, classes * sizeof(double)},
      {tensor::QuantMode::Bf16, classes * sizeof(std::uint16_t)},
      {tensor::QuantMode::Int8, classes + sizeof(double)},  // + scale
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(tensor::quant_mode_name(c.mode));
    const tensor::ScopedQuantMode quant(c.mode);
    const std::int64_t before = memo_bytes_gauge();
    const auto gauge_delta = [&]() {
      return static_cast<std::size_t>(memo_bytes_gauge() - before);
    };
    {
      EngineConfig config;
      config.workers = 1;  // one scoring thread: a deterministic fill order
      config.max_batch = 4;
      config.result_cache_capacity = 16;
      InferenceEngine engine(fused, config);
      ASSERT_EQ(engine.memo_quant_mode(), c.mode);
      EXPECT_EQ(engine.memo_bytes(), 0u);

      // Fill: every memoized reply adds one row of score payload.
      (void)engine.predict_batch(records.subspan(0, 10));
      EXPECT_EQ(engine.memo_bytes(), 10 * c.row_bytes);
      EXPECT_EQ(gauge_delta(), 10 * c.row_bytes);

      // Eviction at capacity: the footprint stops at capacity rows, and
      // with no hits CLOCK evicts oldest-first, keeping records 24-39.
      (void)engine.predict_batch(records.subspan(10, 30));
      EXPECT_EQ(engine.cache_entries(), 16u);
      EXPECT_EQ(engine.memo_bytes(), 16 * c.row_bytes);
      EXPECT_EQ(gauge_delta(), 16 * c.row_bytes);
      EXPECT_FALSE(engine.cache_contains(records[23].uid));

      // Version replace-in-place: under a new version the memoized uids
      // miss, and their rescore replaces each entry in its slot.
      (void)engine.swap_model(fused);
      const std::vector<Prediction> rescored =
          engine.predict_batch(records.subspan(24, 16));
      for (const Prediction& prediction : rescored) {
        EXPECT_FALSE(prediction.cached);
        EXPECT_EQ(prediction.model_version, 2u);
      }
      EXPECT_EQ(engine.cache_entries(), 16u);
      EXPECT_EQ(engine.memo_bytes(), 16 * c.row_bytes);
      EXPECT_EQ(gauge_delta(), 16 * c.row_bytes);
      const std::vector<Prediction> hits =
          engine.predict_batch(records.subspan(24, 16));
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_TRUE(hits[i].cached) << "record " << 24 + i;
        EXPECT_EQ(hits[i].scores, rescored[i].scores) << "record " << 24 + i;
        EXPECT_EQ(hits[i].predicted, rescored[i].predicted);
      }
    }
    // Destruction hands every byte back to the process gauge.
    EXPECT_EQ(memo_bytes_gauge(), before);
  }
}

TEST(InferenceEngine, TinyCacheEvictsButStaysCorrect) {
  const auto fused = make_fused(true);
  EngineConfig config;
  config.result_cache_capacity = 8;
  config.max_batch = 4;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();
  const auto batched = engine.predict_batch(records.subspan(0, 64));
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].scores,
              testutil::canonical_scores(fused->scores(records[i])));
  }
}

TEST(InferenceEngine, ConcurrentSubmittersAllGetCorrectAnswers) {
  const auto fused = make_fused(true);
  EngineConfig config;
  config.workers = 2;
  config.max_batch = 16;
  InferenceEngine engine(fused, config);
  std::span<const data::Record> records = engine_dataset().records();

  constexpr std::size_t kPerThread = 100;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::size_t>> answers(4);
  for (std::size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t]() {
      answers[t].reserve(kPerThread);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t r = (t * 37 + i * 11) % records.size();
        answers[t].push_back(engine.predict(records[r]).predicted);
      }
    });
  }
  for (auto& client : clients) client.join();
  for (std::size_t t = 0; t < 4; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      const std::size_t r = (t * 37 + i * 11) % records.size();
      // The engine's predicted class is the argmax of the canonical
      // (quant-rounded) scores — a near-tie can legitimately flip vs the
      // float argmax, so compare in canonical space.
      EXPECT_EQ(answers[t][i],
                tensor::argmax(
                    testutil::canonical_scores(fused->scores(records[r]))));
    }
  }
}

TEST(InferenceEngine, ShutdownDrainsAndRejectsNewWork) {
  const auto fused = make_fused(true);
  InferenceEngine engine(fused);
  auto pending = engine.submit(engine_dataset().record(0));
  engine.shutdown();
  EXPECT_EQ(pending.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  (void)pending.get();  // in-flight request completed, not dropped
  EXPECT_THROW((void)engine.submit(engine_dataset().record(1)), Error);
  engine.shutdown();  // idempotent
}

TEST(InferenceEngine, LatencyStatsCoverEveryRequest) {
  const auto fused = make_fused(true);
  InferenceEngine engine(fused);
  std::span<const data::Record> records = engine_dataset().records();
  (void)engine.predict_batch(records.subspan(0, 128));
  const LatencyStats::Snapshot snap = engine.latency().snapshot();
  EXPECT_EQ(snap.count, 128u);
  EXPECT_GT(snap.p50_us, 0.0);
  EXPECT_LE(snap.p50_us, snap.p95_us);
  EXPECT_LE(snap.p95_us, snap.p99_us);
  EXPECT_LE(snap.p99_us, snap.max_us);
}

}  // namespace
}  // namespace muffin::serve

// Wire-format suite for the cross-process shard tier (serve/rpc/wire.h).
//
// The contract under test:
//  1. Round trips are bit-exact for record batches and prediction
//     batches across batch sizes {1, 7, max_batch} — doubles travel as
//     IEEE-754 bit patterns, so remote scoring can be bit-identical.
//  2. Malformed frames fail CLEANLY: truncated headers/payloads, bad
//     magic, wrong version, oversized or lying length fields all throw
//     muffin::Error before any over-read or over-allocation.
//  3. Decoding never trusts the peer: every truncation point of a valid
//     frame and a fuzz battery of random payloads must throw or decode,
//     never crash or over-read. Histogram bucket indices out of range or
//     out of order, and bucket counts that overflow, are refused.
//  4. A StatsResponse stays small however long the engine has served:
//     its latency travels as sparse bucket counts.
#include "serve/rpc/wire.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/hash.h"
#include "data/serialize.h"
#include "serve_test_util.h"

namespace muffin::serve::rpc {
namespace {

data::Record make_record(std::uint64_t uid, std::size_t width) {
  data::Record record;
  record.uid = uid;
  record.label = uid % 9;
  record.groups = {uid % 3, uid % 5, uid % 7};
  record.difficulty = -1.25 + 0.125 * static_cast<double>(uid % 32);
  record.features.reserve(width);
  std::uint64_t state = uid * 977 + 13;
  for (std::size_t f = 0; f < width; ++f) {
    // Arbitrary bit patterns, including denormal-ish and negative values.
    record.features.push_back(
        static_cast<double>(static_cast<std::int64_t>(
            splitmix64_next(state))) /
        1e12);
  }
  return record;
}

std::vector<data::Record> make_batch(std::size_t n) {
  std::vector<data::Record> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    records.push_back(make_record(1000 + i, 16 + i % 5));
  }
  return records;
}

Prediction make_prediction(std::size_t seed, std::size_t num_classes) {
  Prediction prediction;
  prediction.scores.resize(num_classes);
  double sum = 0.0;
  std::uint64_t state = seed * 31 + 7;
  for (std::size_t c = 0; c < num_classes; ++c) {
    prediction.scores[c] =
        static_cast<double>(splitmix64_next(state) >> 40) + 1.0;
    sum += prediction.scores[c];
  }
  for (double& score : prediction.scores) score /= sum;
  prediction.predicted = seed % num_classes;
  prediction.consensus = seed % 2 == 0;
  prediction.cached = seed % 3 == 0;
  // Rows of one response can straddle an engine hot-swap across
  // micro-batches, so the version is per-row on the wire.
  prediction.model_version = 100 + seed;
  return prediction;
}

bool record_equal(const data::Record& a, const data::Record& b) {
  return a.uid == b.uid && a.label == b.label && a.groups == b.groups &&
         // Bit-exact comparison, deliberately not an epsilon.
         std::bit_cast<std::uint64_t>(a.difficulty) ==
             std::bit_cast<std::uint64_t>(b.difficulty) &&
         a.features == b.features;
}

TEST(Wire, HeaderRoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_header(bytes, MsgType::ScoreRequest, /*seq=*/0x1234'5678'9abc'def0ULL,
                /*payload_len=*/4096);
  ASSERT_EQ(bytes.size(), kHeaderBytes);
  const FrameHeader header = decode_header(bytes);
  EXPECT_EQ(header.type, MsgType::ScoreRequest);
  EXPECT_EQ(header.seq, 0x1234'5678'9abc'def0ULL);
  EXPECT_EQ(header.payload_len, 4096u);
}

TEST(Wire, HeaderIsExplicitLittleEndian) {
  // The byte layout is part of the protocol: a frame written by any
  // build must parse in any other. Pin the first bytes literally.
  std::vector<std::uint8_t> bytes;
  encode_header(bytes, MsgType::HealthProbe, /*seq=*/2, /*payload_len=*/1);
  // magic "MUFN" = 0x4E46554D little-endian -> bytes 4D 55 46 4E.
  EXPECT_EQ(bytes[0], 0x4D);
  EXPECT_EQ(bytes[1], 0x55);
  EXPECT_EQ(bytes[2], 0x46);
  EXPECT_EQ(bytes[3], 0x4E);
  EXPECT_EQ(bytes[4], kVersion);  // u16 version, low byte first
  EXPECT_EQ(bytes[5], 0x00);
  EXPECT_EQ(bytes[6], static_cast<std::uint8_t>(MsgType::HealthProbe));
  EXPECT_EQ(bytes[8], 2);   // seq low byte
  EXPECT_EQ(bytes[16], 1);  // payload_len low byte
}

TEST(Wire, HeaderRejectsBadMagicVersionTypeAndSize) {
  std::vector<std::uint8_t> good;
  encode_header(good, MsgType::ScoreRequest, 1, 10);

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW((void)decode_header(bad_magic), Error);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] = 0xEE;
  EXPECT_THROW((void)decode_header(bad_version), Error);

  std::vector<std::uint8_t> bad_type = good;
  bad_type[6] = 99;
  EXPECT_THROW((void)decode_header(bad_type), Error);

  // A length field larger than the ceiling must be rejected up front —
  // that is what stops a corrupt frame from driving a huge allocation.
  std::vector<std::uint8_t> oversized;
  encode_header(oversized, MsgType::ScoreRequest, 1,
                kDefaultMaxFrameBytes + 1);
  EXPECT_THROW((void)decode_header(oversized), Error);
  EXPECT_NO_THROW((void)decode_header(oversized, kDefaultMaxFrameBytes + 1));

  // Truncated header (wrong size) is rejected outright.
  std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
  EXPECT_THROW((void)decode_header(truncated), Error);
}

TEST(Wire, RecordRoundTripIsBitExact) {
  const data::Record original = make_record(42, 20);
  std::vector<std::uint8_t> bytes;
  data::encode_record(original, bytes);
  common::ByteReader reader(bytes);
  const data::Record decoded = data::decode_record(reader);
  EXPECT_TRUE(reader.done());
  EXPECT_TRUE(record_equal(original, decoded));
}

TEST(Wire, ScoreRequestRoundTripAcrossBatchSizes) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{32}}) {
    const std::vector<data::Record> batch = make_batch(n);
    const std::vector<std::uint8_t> frame = encode_score_request(77, batch);
    const FrameHeader header =
        decode_header({frame.data(), kHeaderBytes});
    EXPECT_EQ(header.type, MsgType::ScoreRequest);
    EXPECT_EQ(header.seq, 77u);
    EXPECT_EQ(header.payload_len, frame.size() - kHeaderBytes);
    const std::vector<data::Record> decoded = decode_score_request(
        {frame.data() + kHeaderBytes, frame.size() - kHeaderBytes});
    ASSERT_EQ(decoded.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(record_equal(batch[i], decoded[i])) << "record " << i;
    }
  }
}

TEST(Wire, ScoreResponseRoundTripAcrossBatchSizes) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{7},
                              std::size_t{32}}) {
    std::vector<Prediction> predictions;
    predictions.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      predictions.push_back(make_prediction(i, 8));
    }
    const std::vector<std::uint8_t> frame =
        encode_score_response(31, predictions);
    const std::vector<Prediction> decoded = decode_score_response(
        {frame.data() + kHeaderBytes, frame.size() - kHeaderBytes});
    ASSERT_EQ(decoded.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(decoded[i].scores, predictions[i].scores) << "row " << i;
      EXPECT_EQ(decoded[i].predicted, predictions[i].predicted);
      EXPECT_EQ(decoded[i].consensus, predictions[i].consensus);
      EXPECT_EQ(decoded[i].cached, predictions[i].cached);
      EXPECT_EQ(decoded[i].model_version, predictions[i].model_version);
    }
  }
}

TEST(Wire, ReloadRoundTrip) {
  const std::string path = "/srv/models/head-v7.mufa";
  const std::vector<std::uint8_t> frame = encode_reload(44, path);
  const FrameHeader header = decode_header({frame.data(), kHeaderBytes});
  EXPECT_EQ(header.type, MsgType::Reload);
  EXPECT_EQ(header.seq, 44u);
  EXPECT_EQ(decode_reload({frame.data() + kHeaderBytes,
                           frame.size() - kHeaderBytes}),
            path);
}

TEST(Wire, ReloadRejectsHostilePayloads) {
  // An empty path is refused at encode time — there is nothing to load.
  EXPECT_THROW((void)encode_reload(1, ""), Error);

  const std::vector<std::uint8_t> frame = encode_reload(1, "head.mufa");
  const std::span<const std::uint8_t> payload{
      frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_reload(payload.subspan(0, cut)), Error)
        << "cut at " << cut;
  }
  // Trailing garbage after the path is rejected.
  std::vector<std::uint8_t> trailing(payload.begin(), payload.end());
  trailing.push_back(0x00);
  EXPECT_THROW((void)decode_reload(trailing), Error);
  // A forged zero-length path is rejected by the decoder too.
  std::vector<std::uint8_t> empty_path;
  common::put_u32(empty_path, 0);
  EXPECT_THROW((void)decode_reload(empty_path), Error);
  // A length field lying past the payload must not over-read.
  std::vector<std::uint8_t> lying;
  common::put_u32(lying, 0xFFFF'FFFFU);
  lying.push_back('x');
  EXPECT_THROW((void)decode_reload(lying), Error);
}

TEST(Wire, ReloadAckRoundTrip) {
  const std::vector<std::uint8_t> frame =
      encode_reload_ack(45, /*model_version=*/0x0102'0304'0506'0708ULL);
  const FrameHeader header = decode_header({frame.data(), kHeaderBytes});
  EXPECT_EQ(header.type, MsgType::ReloadAck);
  EXPECT_EQ(header.seq, 45u);
  const std::span<const std::uint8_t> payload{
      frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  EXPECT_EQ(decode_reload_ack(payload), 0x0102'0304'0506'0708ULL);
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_reload_ack(payload.subspan(0, cut)), Error)
        << "cut at " << cut;
  }
  std::vector<std::uint8_t> trailing(payload.begin(), payload.end());
  trailing.push_back(0xAB);
  EXPECT_THROW((void)decode_reload_ack(trailing), Error);
}

TEST(Wire, EmptyBatchesRoundTrip) {
  const std::vector<std::uint8_t> request =
      encode_score_request(5, std::span<const data::Record>{});
  EXPECT_TRUE(decode_score_request(
                  {request.data() + kHeaderBytes,
                   request.size() - kHeaderBytes})
                  .empty());
  const std::vector<std::uint8_t> response = encode_score_response(5, {});
  EXPECT_TRUE(decode_score_response(
                  {response.data() + kHeaderBytes,
                   response.size() - kHeaderBytes})
                  .empty());
}

TEST(Wire, ErrorRoundTrip) {
  const std::vector<std::uint8_t> frame = encode_error(9, "engine stopped");
  EXPECT_EQ(decode_error({frame.data() + kHeaderBytes,
                          frame.size() - kHeaderBytes}),
            "engine stopped");
}

TEST(Wire, ControlFramesHaveEmptyPayload) {
  const std::vector<std::uint8_t> probe =
      encode_control(MsgType::HealthProbe, 3);
  EXPECT_EQ(probe.size(), kHeaderBytes);
  const FrameHeader header = decode_header({probe.data(), kHeaderBytes});
  EXPECT_EQ(header.type, MsgType::HealthProbe);
  EXPECT_EQ(header.payload_len, 0u);
  EXPECT_THROW((void)encode_control(MsgType::ScoreRequest, 3), Error);
}

TEST(Wire, TruncatedRequestPayloadThrowsAtEveryCut) {
  const std::vector<data::Record> batch = make_batch(7);
  const std::vector<std::uint8_t> frame = encode_score_request(1, batch);
  const std::span<const std::uint8_t> payload{
      frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  // Every strict prefix must throw — no cut point may decode (the count
  // field makes partial batches detectable) and none may over-read.
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_score_request(payload.subspan(0, cut)), Error)
        << "cut at " << cut;
  }
  EXPECT_NO_THROW((void)decode_score_request(payload));
}

TEST(Wire, TruncatedResponsePayloadThrowsAtEveryCut) {
  std::vector<Prediction> predictions = {make_prediction(1, 8),
                                         make_prediction(2, 8),
                                         make_prediction(3, 8)};
  const std::vector<std::uint8_t> frame =
      encode_score_response(1, predictions);
  const std::span<const std::uint8_t> payload{
      frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_score_response(payload.subspan(0, cut)), Error)
        << "cut at " << cut;
  }
}

TEST(Wire, TrailingGarbageIsRejected) {
  const std::vector<data::Record> batch = make_batch(2);
  std::vector<std::uint8_t> frame = encode_score_request(1, batch);
  frame.push_back(0xAB);
  EXPECT_THROW((void)decode_score_request(
                   {frame.data() + kHeaderBytes,
                    frame.size() - kHeaderBytes}),
               Error);
}

TEST(Wire, LyingCountFieldsFailBeforeAllocation) {
  // A count field claiming 2^32-1 records/features in a tiny payload
  // must be rejected by the remaining-bytes check, not by an OOM.
  std::vector<std::uint8_t> payload;
  common::put_u32(payload, 0xFFFF'FFFFU);  // record count
  EXPECT_THROW((void)decode_score_request(payload), Error);

  payload.clear();
  common::put_u32(payload, 1);             // one record…
  common::put_u64(payload, 7);             // uid
  common::put_u64(payload, 0);             // label
  common::put_u32(payload, 0xFFFF'FFFFU);  // …with 4 billion groups
  EXPECT_THROW((void)decode_score_request(payload), Error);

  payload.clear();
  common::put_u32(payload, 0xFFFF'FFFFU);  // response rows
  common::put_u32(payload, 0xFFFF'FFFFU);  // num_classes
  EXPECT_THROW((void)decode_score_response(payload), Error);
}

TEST(Wire, FuzzedPayloadsNeverCrash) {
  // Deterministic fuzz battery: random bytes through every decoder must
  // either decode or throw muffin::Error — never crash, hang, or read
  // out of bounds (ASan/TSan builds make violations loud).
  std::uint64_t state = 0xF00DF00DULL;
  for (std::size_t round = 0; round < 2000; ++round) {
    const std::size_t size = splitmix64_next(state) % 192;
    std::vector<std::uint8_t> payload(size);
    for (std::uint8_t& byte : payload) {
      byte = static_cast<std::uint8_t>(splitmix64_next(state));
    }
    try {
      (void)decode_score_request(payload);
    } catch (const Error&) {
    }
    try {
      (void)decode_score_response(payload);
    } catch (const Error&) {
    }
    try {
      (void)decode_error(payload);
    } catch (const Error&) {
    }
    std::vector<std::uint8_t> header(payload);
    header.resize(kHeaderBytes);
    try {
      (void)decode_header(header);
    } catch (const Error&) {
    }
  }
}

obs::HistogramSnapshot histogram_of(std::initializer_list<double> values) {
  obs::Histogram histogram;
  for (const double v : values) histogram.record(v);
  return histogram.snapshot();
}

StatsReport make_stats_report() {
  StatsReport report;
  report.counters.requests = 12345;
  report.counters.batches = 678;
  report.counters.cache_hits = 910;
  report.counters.consensus_short_circuits = 11;
  report.counters.head_evaluations = 1213;
  report.cache_entries = 1415;
  report.elapsed_seconds = 3.75;
  report.latency = histogram_of({1.5, 2.25, 20.0, 99.25, 0.5, 1e7});
  report.metrics.counters = {{"engine.requests", 12345},
                             {"rpc.server.frames_received", 42}};
  report.metrics.gauges = {{"batcher.depth", -3},
                           {"rpc.server.open_connections", 2}};
  obs::HistogramSnapshot hist = histogram_of({1, 1, 1, 1, 8, 8, 8, 32, 32});
  hist.name = "engine.batch_size";
  report.metrics.histograms = {hist};
  return report;
}

/// The payload (header stripped) of a StatsResponse for `report`.
std::vector<std::uint8_t> stats_payload(const StatsReport& report) {
  std::vector<std::uint8_t> frame = encode_stats_response(1, report);
  frame.erase(frame.begin(), frame.begin() + kHeaderBytes);
  return frame;
}

/// A StatsResponse payload up to and including the latency histogram,
/// which is hand-built from (bucket, count) pairs; empty metrics follow.
std::vector<std::uint8_t> payload_with_latency(
    const std::vector<std::pair<std::uint16_t, std::uint64_t>>& buckets) {
  std::vector<std::uint8_t> payload;
  for (int i = 0; i < 6; ++i) common::put_u64(payload, 1);  // counters+cache
  common::put_f64(payload, 1.0);                            // elapsed
  common::put_u16(payload, static_cast<std::uint16_t>(buckets.size()));
  for (const auto& [bucket, count] : buckets) {
    common::put_u16(payload, bucket);
    common::put_u64(payload, count);
  }
  common::put_f64(payload, 0.0);  // sum
  for (int kind = 0; kind < 3; ++kind) common::put_u32(payload, 0);
  return payload;
}

TEST(Wire, StatsRequestIsAnEmptyPayloadControlFrame) {
  const std::vector<std::uint8_t> frame = encode_stats_request(21);
  EXPECT_EQ(frame.size(), kHeaderBytes);
  const FrameHeader header = decode_header({frame.data(), kHeaderBytes});
  EXPECT_EQ(header.type, MsgType::StatsRequest);
  EXPECT_EQ(header.seq, 21u);
  EXPECT_EQ(header.payload_len, 0u);
}

TEST(Wire, StatsResponseRoundTripsEveryField) {
  const StatsReport report = make_stats_report();
  const std::vector<std::uint8_t> frame = encode_stats_response(77, report);
  const FrameHeader header = decode_header({frame.data(), kHeaderBytes});
  EXPECT_EQ(header.type, MsgType::StatsResponse);
  EXPECT_EQ(header.seq, 77u);
  const StatsReport decoded = decode_stats_response(
      {frame.data() + kHeaderBytes, frame.size() - kHeaderBytes});
  EXPECT_EQ(decoded.counters.requests, report.counters.requests);
  EXPECT_EQ(decoded.counters.batches, report.counters.batches);
  EXPECT_EQ(decoded.counters.cache_hits, report.counters.cache_hits);
  EXPECT_EQ(decoded.counters.consensus_short_circuits,
            report.counters.consensus_short_circuits);
  EXPECT_EQ(decoded.counters.head_evaluations,
            report.counters.head_evaluations);
  EXPECT_EQ(decoded.cache_entries, report.cache_entries);
  EXPECT_EQ(decoded.elapsed_seconds, report.elapsed_seconds);
  EXPECT_EQ(decoded.latency.counts, report.latency.counts);
  EXPECT_EQ(decoded.latency.sum, report.latency.sum);
  ASSERT_EQ(decoded.metrics.counters.size(), 2u);
  EXPECT_EQ(decoded.metrics.counters[0].name, "engine.requests");
  EXPECT_EQ(decoded.metrics.counters[0].value, 12345u);
  ASSERT_EQ(decoded.metrics.gauges.size(), 2u);
  EXPECT_EQ(decoded.metrics.gauges[0].name, "batcher.depth");
  EXPECT_EQ(decoded.metrics.gauges[0].value, -3);  // signed across the wire
  ASSERT_EQ(decoded.metrics.histograms.size(), 1u);
  EXPECT_EQ(decoded.metrics.histograms[0].name, "engine.batch_size");
  EXPECT_EQ(decoded.metrics.histograms[0].counts,
            report.metrics.histograms[0].counts);
  EXPECT_EQ(decoded.metrics.histograms[0].count(), 9u);
  EXPECT_EQ(decoded.metrics.histograms[0].sum, 92.0);
}

TEST(Wire, EmptyStatsResponseRoundTrips) {
  const StatsReport empty;
  const std::vector<std::uint8_t> frame = encode_stats_response(1, empty);
  const StatsReport decoded = decode_stats_response(
      {frame.data() + kHeaderBytes, frame.size() - kHeaderBytes});
  EXPECT_EQ(decoded.counters.requests, 0u);
  EXPECT_EQ(decoded.latency.count(), 0u);
  EXPECT_EQ(decoded.latency.sum, 0.0);
  EXPECT_TRUE(decoded.metrics.counters.empty());
}

TEST(Wire, TruncatedStatsResponseThrowsAtEveryCut) {
  const std::vector<std::uint8_t> frame =
      encode_stats_response(1, make_stats_report());
  const std::span<const std::uint8_t> payload{
      frame.data() + kHeaderBytes, frame.size() - kHeaderBytes};
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_THROW((void)decode_stats_response(payload.subspan(0, cut)), Error)
        << "cut at " << cut;
  }
  EXPECT_NO_THROW((void)decode_stats_response(payload));
}

TEST(Wire, HistogramCodecRoundTripIsExact) {
  // Decoding what was encoded must change no merged number: the wire
  // histogram merges exactly like the one it was encoded from.
  obs::Histogram source;
  std::uint64_t state = 0x415;
  for (int i = 0; i < 5000; ++i) {
    source.record(static_cast<double>(splitmix64_next(state) % 100000) / 7.0);
  }
  StatsReport report;
  report.latency = source.snapshot();
  const StatsReport decoded = decode_stats_response(stats_payload(report));
  EXPECT_EQ(decoded.latency.counts, report.latency.counts);
  EXPECT_EQ(decoded.latency.sum, report.latency.sum);
  obs::HistogramSnapshot via_wire = report.latency;
  via_wire.merge(decoded.latency);
  obs::HistogramSnapshot direct = report.latency;
  direct.merge(report.latency);
  EXPECT_EQ(via_wire.counts, direct.counts);
  EXPECT_EQ(via_wire.quantile(0.99), direct.quantile(0.99));
}

TEST(Wire, HistogramRejectsBucketIndexOutOfRange) {
  const auto last = static_cast<std::uint16_t>(obs::kHistogramBuckets - 1);
  const auto past = static_cast<std::uint16_t>(obs::kHistogramBuckets);
  EXPECT_NO_THROW(
      (void)decode_stats_response(payload_with_latency({{last, 1}})));
  EXPECT_THROW(
      (void)decode_stats_response(payload_with_latency({{past, 1}})),
      Error);
  EXPECT_THROW(
      (void)decode_stats_response(payload_with_latency({{0xFFFF, 1}})),
      Error);
}

TEST(Wire, HistogramRejectsBucketIndicesOutOfOrder) {
  EXPECT_NO_THROW(
      (void)decode_stats_response(payload_with_latency({{3, 1}, {9, 2}})));
  EXPECT_THROW(
      (void)decode_stats_response(payload_with_latency({{9, 2}, {3, 1}})),
      Error);
  // A repeated index would double-count one bucket.
  EXPECT_THROW(
      (void)decode_stats_response(payload_with_latency({{3, 1}, {3, 1}})),
      Error);
}

TEST(Wire, StatsResponseRejectsInconsistentLatencyExport) {
  // Bucket counts whose total overflows u64 describe no real traffic, and
  // would wrap every count and quantile derived from them.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_NO_THROW((void)decode_stats_response(
      payload_with_latency({{1, max - 1}, {2, 1}})));
  EXPECT_THROW((void)decode_stats_response(
                   payload_with_latency({{1, max}, {2, 1}})),
               Error);
}

TEST(Wire, StatsResponseRejectsTooManyHistograms) {
  // A decoded histogram holds every bucket whatever its wire size, so the
  // histogram count is capped, not only checked against the frame bytes.
  std::vector<std::uint8_t> payload = payload_with_latency({});
  payload.resize(payload.size() - 4);  // drop the zero histogram count
  common::put_u32(payload,
                  static_cast<std::uint32_t>(kMaxStatsHistograms + 1));
  for (std::size_t i = 0; i <= kMaxStatsHistograms; ++i) {
    common::put_u16(payload, 0);    // empty name
    common::put_u16(payload, 0);    // no buckets
    common::put_f64(payload, 0.0);  // sum
  }
  EXPECT_THROW((void)decode_stats_response(payload), Error);
}

TEST(Wire, LyingStatsCountsFailBeforeAllocation) {
  // Hand-built payload: valid counters/latency, then a metrics section
  // claiming 2^32-1 registered counters in a few bytes.
  std::vector<std::uint8_t> payload = payload_with_latency({});
  payload.resize(payload.size() - 12);  // drop the three metric counts
  common::put_u32(payload, 0xFFFF'FFFFU);  // counter count
  EXPECT_THROW((void)decode_stats_response(payload), Error);
  // The same lie in the latency histogram's bucket count.
  payload = payload_with_latency({});
  payload[6 * 8 + 8] = 0xFF;
  payload[6 * 8 + 9] = 0xFF;
  EXPECT_THROW((void)decode_stats_response(payload), Error);
}

TEST(Wire, StatsResponseStaysSmallAfterSeventyThousandRequests) {
  // Latency travels as sparse bucket counts, so a shard server's
  // StatsResponse stays a few KB however many requests it has served.
  const data::Dataset dataset = data::synthetic_isic2019(400, 91);
  const models::ModelPool pool = models::calibrated_isic_pool(dataset);
  InferenceEngine engine(
      testutil::build_fused(pool, dataset, /*epochs=*/2));
  const std::span<const data::Record> records = dataset.records();
  for (std::size_t served = 0; served < 70000; served += records.size()) {
    (void)engine.predict_batch(records);
  }
  StatsReport report = engine_stats(engine);
  report.metrics = obs::registry().snapshot();
  ASSERT_GE(report.latency.count(), 70000u);
  EXPECT_LT(encode_stats_response(1, report).size(), 16u * 1024u);
}

TEST(Wire, FuzzedStatsPayloadsNeverCrash) {
  std::uint64_t state = 0x57A7557A75ULL;
  for (std::size_t round = 0; round < 2000; ++round) {
    const std::size_t size = splitmix64_next(state) % 256;
    std::vector<std::uint8_t> payload(size);
    for (std::uint8_t& byte : payload) {
      byte = static_cast<std::uint8_t>(splitmix64_next(state));
    }
    try {
      (void)decode_stats_response(payload);
    } catch (const Error&) {
    }
  }
  // Bit-flip mutations of a valid stats frame, same rule.
  const std::vector<std::uint8_t> frame =
      encode_stats_response(1, make_stats_report());
  for (std::size_t round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> corrupt = frame;
    const std::size_t at = splitmix64_next(state) % corrupt.size();
    corrupt[at] ^= static_cast<std::uint8_t>(1 + splitmix64_next(state) % 255);
    try {
      (void)decode_stats_response(
          {corrupt.data() + kHeaderBytes, corrupt.size() - kHeaderBytes});
    } catch (const Error&) {
    }
  }
}

TEST(Wire, FuzzedMutationsOfValidFramesNeverCrash) {
  // Bit-flip fuzz: corrupt one byte of a real frame at a time; decoding
  // must throw or succeed, never misbehave.
  const std::vector<data::Record> batch = make_batch(3);
  const std::vector<std::uint8_t> frame = encode_score_request(1, batch);
  std::uint64_t state = 0xBEEF;
  for (std::size_t round = 0; round < 500; ++round) {
    std::vector<std::uint8_t> corrupt = frame;
    const std::size_t at = splitmix64_next(state) % corrupt.size();
    corrupt[at] ^= static_cast<std::uint8_t>(1 + splitmix64_next(state) % 255);
    try {
      (void)decode_score_request(
          {corrupt.data() + kHeaderBytes, corrupt.size() - kHeaderBytes});
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace muffin::serve::rpc

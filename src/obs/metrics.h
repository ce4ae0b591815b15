// Process-wide metrics registry: the measurement substrate every serving
// layer reports through.
//
// Three metric kinds, all backed by relaxed atomics so the hot path is a
// single uncontended atomic add:
//
//  * Counter    named monotonic u64 (requests, frames, bytes, drains).
//  * Gauge      named signed level (queue depth, open connections).
//  * Histogram  log-linear distribution (latencies, batch sizes). Every
//               histogram shares one fixed bucket layout — 16 linear
//               sub-buckets per power of two from 2^-10 to 2^40 — so
//               observe() is an index computed from the value's bits plus
//               two atomic adds, and two histograms always merge exactly
//               by adding bucket counts.
//
// Registration happens once per call site through the process-wide
// Registry (obs::registry()); the intended idiom is a function-local
// static reference so steady-state cost is exactly the atomic operation:
//
//   static obs::Counter& frames =
//       obs::registry().counter("rpc.server.frames_received");
//   frames.inc();
//
// Metrics are process-global by design: a host running four engine
// replicas reports the sum of their traffic under one name, and the
// authoritative per-replica view stays on the replica's own counters
// (EngineCounters and the engine's own latency Histogram). snapshot() is
// a point-in-time copy; exposition is Prometheus text (to_prometheus) or
// JSON (to_json), both deterministic (name-sorted) so two snapshots of the
// same state render identically. reset() zeroes every registered metric
// (bench/test isolation); registered references stay valid forever —
// metrics are never unregistered.
//
// Compiled-out mode: building with -DMUFFIN_OBS_DISABLED turns every
// record operation (inc/set/add/observe) into an inline no-op while
// keeping the full API, so instrumented call sites compile unchanged and
// the overhead gate in bench_serve can compare enabled vs off builds.
// Histogram::record stays live in that build: it is the per-replica
// accounting path, not a registry metric.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace muffin::obs {

/// True when metric recording is compiled in (the default build).
[[nodiscard]] constexpr bool compiled_in() {
#if defined(MUFFIN_OBS_DISABLED)
  return false;
#else
  return true;
#endif
}

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
#if defined(MUFFIN_OBS_DISABLED)
    (void)n;
#else
    value_.fetch_add(n, std::memory_order_relaxed);
#endif
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept {
#if defined(MUFFIN_OBS_DISABLED)
    (void)v;
#else
    value_.store(v, std::memory_order_relaxed);
#endif
  }
  void add(std::int64_t n) noexcept {
#if defined(MUFFIN_OBS_DISABLED)
    (void)n;
#else
    value_.fetch_add(n, std::memory_order_relaxed);
#endif
  }
  void sub(std::int64_t n) noexcept { add(-n); }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

// --- the histogram bucket layout -------------------------------------------
//
// Bucket 0 holds every value <= 2^-10 (zero, negatives and NaN included).
// Bucket i > 0 holds (edge(i-1), edge(i)], where the edges step through
// each power of two in 16 equal parts, so a bucket is never wider than
// 1/16 of the values it holds. The last edge is 2^40; larger values
// saturate into the last bucket (2^40 us is twelve days).

inline constexpr int kHistogramMinExponent = -10;
inline constexpr int kHistogramMaxExponent = 40;
inline constexpr std::size_t kHistogramSubBuckets = 16;
inline constexpr std::size_t kHistogramBuckets =
    1 + (kHistogramMaxExponent - kHistogramMinExponent) * kHistogramSubBuckets;

namespace detail {
/// The top 16 bits of a positive double are its biased exponent followed
/// by its top 4 mantissa bits: an index that steps 16 times per power of
/// two. This is that index for 2^kHistogramMinExponent.
inline constexpr std::uint64_t kHistogramFirstKey =
    static_cast<std::uint64_t>(1023 + kHistogramMinExponent) << 4;
}  // namespace detail

/// The bucket holding `value`.
[[nodiscard]] inline std::size_t histogram_bucket(double value) noexcept {
  if (!(value > 0.0)) return 0;
  // Positive doubles order like their bit patterns. Stepping one ulp down
  // before taking the key puts a value equal to an edge in the bucket
  // that edge closes.
  const std::uint64_t key = (std::bit_cast<std::uint64_t>(value) - 1) >> 48;
  if (key < detail::kHistogramFirstKey) return 0;
  return static_cast<std::size_t>(std::min<std::uint64_t>(
      key - detail::kHistogramFirstKey + 1, kHistogramBuckets - 1));
}

/// The upper edge of `bucket` (inclusive), bucket < kHistogramBuckets.
[[nodiscard]] inline double histogram_edge(std::size_t bucket) noexcept {
  return std::bit_cast<double>((detail::kHistogramFirstKey + bucket) << 48);
}

/// Point-in-time value of a histogram: what snapshots, merges and the
/// wire carry. Merging is a bucket-wise sum, so it is exact, commutative
/// and associative in the counts; `sum` merges as floating-point addition.
struct HistogramSnapshot {
  std::string name;  ///< registry name; empty outside a MetricsSnapshot
  std::array<std::uint64_t, kHistogramBuckets> counts{};  ///< per bucket
  double sum = 0.0;

  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  /// Nearest-rank quantile, q in [0, 1]: the upper edge of the bucket
  /// holding the ceil(q * count)-th smallest value. 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// Upper edge of the highest non-empty bucket; 0 when empty.
  [[nodiscard]] double max() const noexcept;
  /// Add `other`'s buckets and sum into this one.
  HistogramSnapshot& merge(const HistogramSnapshot& other) noexcept;
};

class Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Registry-metric recording: compiled out under MUFFIN_OBS_DISABLED.
  void observe(double value) noexcept {
    if constexpr (compiled_in()) record(value);
  }

  /// Recording in every build; two relaxed atomic adds, no lock.
  void record(double value) noexcept {
    counts_[histogram_bucket(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Copy of every bucket and the sum. The count is the sum of the
  /// copied buckets, so it can never disagree with them.
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset() noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> counts_{};
  std::atomic<double> sum_{0.0};
};

// --- snapshots and exposition ---------------------------------------------

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  std::int64_t value = 0;
};

/// Point-in-time copy of every registered metric, name-sorted per kind.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] const CounterSnapshot* find_counter(
      std::string_view name) const;
  [[nodiscard]] const GaugeSnapshot* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramSnapshot* find_histogram(
      std::string_view name) const;

  /// Prometheus text exposition (names prefixed "muffin_", dots become
  /// underscores; histogram buckets cumulative, one `le` line per
  /// non-empty bucket plus +Inf).
  [[nodiscard]] std::string to_prometheus() const;
  /// Compact JSON object {"counters":{...},"gauges":{...},
  /// "histograms":{name:{"count","sum","buckets":[[edge,count],...]}}}
  /// (non-empty buckets only, per-bucket counts).
  [[nodiscard]] std::string to_json() const;
};

class Registry {
 public:
  /// Look up or create the named metric. References stay valid for the
  /// process lifetime. Registering the same name with a different kind
  /// throws muffin::Error.
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  /// Zero every registered metric (registration survives).
  void reset();

 private:
  enum class Kind { Counter, Gauge, Histogram };
  struct Entry;

  [[nodiscard]] Entry& find_or_create(std::string_view name, Kind kind);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Entry>> entries_;  ///< stable addresses
};

/// The process-wide registry every layer reports through.
[[nodiscard]] Registry& registry();

}  // namespace muffin::obs

// Open-loop load generator. One thread sends each request at its due
// time (fixed spacing at the offered rate), sleeping in between, and
// harvests ready replies between sends. Every request is timed from its
// due time to the moment the generator sees its reply ready, so a stall
// anywhere also delays every request due during it. A request that fails
// or is refused counts against the phase, never toward its latencies.
#pragma once

#include <functional>
#include <future>
#include <random>
#include <string>
#include <vector>

#include "common.h"
#include "data/dataset.h"
#include "serve/engine.h"
#include "spans.h"

namespace perfbench {

/// Which population record each request asks for.
class Traffic {
 public:
  /// Zipf(s = 1) popularity over `population` records; the popularity
  /// ranks are shuffled over record indices.
  static Traffic zipf(std::size_t population, std::uint64_t seed);
  /// Uniform over `population` records.
  static Traffic uniform(std::size_t population, std::uint64_t seed);

  std::size_t next();
  /// Record index of popularity rank r (0 = most popular).
  [[nodiscard]] std::size_t by_rank(std::size_t r) const { return order_[r]; }

 private:
  std::mt19937_64 rng_;
  std::vector<double> cdf_;  ///< empty for uniform traffic
  std::vector<std::size_t> order_;
};

/// Replies seen so far: the class answered per record (every reply for a
/// record must agree) and a sample of full score vectors for the bitwise
/// check after the run.
class ReplyLog {
 public:
  explicit ReplyLog(std::size_t population);
  void note(std::size_t record, muffin::serve::Prediction& prediction);

  [[nodiscard]] std::size_t disagreements() const { return disagreements_; }
  /// Record indices that received at least one reply, with their class.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> answered()
      const;
  struct Sample {
    std::size_t record;
    std::vector<double> scores;
  };
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::vector<std::int16_t> class_of_;
  std::size_t disagreements_ = 0;
  std::size_t replies_ = 0;
  std::vector<Sample> samples_;
};

using SubmitFn =
    std::function<std::future<muffin::serve::Prediction>(const muffin::data::Record&)>;

/// One sub-window of a phase: requests grouped by their due time.
struct WindowStats {
  std::size_t count = 0;
  double p50_us = 0.0;
  double tail_us = 0.0;  ///< p90
  double p99_us = 0.0;
  /// The generator kept to its schedule; only valid windows are data
  /// points (a late generator means the host did not run it on time).
  bool valid = false;
};

struct PhaseResult {
  std::string name;
  double offered_rps = 0.0;
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  bool aborted = false;  ///< backlog outgrew the bound; rest not sent
  std::size_t cached = 0;
  std::size_t consensus = 0;
  /// From the first due time to the last reply seen.
  double active_seconds = 0.0;
  std::vector<WindowStats> windows;
  double lateness_sum_us = 0.0;
  double submit_us_sum = 0.0;  ///< time inside submit
  std::size_t submit_count = 0;

  /// Appends another block of the same phase (interleaved measurement).
  void merge(const PhaseResult& other);
  [[nodiscard]] std::size_t valid_windows() const;
  /// Medians over the valid sub-windows (over all when none is valid) of
  /// each window's p50, tail (p90) and p99.
  [[nodiscard]] double p50_us() const;
  [[nodiscard]] double tail_us() const;
  [[nodiscard]] double p99_us() const;
  /// Replies per second over the active span.
  [[nodiscard]] double achieved_rps() const {
    return active_seconds > 0.0 ? static_cast<double>(succeeded) / active_seconds
                                : 0.0;
  }
  [[nodiscard]] double lateness_mean_us() const {
    return sent ? lateness_sum_us / static_cast<double>(sent) : 0.0;
  }
  [[nodiscard]] bool generator_behind() const { return valid_windows() == 0; }
  /// At least half the sub-windows are valid.
  [[nodiscard]] bool mostly_valid() const {
    return 2 * valid_windows() >= windows.size();
  }
  enum class Verdict { Pass, Miss, Inconclusive };
  /// The ladder's rung test. Miss: the backlog outgrew its bound, replies
  /// fell below 99% of the offered rate, a request failed, or the valid
  /// sub-windows' median p99 is over the limit. Inconclusive: otherwise,
  /// when fewer than half the sub-windows are valid (the host did not
  /// run the generator on time, so the try says nothing). Pass otherwise.
  [[nodiscard]] Verdict verdict() const;
  void print() const;
};

struct PhaseConfig {
  std::string name;
  double rate = 0.0;
  double seconds = 0.0;
};

/// Runs one open-loop phase on the calling thread.
PhaseResult run_open_loop(const PhaseConfig& config,
                          const std::vector<muffin::data::Record>& population,
                          Traffic& traffic, const SubmitFn& submit,
                          ReplyLog& replies, Tracer& tracer);

/// Lowers this thread's timer slack so sleeps wake within microseconds.
void tighten_timer_slack();

}  // namespace perfbench

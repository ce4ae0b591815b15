#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <numeric>
#include <thread>

namespace perfbench {

using muffin::serve::Prediction;

namespace {

/// The ladder's latency limit on a rung's p99.
constexpr double kLatencyLimitUs = 5000.0;
/// Requests are grouped by due time into sub-windows of this length.
constexpr double kSubwindowSeconds = 0.125;
/// A sub-window is valid when the generator sent on time: mean lateness
/// within 50 us and its p99 within 1 ms.
constexpr double kMaxLateMeanUs = 50.0;
constexpr double kMaxLateP99Us = 1000.0;
/// One request in this many gets request and submit spans when tracing.
constexpr std::uint64_t kTraceEvery = 16;

}  // namespace

Traffic Traffic::zipf(std::size_t population, std::uint64_t seed) {
  Traffic t = uniform(population, seed);
  t.cdf_.resize(population);
  double sum = 0.0;
  for (std::size_t r = 0; r < population; ++r) {
    sum += 1.0 / static_cast<double>(r + 1);
    t.cdf_[r] = sum;
  }
  for (double& c : t.cdf_) c /= sum;
  return t;
}

Traffic Traffic::uniform(std::size_t population, std::uint64_t seed) {
  Traffic t;
  t.rng_.seed(seed);
  t.order_.resize(population);
  std::iota(t.order_.begin(), t.order_.end(), std::size_t{0});
  std::shuffle(t.order_.begin(), t.order_.end(), t.rng_);
  return t;
}

std::size_t Traffic::next() {
  if (cdf_.empty()) return order_[rng_() % order_.size()];
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto rank = std::min<std::size_t>(
      static_cast<std::size_t>(it - cdf_.begin()), order_.size() - 1);
  return order_[rank];
}

ReplyLog::ReplyLog(std::size_t population) : class_of_(population, -1) {}

void ReplyLog::note(std::size_t record, Prediction& prediction) {
  const auto cls = static_cast<std::int16_t>(prediction.predicted);
  std::int16_t& seen = class_of_[record];
  if (seen < 0) {
    seen = cls;
  } else if (seen != cls) {
    ++disagreements_;
  }
  if (replies_++ % 997 == 0 && samples_.size() < 4096) {
    samples_.push_back(Sample{record, std::move(prediction.scores)});
  }
}

std::vector<std::pair<std::size_t, std::size_t>> ReplyLog::answered() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < class_of_.size(); ++i) {
    if (class_of_[i] >= 0) {
      out.emplace_back(i, static_cast<std::size_t>(class_of_[i]));
    }
  }
  return out;
}

void PhaseResult::merge(const PhaseResult& other) {
  sent += other.sent;
  succeeded += other.succeeded;
  failed += other.failed;
  aborted |= other.aborted;
  cached += other.cached;
  consensus += other.consensus;
  active_seconds += other.active_seconds;
  windows.insert(windows.end(), other.windows.begin(), other.windows.end());
  lateness_sum_us += other.lateness_sum_us;
  submit_us_sum += other.submit_us_sum;
  submit_count += other.submit_count;
}

std::size_t PhaseResult::valid_windows() const {
  std::size_t n = 0;
  for (const WindowStats& w : windows) n += w.valid ? 1 : 0;
  return n;
}

namespace {

double window_median(const std::vector<WindowStats>& windows,
                     double WindowStats::*field) {
  const bool any_valid = std::any_of(windows.begin(), windows.end(),
                                     [](const WindowStats& w) { return w.valid; });
  std::vector<double> values;
  for (const WindowStats& w : windows) {
    if ((w.valid || !any_valid) && w.count > 0) values.push_back(w.*field);
  }
  return median(values);
}

}  // namespace

double PhaseResult::p50_us() const {
  return window_median(windows, &WindowStats::p50_us);
}

double PhaseResult::tail_us() const {
  return window_median(windows, &WindowStats::tail_us);
}

double PhaseResult::p99_us() const {
  return window_median(windows, &WindowStats::p99_us);
}

PhaseResult::Verdict PhaseResult::verdict() const {
  if (aborted || failed > 0 || achieved_rps() < 0.99 * offered_rps ||
      (!generator_behind() && p99_us() > kLatencyLimitUs)) {
    return Verdict::Miss;
  }
  return mostly_valid() ? Verdict::Pass : Verdict::Inconclusive;
}

void PhaseResult::print() const {
  char line[400];
  std::snprintf(
      line, sizeof(line),
      "  %-12s offered %9.0f/s achieved %9.0f/s sent %8zu ok %8zu failed %zu%s"
      " | p50 %7.1f p90 %7.1f p99 %7.1f us | valid windows %zu/%zu, late mean %.1f us"
      " | hits %.3f",
      name.c_str(), offered_rps, achieved_rps(), sent, succeeded, failed,
      aborted ? " ABORTED" : "", p50_us(), tail_us(), p99_us(), valid_windows(),
      windows.size(), lateness_mean_us(),
      succeeded ? static_cast<double>(cached) / static_cast<double>(succeeded)
                : 0.0);
  std::cout << line << "\n";
}

void tighten_timer_slack() { (void)::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

namespace {

struct Pending {
  std::future<Prediction> future;
  Clock::time_point due;
  std::size_t record;
  std::uint64_t span_id;  ///< request span (0 when not traced)
};

}  // namespace

PhaseResult run_open_loop(const PhaseConfig& config,
                          const std::vector<muffin::data::Record>& population,
                          Traffic& traffic, const SubmitFn& submit,
                          ReplyLog& replies, Tracer& tracer) {
  PhaseResult result;
  result.name = config.name;
  result.offered_rps = config.rate;
  const auto total = static_cast<std::size_t>(config.rate * config.seconds);
  const auto windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(config.seconds / kSubwindowSeconds + 0.5));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  std::vector<std::vector<double>> per_window(windows);
  std::vector<std::vector<double>> late_window(windows);
  const auto window_of = [&](Clock::time_point due) {
    const double at = seconds_between(start, due) / kSubwindowSeconds;
    return std::min<std::size_t>(windows - 1,
                                 at > 0.0 ? static_cast<std::size_t>(at) : 0);
  };
  const double gap_s = 1.0 / config.rate;
  // Backlog bound: 50 ms of traffic outstanding means the system has
  // fallen far behind the latency limit; the phase stops sending.
  const std::size_t max_outstanding =
      std::max<std::size_t>(1000, static_cast<std::size_t>(config.rate * 0.05));

  std::vector<Pending> outstanding;
  outstanding.reserve(max_outstanding + 64);
  Clock::time_point last_seen = start;
  const auto due_of = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(gap_s * static_cast<double>(i)));
  };

  const auto finish = [&](Pending& p, Clock::time_point seen) {
    try {
      Prediction prediction = p.future.get();
      per_window[window_of(p.due)].push_back(micros_between(p.due, seen));
      ++result.succeeded;
      last_seen = std::max(last_seen, seen);
      if (prediction.cached) ++result.cached;
      if (prediction.consensus) ++result.consensus;
      replies.note(p.record, prediction);
    } catch (...) {
      ++result.failed;
    }
    if (p.span_id) {
      tracer.record("request", p.due, seen, p.span_id, 0, p.span_id);
    }
  };

  std::size_t next = 0;
  while (next < total || !outstanding.empty()) {
    Clock::time_point now = Clock::now();
    // Send every request that is due.
    while (next < total && due_of(next) <= now) {
      if (outstanding.size() >= max_outstanding) {
        result.aborted = true;
        break;
      }
      const Clock::time_point due = due_of(next);
      const double late_us = micros_between(due, now);
      late_window[window_of(due)].push_back(late_us);
      result.lateness_sum_us += late_us;
      const std::size_t record = traffic.next();
      const bool traced = tracer.enabled() && next % kTraceEvery == 0;
      const std::uint64_t request_id = traced ? tracer.next_id() : 0;
      ++result.sent;
      try {
        const Clock::time_point t0 = Clock::now();
        std::future<Prediction> future = submit(population[record]);
        const Clock::time_point t1 = Clock::now();
        result.submit_us_sum += micros_between(t0, t1);
        ++result.submit_count;
        if (traced) {
          tracer.record("serve.submit", t0, t1, tracer.next_id(), request_id,
                        request_id);
        }
        outstanding.push_back(Pending{std::move(future), due, record, request_id});
        now = t1;
      } catch (...) {
        ++result.failed;
        now = Clock::now();
      }
      ++next;
    }
    if (result.aborted) break;
    // Harvest every reply that is ready.
    const Clock::time_point seen = Clock::now();
    for (std::size_t k = 0; k < outstanding.size();) {
      if (outstanding[k].future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        finish(outstanding[k], seen);
        outstanding[k] = std::move(outstanding.back());
        outstanding.pop_back();
      } else {
        ++k;
      }
    }
    if (next < total) {
      const Clock::time_point due = due_of(next);
      if (due > seen + std::chrono::microseconds(2)) {
        std::this_thread::sleep_until(due);
      }
    } else if (!outstanding.empty()) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  // An aborted phase still collects what it sent, so nothing stays in
  // flight when the next phase starts.
  for (Pending& p : outstanding) {
    p.future.wait();
    finish(p, Clock::now());
  }
  result.active_seconds = seconds_between(start, last_seen);
  for (std::size_t w = 0; w < windows; ++w) {
    WindowStats stats;
    stats.count = per_window[w].size();
    stats.p50_us = quantile(per_window[w], 0.50);
    stats.tail_us = tail(per_window[w]);
    stats.p99_us = quantile(per_window[w], 0.99);
    stats.valid = stats.count > 0 && mean(late_window[w]) <= kMaxLateMeanUs &&
                  quantile(std::move(late_window[w]), 0.99) <= kMaxLateP99Us;
    result.windows.push_back(stats);
  }
  return result;
}

}  // namespace perfbench

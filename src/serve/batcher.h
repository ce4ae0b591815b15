// Micro-batching request queue.
//
// Producers push items; a consumer pops batches. A batch is released as
// soon as `max_batch` items are queued (size flush) or the oldest queued
// item has waited `max_delay` (deadline flush), whichever happens first —
// the classic dynamic-batching throughput/latency trade: larger batches
// amortize per-batch work, the deadline bounds the latency a lone request
// can pay waiting for company.
//
// With max_delay = 0 there is no hold at all: a consumer takes whatever
// is queued the moment it asks, so batch size grows with load by itself
// (items arriving while the consumer scores form the next batch).
//
// The queue is thread-safe for any number of producers and consumers;
// close() wakes all consumers, which then drain remaining items and
// finally observe the empty batch that signals termination.
//
// Backlog helpers: besides the blocking consumers, a bounded number of
// helpers may drain full batches (claim_helper / next_full_batch). A
// helper never waits and never takes a partial batch — it retires, under
// the queue lock, the moment less than max_batch items are queued — so
// partial batches stay with the blocking consumer and a helper can run
// as a short job on a shared pool. wait_helpers() blocks until every
// claimed helper has retired.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/metrics.h"

namespace muffin::serve {

struct BatcherConfig {
  std::size_t max_batch = 32;                 ///< size-flush threshold
  std::chrono::microseconds max_delay{1000};  ///< deadline-flush threshold
  /// Admission bound: push/push_many throw muffin::Overloaded once the
  /// queue holds this many items (0 = unbounded). The shed happens at
  /// enqueue — a full queue is reported in microseconds, instead of the
  /// request timing out deep in the scoring stack.
  std::size_t max_queue = 0;
  /// Registry prefix for the batcher's flush accounting
  /// (`<prefix>.size_flushes` / `.deadline_flushes` / `.drain_flushes`)
  /// and queue-depth gauge (`<prefix>.depth`). Empty disables
  /// registration, for throwaway batchers that must not touch the
  /// process registry.
  std::string metrics_prefix = "batcher";
};

template <typename T>
class Batcher {
 public:
  explicit Batcher(BatcherConfig config) : config_(std::move(config)) {
    MUFFIN_REQUIRE(config_.max_batch > 0, "batcher needs max_batch >= 1");
    MUFFIN_REQUIRE(config_.max_delay.count() >= 0,
                   "batcher max_delay must be non-negative");
    if (!config_.metrics_prefix.empty()) {
      obs::Registry& registry = obs::registry();
      const std::string& prefix = config_.metrics_prefix;
      size_flushes_ = &registry.counter(prefix + ".size_flushes");
      deadline_flushes_ = &registry.counter(prefix + ".deadline_flushes");
      drain_flushes_ = &registry.counter(prefix + ".drain_flushes");
      depth_ = &registry.gauge(prefix + ".depth");
    }
  }

  /// Enqueue one item. Throws muffin::Error if the batcher is closed,
  /// muffin::Overloaded if the admission bound is reached.
  void push(T item) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      MUFFIN_REQUIRE(!closed_, "cannot push to a closed batcher");
      admit_locked(1);
      queue_.emplace_back(std::move(item), Clock::now());
      publish_depth_locked();
    }
    ready_.notify_one();
  }

  /// Enqueue a group of items atomically: one lock, one enqueue stamp,
  /// one wakeup — all items enter or (if the batcher is closed) none do.
  /// This is the RPC server's path: a decoded request frame's records
  /// enter the engine as a group instead of paying per-record
  /// lock/notify costs.
  void push_many(std::vector<T> items) {
    if (items.empty()) return;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      MUFFIN_REQUIRE(!closed_, "cannot push to a closed batcher");
      admit_locked(items.size());
      const Clock::time_point now = Clock::now();
      for (T& item : items) {
        queue_.emplace_back(std::move(item), now);
      }
      publish_depth_locked();
    }
    ready_.notify_all();
  }

  /// Block until a batch is available and return it. An empty vector means
  /// the batcher is closed and fully drained.
  [[nodiscard]] std::vector<T> next_batch() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (queue_.size() >= config_.max_batch) {
        return pop_locked(size_flushes_);
      }
      if (closed_) {
        return pop_locked(drain_flushes_);
      }
      if (!queue_.empty()) {
        const auto deadline = queue_.front().second + config_.max_delay;
        if (Clock::now() >= deadline) return pop_locked(deadline_flushes_);
        ready_.wait_until(lock, deadline);
      } else {
        ready_.wait(lock);
      }
    }
  }

  /// Claim a backlog helper when at least one full batch is queued and
  /// fewer than `cap` helpers are active. A claimed helper must either
  /// run next_full_batch() until it returns empty, or — if it never
  /// starts — be handed back with release_helper().
  [[nodiscard]] bool claim_helper(std::size_t cap) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (helpers_ >= cap || queue_.size() < config_.max_batch) return false;
    ++helpers_;
    return true;
  }

  /// A helper's next batch: a full max_batch, or — when less than that is
  /// queued — the empty batch that retires the helper. Never blocks. After
  /// the retiring call the helper must not touch the batcher again: a
  /// wait_helpers() caller may destroy it as soon as it returns.
  [[nodiscard]] std::vector<T> next_full_batch() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.size() >= config_.max_batch) return pop_locked(size_flushes_);
    retire_helper_locked();
    return {};
  }

  /// Hand back a claimed helper that never ran.
  void release_helper() {
    const std::lock_guard<std::mutex> lock(mutex_);
    retire_helper_locked();
  }

  /// Block until every claimed helper has retired.
  void wait_helpers() {
    std::unique_lock<std::mutex> lock(mutex_);
    helpers_idle_.wait(lock, [this]() { return helpers_ == 0; });
  }

  /// Stop accepting items; consumers drain the queue then see empty batches.
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  [[nodiscard]] std::size_t pending() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

  [[nodiscard]] const BatcherConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Pop up to max_batch items; requires the lock to be held. `cause`
  /// is the flush-cause counter to credit (null when metrics are off);
  /// the empty batch that signals a drained-and-closed queue is not a
  /// flush and is never counted.
  [[nodiscard]] std::vector<T> pop_locked(obs::Counter* cause) {
    const std::size_t n = std::min(queue_.size(), config_.max_batch);
    std::vector<T> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(std::move(queue_.front().first));
      queue_.pop_front();
    }
    if (n > 0 && cause != nullptr) cause->inc();
    publish_depth_locked();
    return batch;
  }

  /// All-or-nothing admission check for `n` incoming items; requires the
  /// lock to be held. A group is shed whole — partially admitting a
  /// frame's records would break the all-or-error batch contract.
  void admit_locked(std::size_t n) const {
    if (config_.max_queue != 0 && queue_.size() + n > config_.max_queue) {
      throw Overloaded("batcher queue full (" + std::to_string(queue_.size()) +
                       " of " + std::to_string(config_.max_queue) +
                       " queued): request shed");
    }
  }

  void retire_helper_locked() {
    --helpers_;
    // Notify under the lock: the waiter may destroy this batcher as soon
    // as it observes zero, so an unlocked notify could touch a destroyed
    // condition variable.
    if (helpers_ == 0) helpers_idle_.notify_all();
  }

  void publish_depth_locked() {
    if (depth_ != nullptr) {
      depth_->set(static_cast<std::int64_t>(queue_.size()));
    }
  }

  BatcherConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable helpers_idle_;
  std::deque<std::pair<T, Clock::time_point>> queue_;
  bool closed_ = false;
  std::size_t helpers_ = 0;  ///< claimed, not yet retired
  obs::Counter* size_flushes_ = nullptr;
  obs::Counter* deadline_flushes_ = nullptr;
  obs::Counter* drain_flushes_ = nullptr;
  obs::Gauge* depth_ = nullptr;
};

}  // namespace muffin::serve

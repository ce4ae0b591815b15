#include "common/thread_pool.h"

#include <chrono>

#include "common/error.h"
#include "obs/metrics.h"

namespace muffin::common {

namespace {
thread_local std::size_t tls_worker_index = ThreadPool::npos;
thread_local std::size_t tls_serial_scopes = 0;

/// Process-wide pool accounting: tasks executed and time workers spent
/// parked waiting for work. One registry entry set shared by every pool
/// in the process (in practice there is one: common::global_pool()).
struct PoolMetrics {
  obs::Counter& tasks = obs::registry().counter("pool.tasks");
  obs::Counter& idle_us = obs::registry().counter("pool.idle_us");

  static PoolMetrics& get() {
    static PoolMetrics metrics;
    return metrics;
  }
};
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  MUFFIN_REQUIRE(threads > 0, "thread pool needs at least one worker");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i]() { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Discard pending jobs; their packaged_task destructors break the
    // associated promises, so waiting futures fail fast instead of hanging.
    while (!jobs_.empty()) jobs_.pop();
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t ThreadPool::current_worker() { return tls_worker_index; }

bool ThreadPool::serial_context() {
  return tls_worker_index != npos || tls_serial_scopes != 0;
}

ThreadPool::SerialScope::SerialScope() { ++tls_serial_scopes; }

ThreadPool::SerialScope::~SerialScope() { --tls_serial_scopes; }

std::size_t ThreadPool::pending() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

void ThreadPool::enqueue(std::function<void()> job) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    MUFFIN_REQUIRE(!stopping_, "cannot submit to a stopping thread pool");
    jobs_.push(std::move(job));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker_index = index;
  PoolMetrics& metrics = PoolMetrics::get();
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (stopping_ && jobs_.empty()) return;
      if (jobs_.empty()) {
        // Time only real parks (queue empty on arrival): the common
        // saturated case stays wait-free past the queue lock itself.
        const auto parked = std::chrono::steady_clock::now();
        wake_.wait(lock, [this]() { return stopping_ || !jobs_.empty(); });
        metrics.idle_us.inc(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - parked)
                .count()));
        if (stopping_ && jobs_.empty()) return;
      }
      job = std::move(jobs_.front());
      jobs_.pop();
    }
    metrics.tasks.inc();
    job();  // packaged_task captures exceptions into the future
  }
}

}  // namespace muffin::common

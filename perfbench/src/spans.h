// In-memory spans recorded by the benchmark around its calls into each
// layer of the program: name, start, end, parent span and a request id
// shared by one request's spans. Kept in memory during the run and
// written at exit as Chrome trace_event JSON (the format obs::Tracer
// writes), loadable in chrome://tracing or Perfetto.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct SpanStats {
  std::string name;
  std::size_t count = 0;
  double mean_us = 0.0;       ///< mean duration
  double mean_self_us = 0.0;  ///< mean duration minus child spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Records one finished span; no-op when disabled. Spans past the
  /// in-memory cap are counted as dropped.
  void record(const char* name, Clock::time_point start,
              Clock::time_point end, std::uint64_t id, std::uint64_t parent,
              std::uint64_t request);

  /// Per-name duration and self time, in first-seen order.
  [[nodiscard]] std::vector<SpanStats> stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t dropped() const { return dropped_; }
  bool write_chrome(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    double start_us;
    double end_us;
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t request;
    std::uint32_t tid;
  };
  static constexpr std::size_t kMaxSpans = 1u << 20;

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Record> records_;  ///< guarded by mutex_
  std::size_t dropped_ = 0;      ///< guarded by mutex_
};

/// RAII span: starts at construction, records at destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent = 0,
       std::uint64_t request = 0)
      : tracer_(tracer),
        name_(name),
        id_(tracer.enabled() ? tracer.next_id() : 0),
        parent_(parent),
        request_(request),
        start_(Clock::now()) {}
  ~Span() {
    if (id_) tracer_.record(name_, start_, Clock::now(), id_, parent_, request_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint64_t request_;
  Clock::time_point start_;
};

}  // namespace perfbench

#include "serve/engine.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "common/error.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/parallel_for.h"
#include "data/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace muffin::serve {

namespace {

/// Process-wide engine metrics (see src/obs/metrics.h for the idiom:
/// resolve once, then every record is a single relaxed atomic op). These
/// aggregate over every engine replica in the process; the per-engine
/// atomics behind counters() stay the per-replica source of truth.
struct EngineMetrics {
  obs::Counter& requests = obs::registry().counter("engine.requests");
  obs::Counter& batches = obs::registry().counter("engine.batches");
  obs::Counter& cache_hits = obs::registry().counter("engine.cache_hits");
  obs::Counter& cache_misses = obs::registry().counter("engine.cache_misses");
  obs::Counter& consensus =
      obs::registry().counter("engine.consensus_short_circuits");
  obs::Counter& head_evaluations =
      obs::registry().counter("engine.head_evaluations");
  obs::Histogram& batch_size = obs::registry().histogram("engine.batch_size");
  obs::Histogram& latency_us = obs::registry().histogram("engine.latency_us");
  /// Requests rejected at admission (Overloaded), and how long the
  /// rejection itself took — the shed path's whole point is that this
  /// histogram sits far below engine.latency_us.
  obs::Counter& shed = obs::registry().counter("serve.shed");
  obs::Histogram& shed_latency_us =
      obs::registry().histogram("serve.shed_latency_us");
  /// Requests dropped unscored because they overstayed config.deadline.
  obs::Counter& deadline_drops =
      obs::registry().counter("serve.deadline_drops");
  /// Model lifecycle: hot-swaps performed (process-wide) and the version
  /// most recently published by any engine in this process. For the
  /// one-engine-per-process shard server this gauge IS the shard's live
  /// version; a multi-engine process reads per-engine model_version().
  obs::Counter& swaps = obs::registry().counter("serve.swaps_total");
  obs::Gauge& model_version = obs::registry().gauge("serve.model_version");

  static EngineMetrics& get() {
    static EngineMetrics metrics;
    return metrics;
  }
};

/// `n` default-initialized elements (indeterminate for trivial types,
/// so no page is touched), or no allocation at all when `n` is 0.
template <typename T>
std::unique_ptr<T[]> uninitialized_array(std::size_t n) {
  return n == 0 ? nullptr : std::make_unique_for_overwrite<T[]>(n);
}

obs::Gauge& memo_bytes_gauge() {
  static obs::Gauge& gauge =
      obs::registry().gauge("serve.result_memo_bytes");
  return gauge;
}

}  // namespace

InferenceEngine::InferenceEngine(std::shared_ptr<const core::FusedModel> model,
                                 EngineConfig config)
    : registry_(std::move(model), config.initial_model_version),
      config_(config),
      num_classes_(registry_.current()->model->num_classes()),
      pool_(common::global_pool()),
      batcher_({config.max_batch, config.max_delay, config.max_queue,
                "engine.batcher"}),
      memo_(config.result_cache_capacity, num_classes_,
            tensor::active_quant_mode()) {
  MUFFIN_REQUIRE(config_.workers > 0, "engine needs at least one worker");
  const std::shared_ptr<const ModelSnapshot> snapshot = registry_.current();
  // Head clones keep each scoring thread's weights hot in its own cache
  // hierarchy. The clone count is budgeted by config.workers (not the
  // host width) so a many-shard router on a wide machine does not
  // multiply head memory by hardware_concurrency; the same budget caps
  // the threads scoring at once (the dispatcher plus backlog helpers).
  // Threads map onto clones by modulo, and sharing a clone is safe
  // because inference forwards are const and cache-free. Slots track the
  // version their clone came from so a hot-swap re-clones lazily
  // (head_for).
  const std::size_t clones = std::min(pool_.size(), config_.workers);
  max_helpers_ = clones - 1;
  head_slots_.reserve(clones);
  for (std::size_t w = 0; w < clones; ++w) {
    auto slot = std::make_unique<HeadSlot>();
    slot->version = snapshot->version;
    slot->head = std::make_shared<const nn::Mlp>(snapshot->model->head());
    head_slots_.push_back(std::move(slot));
  }
  EngineMetrics::get().model_version.set(
      static_cast<std::int64_t>(snapshot->version));
  dispatcher_ = std::thread([this]() { dispatch_loop(); });
}

InferenceEngine::~InferenceEngine() { shutdown(); }

std::future<Prediction> InferenceEngine::submit(const data::Record& record) {
  MUFFIN_REQUIRE(!stopped_.load(), "cannot submit to a stopped engine");
  // Before any accounting: an injected submit fault must look like the
  // submit never happened (the router's failover path depends on that).
  fail::maybe_fail("serve.engine.submit");
  Request request{record, Clock::now(), {},
                  obs::Tracer::instance().sample()};
  std::future<Prediction> future = request.promise.get_future();
  // Count before publishing to the batcher: a worker may dequeue, score,
  // and record latency for this request the moment it is pushed, and
  // observers assert latency.count <= counters().requests mid-flight.
  requests_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::get().requests.inc();
  try {
    batcher_.push(std::move(request));
  } catch (const Overloaded&) {
    // Admission bound reached: the request never entered the engine.
    requests_.fetch_sub(1, std::memory_order_relaxed);
    EngineMetrics& metrics = EngineMetrics::get();
    metrics.shed.inc();
    metrics.shed_latency_us.observe(
        std::chrono::duration<double, std::micro>(Clock::now() -
                                                  request.enqueued)
            .count());
    throw;
  } catch (...) {
    // push throws if shutdown() closed the batcher between the stopped_
    // check and here: the request never entered the engine, so un-count it.
    requests_.fetch_sub(1, std::memory_order_relaxed);
    throw;
  }
  return future;
}

Prediction InferenceEngine::predict(const data::Record& record) {
  return submit(record).get();
}

std::vector<std::future<Prediction>> InferenceEngine::submit_batch(
    std::span<const data::Record> records) {
  std::vector<data::Record> copies(records.begin(), records.end());
  return submit_batch(std::move(copies));
}

std::vector<std::future<Prediction>> InferenceEngine::submit_batch(
    std::vector<data::Record>&& records) {
  MUFFIN_REQUIRE(!stopped_.load(), "cannot submit to a stopped engine");
  fail::maybe_fail("serve.engine.submit");
  const std::size_t n = records.size();
  std::vector<Request> requests;
  requests.reserve(n);
  std::vector<std::future<Prediction>> futures;
  futures.reserve(n);
  const Clock::time_point now = Clock::now();
  obs::Tracer& tracer = obs::Tracer::instance();
  for (data::Record& record : records) {
    Request request{std::move(record), now, {}, tracer.sample()};
    futures.push_back(request.promise.get_future());
    requests.push_back(std::move(request));
  }
  // Same count-before-publish ordering as submit(), for the same reason.
  requests_.fetch_add(n, std::memory_order_relaxed);
  EngineMetrics::get().requests.inc(n);
  try {
    batcher_.push_many(std::move(requests));
  } catch (const Overloaded&) {
    // Shed whole: push_many admits all records or none.
    requests_.fetch_sub(n, std::memory_order_relaxed);
    EngineMetrics& metrics = EngineMetrics::get();
    metrics.shed.inc(n);
    metrics.shed_latency_us.observe(
        std::chrono::duration<double, std::micro>(Clock::now() - now).count());
    throw;
  } catch (...) {
    // push_many is all-or-nothing: on a shutdown race no record entered
    // the engine, so un-count the whole span.
    requests_.fetch_sub(n, std::memory_order_relaxed);
    throw;
  }
  return futures;
}

std::vector<Prediction> collect_all_or_error(
    std::vector<std::future<Prediction>> futures) {
  std::vector<Prediction> predictions;
  predictions.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      predictions.push_back(futures[i].get());
    } catch (...) {
      // Quiesce everything still in flight before the error propagates:
      // the caller must be free to shut down or resubmit immediately.
      for (std::size_t j = i + 1; j < futures.size(); ++j) {
        futures[j].wait();
      }
      throw;
    }
  }
  return predictions;
}

std::vector<Prediction> InferenceEngine::predict_batch(
    std::span<const data::Record> records) {
  // submit_batch is atomic, so there is no partially-submitted prefix to
  // quiesce on a submit failure; the all-or-error rule (serve/router.h)
  // is enforced by collect_all_or_error, where per-record results fail.
  return collect_all_or_error(submit_batch(records));
}

void InferenceEngine::shutdown() {
  if (stopped_.exchange(true)) return;
  batcher_.close();
  if (dispatcher_.joinable()) dispatcher_.join();
  batcher_.wait_helpers();
}

std::uint64_t InferenceEngine::swap_model(
    std::shared_ptr<const core::FusedModel> model, std::uint64_t version) {
  MUFFIN_REQUIRE(model != nullptr, "cannot swap in a null model");
  MUFFIN_REQUIRE(model->num_classes() == num_classes_,
                 "swapped model changes the serving shape (" +
                     std::to_string(model->num_classes()) + " classes vs " +
                     std::to_string(num_classes_) + ")");
  // Chaos seam: an injected error models a corrupt artifact discovered
  // at publish time — the swap fails atomically, traffic never notices.
  fail::maybe_fail("serve.engine.swap");
  const std::shared_ptr<const ModelSnapshot> installed =
      registry_.publish(std::move(model), version);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics& metrics = EngineMetrics::get();
  metrics.swaps.inc();
  metrics.model_version.set(static_cast<std::int64_t>(installed->version));
  // No flush, no pause: in-flight batches hold their own snapshot pins,
  // worker head slots refresh lazily on their next batch (head_for), and
  // version-keyed memo entries from older versions die on first lookup.
  return installed->version;
}

std::shared_ptr<const nn::Mlp> InferenceEngine::head_for(
    std::size_t worker, const ModelSnapshot& snapshot) {
  HeadSlot& slot =
      *head_slots_[worker == ThreadPool::npos ? 0
                                              : worker % head_slots_.size()];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.version == snapshot.version) return slot.head;
  if (slot.version < snapshot.version) {
    // Lazy epoch advance: first batch on the new version pays one head
    // clone; later batches on this slot reuse it. The displaced clone
    // stays alive for any batch still holding its shared_ptr.
    slot.head = std::make_shared<const nn::Mlp>(snapshot.model->head());
    slot.version = snapshot.version;
    return slot.head;
  }
  // A batch that pinned an older version than the slot raced a swap:
  // score it on its snapshot's own head rather than rolling the slot
  // backwards (const inference forwards are thread-safe).
  return {snapshot.model, &snapshot.model->head()};
}

EngineCounters InferenceEngine::counters() const {
  EngineCounters counters;
  counters.requests = requests_.load(std::memory_order_relaxed);
  counters.batches = batches_.load(std::memory_order_relaxed);
  counters.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  counters.consensus_short_circuits =
      consensus_short_circuits_.load(std::memory_order_relaxed);
  counters.head_evaluations =
      head_evaluations_.load(std::memory_order_relaxed);
  return counters;
}

void InferenceEngine::dispatch_loop() {
  // The dispatcher scores batches itself: kernels run serially here, as
  // on a pool worker, instead of fanning one small batch out to the pool.
  const ThreadPool::SerialScope serial;
  for (;;) {
    std::vector<Request> batch = batcher_.next_batch();
    if (batch.empty()) return;  // closed and drained
    // A full batch still queued behind this one is backlog: let one more
    // helper drain it on the pool while this thread scores.
    if (max_helpers_ > 0 && batcher_.claim_helper(max_helpers_)) {
      try {
        // The future is intentionally dropped: results and failures
        // reach callers through the per-request promises.
        (void)pool_.submit([this]() { drain_backlog(); });
      } catch (...) {
        batcher_.release_helper();  // the pool is stopping; score inline
      }
    }
    try {
      process_batch(std::move(batch));
    } catch (...) {
      // Only a failure before scoring began (an allocation) escapes
      // process_batch; unwinding broke the batch's promises, which is how
      // its callers learn of it. The dispatcher lives on for the next.
    }
  }
}

void InferenceEngine::drain_backlog() {
  for (;;) {
    std::vector<Request> batch = batcher_.next_full_batch();
    // Retired under the queue lock: shutdown() may destroy this engine
    // from here on, so touch nothing after.
    if (batch.empty()) return;
    process_batch(std::move(batch));
  }
}

void InferenceEngine::process_batch(std::vector<Request> batch) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics& metrics = EngineMetrics::get();
  // Deadline propagation: requests that overstayed their deadline in the
  // queue are failed here, before any scoring work is spent on them. A
  // backlogged engine thus spends its cycles only on answers someone is
  // still waiting for.
  if (config_.deadline.count() > 0) {
    const Clock::time_point cutoff = Clock::now() - config_.deadline;
    std::vector<Request> live;
    live.reserve(batch.size());
    for (Request& request : batch) {
      if (request.enqueued < cutoff) {
        metrics.deadline_drops.inc();
        request.promise.set_exception(std::make_exception_ptr(
            Error("request deadline exceeded before scoring")));
      } else {
        live.push_back(std::move(request));
      }
    }
    batch = std::move(live);
    if (batch.empty()) return;
  }
  const std::size_t n = batch.size();
  metrics.batches.inc();
  metrics.batch_size.observe(static_cast<double>(n));
  // Tracing: one serve.batch span if any request in the batch was picked
  // by the edge sampler; sampled requests additionally emit their queue
  // wait (enqueue -> batch formation) and end-to-end serve.request spans.
  obs::Tracer& tracer = obs::Tracer::instance();
  bool any_traced = false;
  for (const Request& request : batch) any_traced |= request.traced;
  const obs::TraceSpan batch_span(
      "serve.batch", any_traced,
      any_traced ? "\"batch_size\":" + std::to_string(n) : std::string());
  if (any_traced) {
    const double batch_start_us = tracer.now_us();
    for (const Request& request : batch) {
      if (!request.traced) continue;
      const double enqueued_us = tracer.to_us(request.enqueued);
      tracer.record("serve.queue", enqueued_us, batch_start_us - enqueued_us,
                    "\"uid\":" + std::to_string(request.record.uid));
    }
  }
  // Reply vectors are sized here, outside the memo lock: hits unpack
  // into them, misses overwrite them with their fused rows.
  std::vector<Prediction> results(n);
  for (Prediction& prediction : results) prediction.scores.resize(num_classes_);
  std::size_t delivered = 0;
  // Epoch pin: this batch scores — and is memoized — entirely on one
  // model snapshot, no matter how many swaps land while it runs. The
  // shared_ptr hold keeps the pinned version fully alive until the last
  // in-flight batch on it completes.
  const std::shared_ptr<const ModelSnapshot> pinned = registry_.current();
  try {
    // Chaos seam: an injected error here fails the whole batch through
    // the catch-all below (the all-or-error contract under test); an
    // injected delay models a slow scoring pass.
    fail::maybe_fail("serve.engine.score");

    // 1. Serve repeats from the result memo, one lock for the batch.
    // Lookups are keyed by (model version, uid): entries written by
    // other versions miss.
    std::vector<std::size_t> misses;
    misses.reserve(n);
    memo_.lookup(batch, pinned->version, results, misses);
    cache_hits_.fetch_add(n - misses.size(), std::memory_order_relaxed);
    metrics.cache_hits.inc(n - misses.size());
    metrics.cache_misses.inc(misses.size());

    // 2. Body scores for the misses as one record span through the shared
    // gather (every body model's score_batch override over the whole
    // sub-batch, written in the ScoreCache gather layout). score_batch
    // takes a contiguous span, so the miss records are copied out of
    // their Request wrappers once per batch — amortized across all body
    // models and small next to the scoring itself.
    if (!misses.empty()) {
      std::vector<data::Record> miss_records;
      miss_records.reserve(misses.size());
      for (const std::size_t i : misses) {
        miss_records.push_back(batch[i].record);
      }
      const core::FusedModel& model = *pinned->model;
      const std::size_t body_size = model.body().size();
      const tensor::Matrix gathered = [&]() {
        const obs::TraceSpan span(
            "serve.score_batch", any_traced,
            any_traced ? "\"rows\":" + std::to_string(misses.size())
                       : std::string());
        return core::gather_body_scores(model.body(), num_classes_,
                                        miss_records);
      }();

      // 3. Row-wise consensus gate + one batched head forward over the
      // disagreement rows, on this worker's head clone (re-cloned lazily
      // at epoch advance). Bit-identical to FusedModel::scores by
      // construction: fuse_gathered_batch rows match core::fuse_gathered,
      // and worker heads are value copies of the pinned version's head.
      const std::shared_ptr<const nn::Mlp> head =
          head_for(ThreadPool::current_worker(), *pinned);
      core::FusedBatch fused = [&]() {
        const obs::TraceSpan span("serve.fuse", any_traced);
        return core::fuse_gathered_batch(gathered, *head, body_size,
                                         num_classes_,
                                         model.head_only_on_disagreement());
      }();
      const std::size_t consensus_rows = misses.size() - fused.head_rows;
      consensus_short_circuits_.fetch_add(consensus_rows,
                                          std::memory_order_relaxed);
      head_evaluations_.fetch_add(fused.head_rows,
                                  std::memory_order_relaxed);
      metrics.consensus.inc(consensus_rows);
      metrics.head_evaluations.inc(fused.head_rows);
      // Canonicalize-on-miss: each reply carries the dequantized form of
      // what the memo stores (a no-op when the memo mode is off), so a
      // later memo hit for its uid replies bit-identically; predicted is
      // the argmax of those canonical scores, for hit and miss alike.
      ScoreRows packed(memo_.mode(), num_classes_, misses.size());
      for (std::size_t k = 0; k < misses.size(); ++k) {
        Prediction& prediction = results[misses[k]];
        const auto row = fused.scores.row(k);
        prediction.scores.assign(row.begin(), row.end());
        packed.pack(k, prediction.scores);
        prediction.predicted = tensor::argmax(prediction.scores);
        prediction.consensus = fused.consensus[k];
        prediction.model_version = pinned->version;
      }
      memo_.store(batch, misses, results, packed, pinned->version);
    }

    // 4. Deliver results and account latency.
    const Clock::time_point now = Clock::now();
    const obs::TraceSpan reply_span("serve.reply", any_traced);
    const double now_us = any_traced ? tracer.to_us(now) : 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double latency_us =
          std::chrono::duration<double, std::micro>(now - batch[i].enqueued)
              .count();
      latency_.record(latency_us);
      metrics.latency_us.observe(latency_us);
      if (batch[i].traced) {
        const double enqueued_us = tracer.to_us(batch[i].enqueued);
        tracer.record("serve.request", enqueued_us, now_us - enqueued_us,
                      "\"uid\":" + std::to_string(batch[i].record.uid) +
                          ",\"cached\":" + (results[i].cached ? "true"
                                                             : "false"));
      }
      batch[i].promise.set_value(std::move(results[i]));
      ++delivered;
    }
  } catch (...) {
    for (std::size_t i = delivered; i < n; ++i) {
      batch[i].promise.set_exception(std::current_exception());
    }
  }
}

std::size_t InferenceEngine::cache_entries() const { return memo_.entries(); }

bool InferenceEngine::cache_contains(std::uint64_t uid) const {
  return memo_.contains(uid);
}

std::size_t InferenceEngine::memo_bytes() const { return memo_.bytes(); }

// ---------------------------------------------------------------------
// ScoreRows
// ---------------------------------------------------------------------

InferenceEngine::ScoreRows::ScoreRows(tensor::QuantMode mode,
                                      std::size_t cols, std::size_t rows)
    : mode_(mode), cols_(cols) {
  switch (mode_) {
    case tensor::QuantMode::Off:
      f64_ = uninitialized_array<double>(rows * cols);
      break;
    case tensor::QuantMode::Bf16:
      bf16_ = uninitialized_array<std::uint16_t>(rows * cols);
      break;
    case tensor::QuantMode::Int8:
      i8_ = uninitialized_array<std::int8_t>(rows * cols);
      scale_ = uninitialized_array<double>(rows);
      break;
  }
}

void InferenceEngine::ScoreRows::pack(std::size_t row,
                                      std::span<double> scores) {
  switch (mode_) {
    case tensor::QuantMode::Off:
      std::copy(scores.begin(), scores.end(), f64_.get() + row * cols_);
      break;
    case tensor::QuantMode::Bf16: {
      std::uint16_t* q = bf16_.get() + row * cols_;
      for (std::size_t c = 0; c < cols_; ++c) {
        q[c] = tensor::bf16_from_double(scores[c]);
        scores[c] = tensor::bf16_to_double(q[c]);
      }
      break;
    }
    case tensor::QuantMode::Int8: {
      // Quantize exactly once from the float scores: the canonical reply
      // is q * scale, the same product a memo hit recomputes.
      const double scale = tensor::i8_scale(scores);
      scale_[row] = scale;
      std::int8_t* q = i8_.get() + row * cols_;
      for (std::size_t c = 0; c < cols_; ++c) {
        q[c] = tensor::i8_from_double(scores[c], scale);
        scores[c] = tensor::i8_to_double(q[c], scale);
      }
      break;
    }
  }
}

void InferenceEngine::ScoreRows::unpack(std::size_t row,
                                        std::span<double> out) const {
  switch (mode_) {
    case tensor::QuantMode::Off: {
      const double* v = f64_.get() + row * cols_;
      std::copy(v, v + cols_, out.begin());
      break;
    }
    case tensor::QuantMode::Bf16: {
      const std::uint16_t* q = bf16_.get() + row * cols_;
      for (std::size_t c = 0; c < cols_; ++c) {
        out[c] = tensor::bf16_to_double(q[c]);
      }
      break;
    }
    case tensor::QuantMode::Int8: {
      const std::int8_t* q = i8_.get() + row * cols_;
      for (std::size_t c = 0; c < cols_; ++c) {
        out[c] = tensor::i8_to_double(q[c], scale_[row]);
      }
      break;
    }
  }
}

void InferenceEngine::ScoreRows::copy_row(std::size_t dst,
                                          const ScoreRows& src,
                                          std::size_t row) {
  switch (mode_) {
    case tensor::QuantMode::Off:
      std::copy_n(src.f64_.get() + row * cols_, cols_,
                  f64_.get() + dst * cols_);
      break;
    case tensor::QuantMode::Bf16:
      std::copy_n(src.bf16_.get() + row * cols_, cols_,
                  bf16_.get() + dst * cols_);
      break;
    case tensor::QuantMode::Int8:
      std::copy_n(src.i8_.get() + row * cols_, cols_,
                  i8_.get() + dst * cols_);
      scale_[dst] = src.scale_[row];
      break;
  }
}

std::size_t InferenceEngine::ScoreRows::row_bytes() const {
  switch (mode_) {
    case tensor::QuantMode::Off:
      return cols_ * sizeof(double);
    case tensor::QuantMode::Bf16:
      return cols_ * sizeof(std::uint16_t);
    case tensor::QuantMode::Int8:
      return cols_ * sizeof(std::int8_t) + sizeof(double);
  }
  return 0;
}

// ---------------------------------------------------------------------
// Memo
// ---------------------------------------------------------------------

InferenceEngine::Memo::Memo(std::size_t capacity, std::size_t num_classes,
                            tensor::QuantMode mode)
    : capacity_(capacity),
      slots_(uninitialized_array<Slot>(capacity)),
      scores_(mode, num_classes, capacity) {
  MUFFIN_REQUIRE(capacity < std::numeric_limits<std::uint32_t>::max() / 2,
                 "result_cache_capacity too large for the memo index");
  if (capacity_ == 0) return;
  index_.assign(std::bit_ceil(2 * capacity_), 0);
  index_mask_ = index_.size() - 1;
}

InferenceEngine::Memo::~Memo() {
  memo_bytes_gauge().sub(
      static_cast<std::int64_t>(size_ * scores_.row_bytes()));
}

std::size_t InferenceEngine::Memo::home(std::uint64_t uid) const {
  return static_cast<std::size_t>(mix64(uid)) & index_mask_;
}

std::size_t InferenceEngine::Memo::find_locked(std::uint64_t uid) const {
  for (std::size_t i = home(uid);; i = (i + 1) & index_mask_) {
    const std::uint32_t entry = index_[i];
    if (entry == 0) return npos;
    if (slots_[entry - 1].uid == uid) return entry - 1;
  }
}

void InferenceEngine::Memo::index_insert_locked(std::uint64_t uid,
                                                std::size_t slot) {
  std::size_t i = home(uid);
  while (index_[i] != 0) i = (i + 1) & index_mask_;
  index_[i] = static_cast<std::uint32_t>(slot + 1);
}

void InferenceEngine::Memo::index_erase_locked(std::uint64_t uid) {
  std::size_t hole = home(uid);
  while (slots_[index_[hole] - 1].uid != uid) {
    hole = (hole + 1) & index_mask_;
  }
  // Backward-shift delete: walk the probe run after the hole and move
  // back every entry whose home does not lie cyclically in (hole, j] —
  // such an entry probed past the hole, so it must not be cut off from
  // its home by it. Leaves no tombstones.
  for (std::size_t j = (hole + 1) & index_mask_; index_[j] != 0;
       j = (j + 1) & index_mask_) {
    const std::size_t k = home(slots_[index_[j] - 1].uid);
    const bool stays = hole <= j ? (hole < k && k <= j) : (hole < k || k <= j);
    if (stays) continue;
    index_[hole] = index_[j];
    hole = j;
  }
  index_[hole] = 0;
}

std::size_t InferenceEngine::Memo::claim_slot_locked() {
  if (size_ < capacity_) {
    memo_bytes_gauge().add(static_cast<std::int64_t>(scores_.row_bytes()));
    return size_++;
  }
  // Second chance: a referenced slot loses its bit and is skipped; the
  // first unreferenced one is the victim. Terminates within one sweep.
  for (;;) {
    const std::size_t slot = hand_;
    hand_ = (hand_ + 1) % capacity_;
    if (slots_[slot].referenced) {
      slots_[slot].referenced = false;
      continue;
    }
    index_erase_locked(slots_[slot].uid);
    return slot;
  }
}

void InferenceEngine::Memo::lookup(const std::vector<Request>& batch,
                                   std::uint64_t version,
                                   std::vector<Prediction>& results,
                                   std::vector<std::size_t>& misses) {
  if (capacity_ == 0) {
    for (std::size_t i = 0; i < batch.size(); ++i) misses.push_back(i);
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t slot = find_locked(batch[i].record.uid);
    // Version key: an entry scored by a different model version is a
    // miss (and earns no reference bit); the rescore replaces it.
    if (slot == npos || slots_[slot].version != version) {
      misses.push_back(i);
      continue;
    }
    Slot& entry = slots_[slot];
    entry.referenced = true;
    Prediction& out = results[i];
    out.predicted = entry.predicted;
    out.consensus = entry.consensus;
    out.cached = true;
    out.model_version = entry.version;
    scores_.unpack(slot, out.scores);
  }
}

void InferenceEngine::Memo::store(const std::vector<Request>& batch,
                                  std::span<const std::size_t> misses,
                                  const std::vector<Prediction>& results,
                                  const ScoreRows& packed,
                                  std::uint64_t version) {
  if (capacity_ == 0) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t k = 0; k < misses.size(); ++k) {
    const std::size_t i = misses[k];
    const std::uint64_t uid = batch[i].record.uid;
    std::size_t slot = find_locked(uid);
    if (slot != npos && slots_[slot].version >= version) {
      // Another batch raced us to the same record on the same (or a
      // newer) version; keep the existing entry.
      continue;
    }
    if (slot == npos) {
      slot = claim_slot_locked();
      slots_[slot].uid = uid;
      slots_[slot].referenced = false;
      index_insert_locked(uid, slot);
    }
    // else: a stale entry from an older version, replaced in place.
    Slot& entry = slots_[slot];
    entry.version = version;
    entry.predicted = static_cast<std::uint32_t>(results[i].predicted);
    entry.consensus = results[i].consensus;
    scores_.copy_row(slot, packed, k);
  }
}

std::size_t InferenceEngine::Memo::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

bool InferenceEngine::Memo::contains(std::uint64_t uid) const {
  if (capacity_ == 0) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  return find_locked(uid) != npos;
}

std::size_t InferenceEngine::Memo::bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return size_ * scores_.row_bytes();
}

std::uint64_t reload_head_artifact(InferenceEngine& engine,
                                   const std::string& path) {
  const data::Artifact artifact = data::Artifact::map_file(path);
  const std::shared_ptr<const core::FusedModel> current = engine.model();
  // Same body, same fusing gate, new head: the artifact's keepalive
  // travels inside the mapped Mlp, so the mapping outlives this scope.
  auto next = std::make_shared<core::FusedModel>(
      current->name(), current->body(),
      nn::Mlp::map_artifact(artifact, "head"),
      current->head_only_on_disagreement());
  return engine.swap_model(std::move(next), artifact.model_version());
}

}  // namespace muffin::serve

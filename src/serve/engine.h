// Batched multi-threaded inference engine for fused Muffin models.
//
// The per-record path (`models::Model::scores`) is fine for offline
// evaluation but wrong for serving: every request pays full body-model
// evaluation, a locked head forward, and per-call allocations. The engine
// turns the same FusedModel into a serving runtime:
//
//  * **Work-conserving dispatch.** Requests queue in a Batcher; the
//    engine's dispatcher thread takes whatever is queued (up to
//    max_batch) the moment it is free and scores it itself, so requests
//    that arrive meanwhile form the next batch and batch size grows with
//    load by itself. No partial batch waits for company unless
//    EngineConfig::max_delay asks for a deadline flush. The dispatcher
//    runs kernels serially (ThreadPool::SerialScope), as a pool worker
//    would.
//  * **Pool for backlog only.** When a full max_batch is still queued
//    after a pop, the dispatcher starts one helper job on the
//    process-wide pool (common::global_pool(), sized by MUFFIN_THREADS
//    or the hardware), up to min(pool size, workers) - 1 helpers. A
//    helper drains full batches only and retires, under the queue lock,
//    as soon as less than a full batch is queued; partial batches stay
//    with the dispatcher. Small batches thus never pay a pool hop, and a
//    backlog still scores on min(pool size, workers) threads.
//  * **Matrix-in/Matrix-out batch scoring.** Each batch's memo misses are
//    scored as one record span: every body model scores the whole span via
//    its Model::score_batch override (batched GEMM for network-backed
//    models, scratch reuse for calibrated ones) into the row-major gather
//    matrix, and the fused result comes from one core::fuse_gathered_batch
//    call — no per-record loops anywhere on the hot path.
//  * **Consensus short-circuit, row-wise.** §3.2: rows whose body models
//    agree resolve to the consensus mean directly; the muffin head runs a
//    single batched forward over the disagreement sub-batch only — on
//    well-calibrated pools that removes the head from the majority of
//    requests and shrinks the one GEMM that remains.
//  * **Per-worker head clones.** Each scoring thread scores its batches
//    on a copy of the muffin head (min(pool size, workers) clones, mapped
//    by pool worker index). The const inference forwards make the shared
//    head safe to use concurrently, but clones keep each thread's head
//    weights hot in its own cache hierarchy.
//  * **Result memoization.** Model scores are deterministic per record
//    (the Model contract), so completed predictions are kept in a flat
//    memo allocated once at construction: result_cache_capacity slots
//    keyed by record uid and stamped with the model version, one score
//    plane in the memo quant mode, an open-addressing uid index, and
//    CLOCK (second-chance) eviction. Repeated requests — the common case
//    in steady-state serving traffic — are answered from it without
//    touching the body models, under one lock acquisition per batch.
//    Exactness requires uids to uniquely identify record content, which
//    the data generators guarantee; the version stamp guarantees a
//    hot-swap can never serve a pre-swap score post-swap.
//  * **Versioned hot-swap.** The engine owns its model through a
//    ModelRegistry (serve/model_registry.h): swap_model() publishes a
//    new version as an O(1) pointer swap that never pauses traffic.
//    Each batch pins one snapshot for its whole lifetime (epoch/RCU via
//    shared_ptr), so in-flight batches finish — bit-identically — on
//    the version they started with, while the next batch picks up the
//    new one. Head clones re-clone lazily the first time a scoring
//    thread sees a newer epoch.
//
// Engine outputs are bit-identical to FusedModel::scores on every record
// within one model version: the batch path replicates its arithmetic
// (same gather order, same consensus mean, same head weights, same
// normalization).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/fused.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/model_registry.h"
#include "tensor/quant.h"

namespace muffin::serve {

struct EngineConfig {
  /// Scoring concurrency budget (validated > 0): batches score on the
  /// dispatcher thread plus up to min(workers, pool size) - 1 backlog
  /// helpers on the shared process-wide pool (common::global_pool(),
  /// sized by MUFFIN_THREADS). Also the per-engine head-clone count.
  std::size_t workers = 4;
  std::size_t max_batch = 32;  ///< largest batch the dispatcher takes
  /// Deadline flush: how long a partial batch may wait for company.
  /// 0 (the default) is work-conserving — a partial batch is scored the
  /// moment the dispatcher is free; > 0 holds it until it fills or its
  /// oldest request has waited this long.
  std::chrono::microseconds max_delay{0};
  /// Max memoized predictions; 0 disables the result cache.
  std::size_t result_cache_capacity = 1 << 16;
  /// Admission bound, forwarded to the batcher: submits throw
  /// muffin::Overloaded once this many requests are queued (0 =
  /// unbounded). The rejection happens at enqueue — overload is reported
  /// in microseconds instead of the request timing out under a backlog.
  std::size_t max_queue = 0;
  /// Per-request serving deadline (0 = none): a request that has already
  /// waited this long when its batch is picked up is failed with
  /// muffin::Error before any scoring work is spent on it.
  std::chrono::milliseconds deadline{0};
  /// Version the construction-time model is registered under (>= 1).
  /// Servers loading a stamped artifact pass its model_version through.
  std::uint64_t initial_model_version = 1;
};

/// One served prediction.
struct Prediction {
  std::size_t predicted = 0;   ///< argmax class
  tensor::Vector scores;       ///< full score vector (sums to 1)
  bool consensus = false;      ///< body agreed; head was skipped
  bool cached = false;         ///< answered from the result memo
  std::uint64_t model_version = 0;  ///< version that scored this reply
};

/// Monotonic counters describing how the engine served its traffic.
struct EngineCounters {
  std::size_t requests = 0;
  std::size_t batches = 0;
  std::size_t cache_hits = 0;
  std::size_t consensus_short_circuits = 0;
  std::size_t head_evaluations = 0;

  EngineCounters& operator+=(const EngineCounters& other) {
    requests += other.requests;
    batches += other.batches;
    cache_hits += other.cache_hits;
    consensus_short_circuits += other.consensus_short_circuits;
    head_evaluations += other.head_evaluations;
    return *this;
  }
};

/// The serving tier's all-or-error rule, in one place: wait for every
/// future and return all predictions; if any failed, still await the
/// rest (so nothing is left in flight) and rethrow the first error.
/// Shared by engine/router predict_batch and the RPC server's writer.
[[nodiscard]] std::vector<Prediction> collect_all_or_error(
    std::vector<std::future<Prediction>> futures);

class InferenceEngine {
 public:
  explicit InferenceEngine(std::shared_ptr<const core::FusedModel> model,
                           EngineConfig config = {});
  ~InferenceEngine();

  InferenceEngine(const InferenceEngine&) = delete;
  InferenceEngine& operator=(const InferenceEngine&) = delete;

  /// Enqueue one record; the future completes when its batch is scored.
  [[nodiscard]] std::future<Prediction> submit(const data::Record& record);

  /// Enqueue a record span atomically (one lock, one wakeup — either
  /// every record enters the engine or, if it is stopped, none do) and
  /// return one future per record, in input order. This is the hot path
  /// for callers that already hold a batch: the RPC server feeds each
  /// decoded request frame through it, and predict_batch builds on it.
  [[nodiscard]] std::vector<std::future<Prediction>> submit_batch(
      std::span<const data::Record> records);
  /// Move overload for callers whose records are already materialized
  /// and disposable (the RPC server's decoded frames): records move into
  /// the engine instead of being copied.
  [[nodiscard]] std::vector<std::future<Prediction>> submit_batch(
      std::vector<data::Record>&& records);

  /// Synchronous single-record convenience: submit + wait.
  [[nodiscard]] Prediction predict(const data::Record& record);

  /// Submit every record, wait for all, return predictions in input order.
  [[nodiscard]] std::vector<Prediction> predict_batch(
      std::span<const data::Record> records);

  /// Drain in-flight requests and stop the runtime (idempotent). New
  /// submissions are rejected afterwards.
  void shutdown();

  /// Atomically publish a new model under live load and return the
  /// installed version. `version == 0` auto-assigns current + 1; an
  /// explicit version must advance monotonically (rollback guard). The
  /// swap is an O(1) registry publish — no pause, no flush: in-flight
  /// batches finish on the version they pinned, later batches score on
  /// the new one, and the version-keyed memo makes stale replies
  /// impossible. The new model must match the serving shape (class
  /// count) of the current one; the body pool may change freely.
  std::uint64_t swap_model(std::shared_ptr<const core::FusedModel> model,
                           std::uint64_t version = 0);

  /// Pin the live model (epoch semantics — the returned pointer keeps
  /// that version alive regardless of later swaps).
  [[nodiscard]] std::shared_ptr<const core::FusedModel> model() const {
    return registry_.current()->model;
  }
  /// The live model version.
  [[nodiscard]] std::uint64_t model_version() const {
    return registry_.version();
  }
  /// Swaps performed on this engine since construction.
  [[nodiscard]] std::size_t swaps() const {
    return swaps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const EngineConfig& config() const { return config_; }
  /// Per-request latency in microseconds, enqueue to reply.
  [[nodiscard]] const obs::Histogram& latency() const { return latency_; }
  /// Seconds since construction: the span latency().count() was served in.
  [[nodiscard]] double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - started_).count();
  }
  [[nodiscard]] EngineCounters counters() const;

  // Shard-local memo introspection (used by ShardRouter and the sharding
  // tests to verify uid affinity without perturbing eviction order).
  /// Number of uids currently memoized. 0 whenever the cache is disabled.
  [[nodiscard]] std::size_t cache_entries() const;
  /// Whether `uid` is currently memoized; never sets a CLOCK reference
  /// bit, so probing cannot save an entry from eviction.
  [[nodiscard]] bool cache_contains(std::uint64_t uid) const;
  /// Score-payload bytes currently held by the memo (also reported on the
  /// "serve.result_memo_bytes" gauge).
  [[nodiscard]] std::size_t memo_bytes() const;
  /// The quant mode memoized replies are stored (and replied) in — fixed
  /// at construction from tensor::active_quant_mode().
  [[nodiscard]] tensor::QuantMode memo_quant_mode() const {
    return memo_.mode();
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    data::Record record;
    Clock::time_point enqueued;
    std::promise<Prediction> promise;
    /// Picked by the edge sampler (obs::Tracer::sample) at submit time;
    /// traced requests emit serve.queue / serve.request span events.
    bool traced = false;
  };

  /// Score rows stored in one quant mode — f64, bf16, or int8 with one
  /// scale per row; exactly one representation is populated. pack()
  /// quantizes a reply's scores exactly once and overwrites them with
  /// the dequantized values, which unpack() reproduces bit for bit: a
  /// miss replies with what the memo stores, so hit and miss replies for
  /// one uid are bit-identical, with nothing ever re-quantized.
  class ScoreRows {
   public:
    ScoreRows(tensor::QuantMode mode, std::size_t cols, std::size_t rows);
    void pack(std::size_t row, std::span<double> scores);
    void unpack(std::size_t row, std::span<double> out) const;
    void copy_row(std::size_t dst, const ScoreRows& src, std::size_t row);
    /// Score-payload bytes of one row (the int8 scale included).
    [[nodiscard]] std::size_t row_bytes() const;
    [[nodiscard]] tensor::QuantMode mode() const { return mode_; }

   private:
    tensor::QuantMode mode_;
    std::size_t cols_;
    // Left uninitialized: a row is always packed or copied before it is
    // read, so pages are touched only as rows fill.
    std::unique_ptr<double[]> f64_;
    std::unique_ptr<std::uint16_t[]> bf16_;
    std::unique_ptr<std::int8_t[]> i8_;
    std::unique_ptr<double[]> scale_;
  };

  /// The result memo, allocated once at construction (capacity 0
  /// allocates nothing and disables it). `capacity` slots hold {uid,
  /// version, predicted, consensus, referenced bit} next to one score
  /// plane of capacity x num_classes rows; an open-addressing index
  /// (power-of-two size >= 2 x capacity, linear probing, backward-shift
  /// delete) maps uids to slots. Slots fill in order, then CLOCK evicts:
  /// the hand clears referenced bits until it finds an unreferenced
  /// slot. New entries start unreferenced and a hit sets the bit, so an
  /// entry survives one sweep per hit. A lookup under a different model
  /// version misses without setting the bit, and the rescore replaces
  /// the stale entry in place — a hot-swap can never leak a pre-swap
  /// score. One mutex, taken once per batch for lookups and once per
  /// batch for stores.
  class Memo {
   public:
    Memo(std::size_t capacity, std::size_t num_classes,
         tensor::QuantMode mode);
    /// Returns the occupied slots' bytes to serve.result_memo_bytes.
    ~Memo();
    Memo(const Memo&) = delete;
    Memo& operator=(const Memo&) = delete;

    /// Answer the memoized rows of `batch` scored under `version`: each
    /// hit's reply is written into `results` (whose score vectors are
    /// presized to num_classes); every other row index is appended to
    /// `misses`, ascending.
    void lookup(const std::vector<Request>& batch, std::uint64_t version,
                std::vector<Prediction>& results,
                std::vector<std::size_t>& misses);
    /// Memoize the scored misses under `version`: row k of `packed`
    /// holds the canonical scores of batch row misses[k]. An entry of
    /// the same or a newer version (a racing batch) is kept.
    void store(const std::vector<Request>& batch,
               std::span<const std::size_t> misses,
               const std::vector<Prediction>& results,
               const ScoreRows& packed, std::uint64_t version);

    [[nodiscard]] std::size_t entries() const;
    [[nodiscard]] bool contains(std::uint64_t uid) const;
    /// Score payload of the occupied slots.
    [[nodiscard]] std::size_t bytes() const;
    [[nodiscard]] tensor::QuantMode mode() const { return scores_.mode(); }

   private:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /// Trivial, so the slot array starts uninitialized: slots [0, size_)
    /// are written by store() before the index can reach them.
    struct Slot {
      std::uint64_t uid;
      std::uint64_t version;  ///< model version that scored this
      std::uint32_t predicted;
      bool consensus;
      bool referenced;  ///< CLOCK bit: set by a hit
    };

    [[nodiscard]] std::size_t home(std::uint64_t uid) const;
    /// The slot memoizing `uid`, or npos.
    [[nodiscard]] std::size_t find_locked(std::uint64_t uid) const;
    void index_insert_locked(std::uint64_t uid, std::size_t slot);
    void index_erase_locked(std::uint64_t uid);
    /// A slot for a new uid: the next never-used one while the memo
    /// fills, else the CLOCK victim (already dropped from the index).
    [[nodiscard]] std::size_t claim_slot_locked();

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::unique_ptr<Slot[]> slots_;
    ScoreRows scores_;
    std::vector<std::uint32_t> index_;  ///< slot + 1; 0 marks empty
    std::size_t index_mask_ = 0;
    std::size_t size_ = 0;  ///< occupied slots: [0, size_)
    std::size_t hand_ = 0;  ///< CLOCK hand
  };

  /// One lazily re-cloned head: pool workers map onto slots by modulo
  /// (the dispatcher thread uses slot 0), and each slot tracks which
  /// model version its clone was taken from. A batch that pins a newer
  /// version than the slot holds refreshes the clone (publish-then-use
  /// under the slot mutex is a pointer swap; the old clone stays alive
  /// for any batch still holding it); a batch pinned to an *older*
  /// version — one that raced a swap — scores on its snapshot's own head
  /// instead of thrashing the slot backwards.
  struct HeadSlot {
    std::mutex mutex;
    std::uint64_t version = 0;
    std::shared_ptr<const nn::Mlp> head;
  };

  void dispatch_loop();
  /// A backlog helper's pool job: score full batches until less than one
  /// is queued (Batcher::next_full_batch retires it).
  void drain_backlog();
  void process_batch(std::vector<Request> batch);

  /// The head to score `snapshot`'s disagreement rows with on `worker`:
  /// the slot clone when it is (or can be refreshed to) the snapshot's
  /// version, the snapshot's own head otherwise.
  [[nodiscard]] std::shared_ptr<const nn::Mlp> head_for(
      std::size_t worker, const ModelSnapshot& snapshot);

  ModelRegistry registry_;
  EngineConfig config_;
  std::size_t num_classes_;

  ThreadPool& pool_;  ///< the shared process-wide pool (never owned)
  Batcher<Request> batcher_;
  /// One slot per budgeted scoring thread (min(pool size,
  /// config.workers)); unique_ptr because slots hold a mutex and the
  /// vector is sized once.
  std::vector<std::unique_ptr<HeadSlot>> head_slots_;
  /// Backlog helpers allowed next to the dispatcher thread.
  std::size_t max_helpers_ = 0;
  Memo memo_;

  obs::Histogram latency_;
  const Clock::time_point started_ = Clock::now();
  std::atomic<std::size_t> swaps_{0};
  std::atomic<std::size_t> requests_{0};
  std::atomic<std::size_t> batches_{0};
  std::atomic<std::size_t> cache_hits_{0};
  std::atomic<std::size_t> consensus_short_circuits_{0};
  std::atomic<std::size_t> head_evaluations_{0};

  std::atomic<bool> stopped_{false};
  std::thread dispatcher_;
};

/// Hot-swap from a MUFA artifact: map the head artifact at `path`
/// (tensor prefix "head" — the layout `muffin_cli serve --artifact`
/// writes), rebuild the fused model around the engine's current body
/// and fusing mode, and publish it through swap_model. A stamped
/// artifact installs under its model_version (which must advance the
/// registry); an unstamped one (a v1 container, or version 0) auto-
/// assigns the next version. Returns the installed version. This is the
/// one reload path shared by the Reload RPC, LocalReplica::reload and
/// the CLI's SIGHUP handler.
[[nodiscard]] std::uint64_t reload_head_artifact(InferenceEngine& engine,
                                                 const std::string& path);

}  // namespace muffin::serve

// The benchmark's workloads and the layer probes they share.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/search.h"
#include "data/dataset.h"
#include "loadgen.h"
#include "spans.h"

namespace perfbench {

// ------------------------------------------------------------- workloads

/// The four Table 1 Muffin searches on the synthetic ISIC2019 scenario.
void run_search(const Options& options, Report& report, Tracer& tracer);
/// Open-loop serving: in-process engine under Zipf traffic (`rpc` false)
/// or a router over two unix-socket shard servers under uniform traffic.
void run_serve(const Options& options, bool rpc, Report& report,
               Tracer& tracer);

// -------------------------------------------------------- shared inputs

/// Independent seed for one purpose, derived from the run's --seed.
std::uint64_t derive_seed(std::uint64_t seed, const char* purpose);

/// The ISIC2019 scenario (25,331 records) and its 64% training split, as
/// the paper benches build it.
struct Scenario {
  muffin::data::Dataset full;
  muffin::data::Dataset train;
};
Scenario make_scenario(std::uint64_t seed);

/// The bench_table1 search configuration for one forced base model.
muffin::rl::SearchSpace table1_space(const muffin::models::ModelPool& pool,
                                     const std::string& base);
muffin::core::MuffinSearchConfig table1_config(const std::string& base,
                                               std::size_t episodes);

// ------------------------------------------------------- layer probes

/// Replays a finished search layer by layer with spans — controller
/// sample, head training, fused predictions, fairness evaluation, reward,
/// controller update — and checks that every episode's reward and tokens
/// match the search's bit for bit. Returns the episodes answered from the
/// search's structure memo.
std::size_t replay_search(const muffin::core::MuffinSearch& search,
                          const muffin::rl::SearchSpace& space,
                          const muffin::core::MuffinSearchConfig& config,
                          const muffin::data::Dataset& train,
                          const muffin::data::Dataset& eval,
                          const muffin::core::SearchResult& result,
                          Tracer& tracer);

/// Times the serving-path layers one call at a time on 32-record batches
/// of `records`: body score_batch, gather + fuse, head forward, GEMM at
/// the head's training and serving shapes, and the RPC codec.
void probe_layers(const muffin::core::FusedModel& fused,
                  std::span<const muffin::data::Record> records,
                  Tracer& tracer, Report& report);

/// The obs registry counters the per-layer metrics difference, with the
/// time they were read.
struct CounterSnapshot {
  std::uint64_t engine_requests = 0;
  std::uint64_t engine_batches = 0;
  std::uint64_t pool_idle_us = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes = 0;
  Clock::time_point at = Clock::now();
  static CounterSnapshot take();
};

/// Per-layer serving metrics of open-loop phases: submit time, memo and
/// consensus shares, batch fill, failures, RPC framing and generator
/// lateness. `before` was taken when the phases started.
void serving_layer_metrics(const std::vector<PhaseResult>& phases,
                           const CounterSnapshot& before, bool rpc,
                           Report& report);

/// Pool idle share between two counter snapshots.
double pool_idle_ratio(const CounterSnapshot& before,
                       const CounterSnapshot& after);

/// While alive (and tracing), submits an empty job to the shared pool
/// every 2 ms and records the submit-to-start delay as a span.
class PoolDispatchProbe {
 public:
  explicit PoolDispatchProbe(Tracer& tracer);
  ~PoolDispatchProbe();
  PoolDispatchProbe(const PoolDispatchProbe&) = delete;
  PoolDispatchProbe& operator=(const PoolDispatchProbe&) = delete;

 private:
  Tracer& tracer_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Sets the per-layer metrics derived from span durations.
void span_metrics(const Tracer& tracer, Report& report);

}  // namespace perfbench

// The serving workloads: open-loop traffic against the fused
// ShuffleNet_V2_X1_0 + DenseNet121 model that bench_serve builds.
//
//   serve_zipf      in-process InferenceEngine (default EngineConfig),
//                   Zipf(s = 1) popularity over 4x the memo capacity
//   serve_rpc_cold  ShardRouter -> two RemoteShards over unix sockets ->
//                   two ShardServers in this process, uniform traffic
//                   over 16x the memo capacity
//
// Phases, each accounted for separately (sent / succeeded / failed):
// warm-up until every engine's memo is full and its hit ratio is
// stationary, then the `low` and `high` rates in interleaved blocks, then
// a fixed geometric rate ladder upward from `high` (downward if `high`
// misses). A rung passes when its p99 <= 5 ms, achieved >= 99% of
// offered, nothing failed, the backlog stayed bounded and the generator
// kept up.
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <iostream>
#include <optional>

#include "core/head_trainer.h"
#include "core/proxy.h"
#include "data/generators.h"
#include "models/pool.h"
#include "serve/router.h"
#include "serve/rpc/server.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "workloads.h"

namespace perfbench {

using namespace muffin;

namespace {

struct Rates {
  double low;
  double high;
};
constexpr Rates kZipfRates{50'000.0, 100'000.0};
constexpr Rates kRpcRates{25'000.0, 60'000.0};
/// Ladder rungs: sixteen per doubling of the offered rate, climbed in
/// coarse steps of four, at most four doublings either side of `high`.
constexpr double kRungsPerDoubling = 16.0;
constexpr int kCoarse = 4;
constexpr int kMaxRung = 64;
constexpr double kRungSeconds = 0.5;
constexpr std::size_t kSetups = 3;
constexpr std::size_t kWarmSliceLimit = 24;
constexpr std::size_t kBlocks = 8;
/// Tries per ladder rung, inconclusive ones included.
constexpr std::size_t kMaxTries = 6;

/// The serving stack of one workload; tears down router before servers.
struct Stack {
  std::shared_ptr<const core::FusedModel> fused;
  std::unique_ptr<serve::InferenceEngine> engine;
  std::vector<std::unique_ptr<serve::rpc::ShardServer>> servers;
  std::unique_ptr<serve::ShardRouter> router;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    router.reset();
    servers.clear();
    engine.reset();
  }

  std::future<serve::Prediction> submit(const data::Record& record) {
    return router ? router->submit(record) : engine->submit(record);
  }
  std::vector<serve::Prediction> predict_batch(
      std::span<const data::Record> records) {
    return router ? router->predict_batch(records) : engine->predict_batch(records);
  }
  std::vector<const serve::InferenceEngine*> engines() const {
    if (engine) return {engine.get()};
    std::vector<const serve::InferenceEngine*> out;
    for (const auto& server : servers) out.push_back(&server->engine());
    return out;
  }
  bool memos_full(std::size_t capacity) const {
    for (const serve::InferenceEngine* e : engines()) {
      if (e->cache_entries() < capacity) return false;
    }
    return true;
  }
};

/// Builds the served model the way bench_serve does, then the stack.
std::unique_ptr<Stack> build_stack(const Scenario& scenario, bool rpc,
                                   const std::string& socket_prefix,
                                   Tracer& tracer) {
  const models::ModelPool pool = models::calibrated_isic_pool(scenario.full);
  rl::StructureChoice choice;
  choice.model_indices = {pool.index_of("ShuffleNet_V2_X1_0"),
                          pool.index_of("DenseNet121")};
  choice.hidden_dims = {18, 12};
  choice.activation = nn::Activation::Relu;
  const core::FusingStructure structure =
      core::FusingStructure::from_choice(choice, scenario.full.num_classes());
  std::unique_ptr<core::ScoreCache> cache;
  {
    const Span span(tracer, "core.score_cache_build");
    cache = std::make_unique<core::ScoreCache>(pool, scenario.train);
  }
  const core::ProxyDataset proxy = core::build_proxy(scenario.train);
  core::HeadTrainConfig head_config;
  head_config.epochs = 10;
  nn::Mlp head = [&] {
    const Span span(tracer, "core.train_head");
    return core::train_head(*cache, scenario.train, proxy, structure, head_config);
  }();
  std::vector<models::ModelPtr> body = {pool.share(choice.model_indices[0]),
                                        pool.share(choice.model_indices[1])};

  auto stack = std::make_unique<Stack>();
  stack->fused = std::make_shared<core::FusedModel>("Muffin", std::move(body),
                                                    std::move(head));
  if (!rpc) {
    stack->engine = std::make_unique<serve::InferenceEngine>(stack->fused);
    return stack;
  }
  serve::RouterConfig router_config;
  router_config.shards = 0;
  for (const char* name : {"a", "b"}) {
    stack->servers.push_back(std::make_unique<serve::rpc::ShardServer>(
        stack->fused, "unix:" + socket_prefix + name + ".sock"));
    router_config.remote_endpoints.push_back(stack->servers.back()->address());
  }
  router_config.remote.connections = 2;
  stack->router = std::make_unique<serve::ShardRouter>(nullptr, router_config);
  return stack;
}

/// The engine's reply canonicalization: scores as the memo stores them.
std::vector<double> canonical(std::span<const double> scores,
                              tensor::QuantMode mode) {
  std::vector<double> out(scores.begin(), scores.end());
  if (mode == tensor::QuantMode::Bf16) {
    for (double& v : out) v = tensor::bf16_to_double(tensor::bf16_from_double(v));
  } else if (mode == tensor::QuantMode::Int8) {
    const double scale = tensor::i8_scale(scores);
    for (double& v : out) {
      v = tensor::i8_to_double(tensor::i8_from_double(v, scale), scale);
    }
  }
  return out;
}

/// Every reply's class against FusedModel::score_batch, and the sampled
/// replies' scores bit for bit.
void check_replies(const ReplyLog& replies, const core::FusedModel& fused,
                   const std::vector<data::Record>& population,
                   tensor::QuantMode mode) {
  require(replies.disagreements() == 0,
          "replies for one record disagree on the class");
  const auto answered = replies.answered();
  constexpr std::size_t kChunk = 4096;
  std::vector<data::Record> batch;
  std::size_t checked = 0;
  for (std::size_t start = 0; start < answered.size(); start += kChunk) {
    const std::size_t end = std::min(answered.size(), start + kChunk);
    batch.clear();
    for (std::size_t i = start; i < end; ++i) {
      batch.push_back(population[answered[i].first]);
    }
    const tensor::Matrix scores = fused.score_batch(batch);
    for (std::size_t i = start; i < end; ++i) {
      const std::span<const double> row = scores.row(i - start);
      require(tensor::argmax(canonical(row, mode)) == answered[i].second,
              "reply class differs from FusedModel::score_batch for record " +
                  std::to_string(answered[i].first));
      ++checked;
    }
  }
  for (const ReplyLog::Sample& sample : replies.samples()) {
    const data::Record& record = population[sample.record];
    const tensor::Matrix scores =
        fused.score_batch(std::span<const data::Record>(&record, 1));
    const std::vector<double> expected = canonical(scores.row(0), mode);
    require(expected.size() == sample.scores.size() &&
                std::memcmp(expected.data(), sample.scores.data(),
                            expected.size() * sizeof(double)) == 0,
            "sampled reply scores differ bitwise for record " +
                std::to_string(sample.record));
  }
  std::cout << "  checked " << checked << " records' classes and "
            << replies.samples().size() << " replies bit for bit ("
            << tensor::quant_mode_name(mode) << ")\n";
}

}  // namespace

void run_serve(const Options& options, bool rpc, Report& report,
               Tracer& tracer) {
  const std::size_t capacity = serve::EngineConfig{}.result_cache_capacity;
  const std::size_t population_size = capacity * (rpc ? 16 : 4);
  const Rates rates = rpc ? kRpcRates : kZipfRates;
  const Scenario scenario = make_scenario(options.seed);
  const data::Dataset population_set = data::synthetic_isic2019(
      population_size, derive_seed(options.seed, "population"));
  const std::vector<data::Record>& population = population_set.records();
  Traffic traffic = rpc ? Traffic::uniform(population_size,
                                           derive_seed(options.seed, "traffic"))
                        : Traffic::zipf(population_size,
                                        derive_seed(options.seed, "traffic"));
  const double rss_base = rss_mb();
  std::cout << (rpc ? "serve_rpc_cold" : "serve_zipf") << ": population "
            << population_size << " (memo capacity " << capacity << "), "
            << (rpc ? "uniform" : "zipf(s=1)") << " traffic\n";

  // Set-up, several times; the last stack serves.
  const std::string socket_prefix =
      options.out_dir + "/pb" + std::to_string(::getpid()) + "_";
  std::vector<double> setups;
  std::unique_ptr<Stack> stack;
  for (std::size_t i = 0; i < kSetups; ++i) {
    stack.reset();
    const Clock::time_point start = Clock::now();
    stack = build_stack(scenario, rpc, socket_prefix, tracer);
    setups.push_back(seconds_between(start, Clock::now()));
  }
  std::cout << "  set-up s:";
  for (const double s : setups) std::cout << " " << s;
  std::cout << "\n";
  const SubmitFn submit = [&](const data::Record& r) { return stack->submit(r); };
  ReplyLog replies(population_size);
  std::vector<PhaseResult> accounted;
  const auto phase = [&](const std::string& name, double rate, double seconds) {
    PhaseResult result = run_open_loop(PhaseConfig{name, rate, seconds},
                                       population, traffic, submit, replies,
                                       tracer);
    result.print();
    report.count_attempted(result.sent);
    report.count_failed(result.failed);
    accounted.push_back(result);
    return result;
  };

  // Warm-up: fill every memo (closed-loop batches of the most popular
  // records, or distinct uniform records), then open-loop slices at the
  // high rate until the memo is full and the hit ratio has settled.
  tighten_timer_slack();
  {
    std::size_t rank = 0;
    std::vector<data::Record> batch;
    while (!stack->memos_full(capacity) && rank < population_size) {
      batch.clear();
      for (std::size_t i = 0; i < 8192 && rank < population_size; ++i, ++rank) {
        batch.push_back(population[traffic.by_rank(rank)]);
      }
      const auto predictions = stack->predict_batch(batch);
      report.count_attempted(predictions.size());
    }
    double previous = -1.0;
    for (std::size_t slice = 0; slice < kWarmSliceLimit; ++slice) {
      const PhaseResult warm = phase("warm-up", rates.high, 0.25);
      const double hits = static_cast<double>(warm.cached) /
                          static_cast<double>(std::max<std::size_t>(warm.succeeded, 1));
      if (stack->memos_full(capacity) && std::abs(hits - previous) < 0.01) break;
      previous = hits;
    }
    require(stack->memos_full(capacity), "memo did not fill during warm-up");
  }

  // Timed phases: `low` and `high` in interleaved blocks, so a stretch
  // of host noise lands on both alike. Metrics are medians over the
  // valid sub-windows (those where the generator kept to its schedule).
  const double block = std::max(0.25, 0.25 * options.seconds / kBlocks);
  PhaseResult low;
  PhaseResult high;
  const CounterSnapshot before = CounterSnapshot::take();
  {
    const PoolDispatchProbe probe(tracer);
    // Up to kBlocks / 2 more pairs run while either phase has fewer
    // valid sub-windows than half its planned ones, so a stretch in which
    // the host did not run the generator on time is measured again.
    std::size_t planned = 0;
    for (std::size_t b = 0; b < kBlocks + kBlocks / 2; ++b) {
      if (b == kBlocks) planned = low.windows.size();
      if (b >= kBlocks && 2 * low.valid_windows() >= planned &&
          2 * high.valid_windows() >= planned) {
        break;
      }
      const PhaseResult low_block = phase("low", rates.low, block);
      const PhaseResult high_block = phase("high", rates.high, block);
      if (b == 0) {
        low = low_block;
        high = high_block;
      } else {
        low.merge(low_block);
        high.merge(high_block);
      }
    }
  }
  if (tracer.enabled()) {
    serving_layer_metrics({low, high}, before, rpc, report);
    report.set("common.pool_idle_ratio",
               pool_idle_ratio(before, CounterSnapshot::take()), "ratio", 1);
  }
  const double rss_end = rss_mb();
  std::cout << "  totals:\n";
  low.print();
  high.print();
  if (low.generator_behind() || high.generator_behind()) {
    std::cout << "  WARNING: the generator never kept to its schedule in a "
                 "whole phase; its figures are flagged, not dropped\n";
  }

  // Rate ladder: rung k offers high * 2^(k/16). A rung passes when two
  // tries pass before two miss — the result sits where a rung passes
  // half the time, not on one lucky or unlucky window. Inconclusive tries
  // (the generator was not run on time) are repeated, up to kMaxTries
  // tries in all. Rung 0 is the `high` phase itself. A climb starts from a
  // passing floor, takes coarse steps of four rungs until two in a row
  // miss, then single rungs from the highest coarse pass. The ladder is
  // climbed twice, the second time from four rungs below the first
  // result, and the higher result counts: a climb cut short by a burst
  // of host noise is redone rather than reported.
  struct Top {
    int rung;
    PhaseResult result;
  };
  const auto try_rung = [&](int k) -> std::optional<PhaseResult> {
    if (k == 0 && high.verdict() == PhaseResult::Verdict::Pass) return high;
    const double rate = rates.high * std::pow(2.0, k / kRungsPerDoubling);
    std::vector<PhaseResult> passed;
    std::size_t missed = 0;
    for (std::size_t attempt = 0;
         passed.size() < 2 && missed < 2 && attempt < kMaxTries; ++attempt) {
      PhaseResult result = phase(
          "rung " + std::to_string(k) + std::string(attempt, '\''), rate,
          kRungSeconds);
      switch (result.verdict()) {
        case PhaseResult::Verdict::Pass:
          passed.push_back(std::move(result));
          break;
        case PhaseResult::Verdict::Miss:
          ++missed;
          break;
        case PhaseResult::Verdict::Inconclusive:
          break;
      }
    }
    if (passed.size() < 2) return std::nullopt;
    passed[0].merge(passed[1]);
    return std::move(passed[0]);
  };
  // The highest passing rung at or below `from`, in coarse steps.
  const auto floor_at = [&](int from) -> std::optional<Top> {
    for (int k = from; k >= -kMaxRung; k -= kCoarse) {
      if (std::optional<PhaseResult> result = try_rung(k)) {
        return Top{k, std::move(*result)};
      }
    }
    return std::nullopt;
  };
  const auto climb = [&](Top top) {
    std::size_t misses = 0;
    for (int k = top.rung + kCoarse; k <= kMaxRung && misses < 2;
         k += kCoarse) {
      if (std::optional<PhaseResult> result = try_rung(k)) {
        top = Top{k, std::move(*result)};
        misses = 0;
      } else {
        ++misses;
      }
    }
    const int coarse_miss = top.rung + kCoarse;
    for (int k = top.rung + 1; k < coarse_miss; ++k) {
      std::optional<PhaseResult> result = try_rung(k);
      if (!result) break;
      top = Top{k, std::move(*result)};
    }
    return top;
  };
  std::optional<Top> first = floor_at(0);
  require(first.has_value(), "no rung of the rate ladder met the SLO");
  Top best = climb(std::move(*first));
  std::cout << "  first climb: rung " << best.rung << "\n";
  if (std::optional<Top> again = floor_at(best.rung - kCoarse)) {
    Top second = climb(std::move(*again));
    std::cout << "  second climb: rung " << second.rung << "\n";
    if (second.rung > best.rung) best = std::move(second);
  }
  const double max_rate = best.result.achieved_rps();
  const std::size_t max_rate_samples = best.result.succeeded;
  std::cout << "  max rate: rung " << best.rung << ", " << max_rate << " req/s\n";

  check_replies(replies, *stack->fused, population,
                stack->engines().front()->memo_quant_mode());
  for (const PhaseResult& p : accounted) {
    require(p.sent == p.succeeded + p.failed, "phase lost requests");
  }
  for (const serve::InferenceEngine* e : stack->engines()) {
    require(e->model_version() == 1, "engine model version moved");
  }

  report.set("setup_s", median(setups), "s", setups.size());
  report.set("mem_mb", std::max(rss_end - rss_base, 0.001), "MB", 1);
  report.set("ops_per_s", max_rate, "1/s", max_rate_samples);
  report.set("p50_us.low", low.p50_us(), "us", low.succeeded);
  report.set("tail_us.low", low.tail_us(), "us", low.succeeded);
  report.set("p50_us.high", high.p50_us(), "us", high.succeeded);
  report.set("tail_us.high", high.tail_us(), "us", high.succeeded);

  if (!tracer.enabled()) return;
  // Search-side layers on a short Table 1 search, so every traced run
  // reports every layer.
  {
    const models::ModelPool pool = models::calibrated_isic_pool(scenario.full);
    const rl::SearchSpace space = table1_space(pool, "ShuffleNet_V2_X1_0");
    const core::MuffinSearchConfig config =
        table1_config("ShuffleNet_V2_X1_0", 16);
    core::MuffinSearch search(pool, scenario.train, scenario.full, space, config);
    const core::SearchResult result = search.run();
    const std::size_t hits = replay_search(search, space, config, scenario.train,
                                           scenario.full, result, tracer);
    report.set("core.search_memo_hit_ratio",
               static_cast<double>(hits) /
                   static_cast<double>(result.episodes.size()),
               "ratio", result.episodes.size());
  }
  probe_layers(*stack->fused, population, tracer, report);
}

}  // namespace perfbench

// Shared inputs and the layer probes every traced run reports.
#include <cstring>
#include <map>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/fused.h"
#include "core/head_trainer.h"
#include "core/reward.h"
#include "data/generators.h"
#include "fairness/metrics.h"
#include "obs/metrics.h"
#include "serve/rpc/wire.h"
#include "tensor/ops.h"
#include "workloads.h"

namespace perfbench {

using namespace muffin;

std::uint64_t derive_seed(std::uint64_t seed, const char* purpose) {
  return SplitRng(seed).fork(purpose).seed();
}

Scenario make_scenario(std::uint64_t seed) {
  Scenario scenario{data::synthetic_isic2019(25331, derive_seed(seed, "scenario")),
                    {}};
  SplitRng rng(scenario.full.record(0).uid ^ 0x5eedULL);
  const data::SplitIndices split = scenario.full.split(0.64, 0.16, rng);
  scenario.train = scenario.full.subset(split.train, ":train");
  return scenario;
}

rl::SearchSpace table1_space(const models::ModelPool& pool,
                             const std::string& base) {
  rl::SearchSpace space;
  space.pool_size = pool.size();
  space.paired_models = 2;
  space.forced_models = {pool.index_of(base)};
  space.hidden_width_choices = {8, 10, 12, 16, 18};
  space.min_hidden_layers = 1;
  space.max_hidden_layers = 3;
  return space;
}

core::MuffinSearchConfig table1_config(const std::string& base,
                                       std::size_t episodes) {
  core::MuffinSearchConfig config;
  config.episodes = episodes;
  config.controller_batch = 8;
  config.reward.attributes = {"age", "site"};
  config.head_train.epochs = 14;
  config.proxy.max_samples = 4000;
  config.seed = 1000 + fnv1a64(base) % 1000;
  return config;
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

std::size_t replay_search(const core::MuffinSearch& search,
                          const rl::SearchSpace& space,
                          const core::MuffinSearchConfig& config,
                          const data::Dataset& train,
                          const data::Dataset& eval,
                          const core::SearchResult& result, Tracer& tracer) {
  rl::RnnController controller(space, config.controller);
  SplitRng sample_rng = SplitRng(config.seed).fork("controller-sampling");
  const fairness::GroupPartition partition(eval);
  // The search's memo: a structure evaluated in an earlier controller
  // batch is answered from it; duplicates inside one batch are each
  // evaluated with their own episode seed and the first one is kept.
  std::map<std::string, double> memo;
  std::size_t memo_hits = 0;
  const std::size_t total = result.episodes.size();
  for (std::size_t episode = 0; episode < total;) {
    const std::size_t batch = std::min(config.controller_batch, total - episode);
    std::vector<rl::SampledStructure> sampled;
    for (std::size_t b = 0; b < batch; ++b) {
      const Span span(tracer, "rl.sample", 0, episode + b + 1);
      sampled.push_back(controller.sample(sample_rng));
    }
    std::vector<rl::EpisodeResult> feedback;
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t index = episode + b;
      const core::EpisodeRecord& recorded = result.episodes[index];
      require(sampled[b].tokens == recorded.tokens,
              "replayed controller sampled other tokens at episode " +
                  std::to_string(index));
      double reward = 0.0;
      const std::string key = sampled[b].choice.to_string();
      if (const auto it = memo.find(key); it != memo.end()) {
        reward = it->second;
        ++memo_hits;
      } else {
        const Span episode_span(tracer, "core.episode", 0, index + 1);
        const core::FusingStructure structure =
            core::FusingStructure::from_choice(sampled[b].choice,
                                               train.num_classes());
        core::HeadTrainConfig head_config = config.head_train;
        head_config.seed = SplitRng(config.seed)
                               .fork("episode:" + std::to_string(index))
                               .seed();
        const nn::Mlp head = [&] {
          const Span span(tracer, "core.train_head", episode_span.id(), index + 1);
          return core::train_head(search.train_cache(), train, search.proxy(),
                                  structure, head_config);
        }();
        std::vector<std::size_t> predictions;
        {
          const Span span(tracer, "core.fused_predictions", episode_span.id(),
                          index + 1);
          predictions = core::fused_predictions(search.eval_cache(), structure,
                                                head,
                                                config.head_only_on_disagreement);
        }
        fairness::FairnessReport report;
        {
          const Span span(tracer, "fairness.evaluate", episode_span.id(),
                          index + 1);
          report = fairness::evaluate_predictions(partition, predictions);
        }
        reward = core::multi_fairness_reward(report, config.reward);
      }
      require(same_bits(reward, recorded.reward),
              "replayed reward differs at episode " + std::to_string(index));
      feedback.push_back({sampled[b].tokens, reward});
    }
    {
      const Span span(tracer, "rl.update", 0, episode + 1);
      controller.update(feedback);
    }
    for (std::size_t b = 0; b < batch; ++b) {
      memo.insert({sampled[b].choice.to_string(), feedback[b].reward});
    }
    episode += batch;
  }
  return memo_hits;
}

namespace {

/// Calls `body` `reps` times inside one span; returns seconds per call.
template <typename Body>
double time_loop(Tracer& tracer, const char* name, std::size_t reps,
                 Body&& body) {
  const Span span(tracer, name);
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) body();
  return seconds_between(start, Clock::now()) / static_cast<double>(reps);
}

double gemm_gflops(Tracer& tracer, const char* name, std::size_t rows,
                   std::size_t in, std::size_t out) {
  SplitRng rng(rows * 131 + in * 7 + out);
  tensor::Matrix a(rows, in);
  tensor::Matrix b(out, in);
  std::vector<double> bias(out);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < in; ++c) a(r, c) = rng.normal();
  }
  for (std::size_t r = 0; r < out; ++r) {
    for (std::size_t c = 0; c < in; ++c) b(r, c) = rng.normal();
    bias[r] = rng.normal();
  }
  tensor::Matrix result(rows, out);
  const double flops = 2.0 * static_cast<double>(rows * in * out);
  const std::size_t reps = std::max<std::size_t>(
      200, static_cast<std::size_t>(2e8 / flops));
  const double per_call = time_loop(tracer, name, reps, [&] {
    tensor::matmul_transposed_b_bias_into(a, b, bias, result);
  });
  return flops / per_call / 1e9;
}

}  // namespace

void probe_layers(const core::FusedModel& fused,
                  std::span<const data::Record> records, Tracer& tracer,
                  Report& report) {
  constexpr std::size_t kRows = 32;
  constexpr std::size_t kBatches = 256;
  require(records.size() >= 2 * kRows, "layer probe needs records");
  const std::size_t classes = fused.num_classes();
  const auto& body = fused.body();
  const nn::Mlp& head = fused.head();
  std::size_t head_rows = 0;
  std::size_t rows = 0;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t offset = (b * kRows * 7) % (records.size() - kRows);
    const std::span<const data::Record> batch = records.subspan(offset, kRows);
    for (const models::ModelPtr& model : body) {
      const Span span(tracer, "models.score_batch", 0, b + 1);
      (void)model->score_batch(batch);
    }
    const tensor::Matrix gathered =
        core::gather_body_scores(body, classes, batch);
    core::FusedBatch fused_batch;
    {
      const Span span(tracer, "core.fuse", 0, b + 1);
      fused_batch = core::fuse_gathered_batch(
          gathered, head, body.size(), classes, fused.head_only_on_disagreement());
    }
    head_rows += fused_batch.head_rows;
    rows += kRows;
    if (fused_batch.head_rows == 0) continue;
    tensor::Matrix disagreement(fused_batch.head_rows, gathered.cols());
    std::size_t r = 0;
    for (std::size_t i = 0; i < kRows; ++i) {
      if (fused_batch.consensus[i]) continue;
      for (std::size_t c = 0; c < gathered.cols(); ++c) {
        disagreement(r, c) = gathered(i, c);
      }
      ++r;
    }
    const Span span(tracer, "nn.head_forward", 0, b + 1);
    (void)head.forward_batch_inference(disagreement);
  }
  report.set("core.head_rows_ratio",
             static_cast<double>(head_rows) / static_cast<double>(rows), "ratio",
             rows);

  // GEMM at the head's first layer: the head-training minibatch (128) and
  // the serving batch (32).
  const nn::MlpSpec& spec = head.spec();
  const std::size_t in = spec.input_dim;
  const std::size_t out =
      spec.hidden_dims.empty() ? spec.output_dim : spec.hidden_dims.front();
  report.set("tensor.gemm_gflops.train_b128",
             gemm_gflops(tracer, "tensor.gemm.train_b128", 128, in, out),
             "GFLOP/s", 1);
  report.set("tensor.gemm_gflops.head_b32",
             gemm_gflops(tracer, "tensor.gemm.head_b32", 32, in, out), "GFLOP/s",
             1);

  // RPC codec on one 32-row frame each way.
  const std::span<const data::Record> frame_records = records.first(kRows);
  const tensor::Matrix scores = fused.score_batch(frame_records);
  std::vector<serve::Prediction> predictions(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    const std::span<const double> row = scores.row(i);
    predictions[i].scores.assign(row.begin(), row.end());
    predictions[i].predicted = tensor::argmax(predictions[i].scores);
    predictions[i].model_version = 1;
  }
  constexpr std::size_t kCodecReps = 2000;
  std::vector<std::uint8_t> request_frame;
  std::vector<std::uint8_t> response_frame;
  for (std::size_t i = 0; i < kCodecReps; ++i) {
    const Span span(tracer, "serve.rpc.encode_request", 0, i + 1);
    request_frame = serve::rpc::encode_score_request(i, frame_records);
  }
  for (std::size_t i = 0; i < kCodecReps; ++i) {
    const Span span(tracer, "serve.rpc.decode_request", 0, i + 1);
    const auto decoded = serve::rpc::decode_score_request(
        std::span<const std::uint8_t>(request_frame)
            .subspan(serve::rpc::kHeaderBytes));
    require(decoded.size() == kRows, "request frame round trip lost rows");
  }
  for (std::size_t i = 0; i < kCodecReps; ++i) {
    const Span span(tracer, "serve.rpc.encode_response", 0, i + 1);
    response_frame = serve::rpc::encode_score_response(i, predictions);
  }
  for (std::size_t i = 0; i < kCodecReps; ++i) {
    const Span span(tracer, "serve.rpc.decode_response", 0, i + 1);
    const auto decoded = serve::rpc::decode_score_response(
        std::span<const std::uint8_t>(response_frame)
            .subspan(serve::rpc::kHeaderBytes));
    require(decoded.size() == kRows &&
                decoded.back().predicted == predictions.back().predicted,
            "response frame round trip changed a reply");
  }
}

CounterSnapshot CounterSnapshot::take() {
  const obs::MetricsSnapshot metrics = obs::registry().snapshot();
  const auto counter = [&](std::string_view name) -> std::uint64_t {
    const obs::CounterSnapshot* found = metrics.find_counter(name);
    return found ? found->value : 0;
  };
  CounterSnapshot s;
  s.engine_requests = counter("engine.requests");
  s.engine_batches = counter("engine.batches");
  s.pool_idle_us = counter("pool.idle_us");
  s.frames_sent = counter("rpc.client.frames_sent");
  s.bytes = counter("rpc.client.bytes_sent") + counter("rpc.client.bytes_received");
  s.at = Clock::now();
  return s;
}

double pool_idle_ratio(const CounterSnapshot& before,
                       const CounterSnapshot& after) {
  const double capacity_us = micros_between(before.at, after.at) *
                             static_cast<double>(common::global_pool_size());
  return capacity_us > 0.0
             ? static_cast<double>(after.pool_idle_us - before.pool_idle_us) /
                   capacity_us
             : 0.0;
}

void serving_layer_metrics(const std::vector<PhaseResult>& phases,
                           const CounterSnapshot& before, bool rpc,
                           Report& report) {
  const CounterSnapshot after = CounterSnapshot::take();
  std::size_t sent = 0;
  std::size_t succeeded = 0;
  std::size_t failed = 0;
  std::size_t cached = 0;
  std::size_t consensus = 0;
  std::size_t submits = 0;
  double submit_us = 0.0;
  std::vector<double> lateness;
  for (const PhaseResult& phase : phases) {
    sent += phase.sent;
    succeeded += phase.succeeded;
    failed += phase.failed;
    cached += phase.cached;
    consensus += phase.consensus;
    submits += phase.submit_count;
    submit_us += phase.submit_us_sum;
    lateness.push_back(phase.lateness_mean_us());
  }
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  report.set("serve.submit_us", ratio(submit_us, static_cast<double>(submits)),
             "us", submits);
  report.set("serve.memo_hit_ratio",
             ratio(static_cast<double>(cached), static_cast<double>(succeeded)),
             "ratio", succeeded);
  report.set("serve.consensus_ratio",
             ratio(static_cast<double>(consensus), static_cast<double>(succeeded)),
             "ratio", succeeded);
  report.set("serve.batch_rows_mean",
             ratio(d(before.engine_requests, after.engine_requests),
                   d(before.engine_batches, after.engine_batches)),
             "rows", static_cast<std::size_t>(
                         d(before.engine_batches, after.engine_batches)));
  report.set("serve.failed_ratio",
             ratio(static_cast<double>(failed), static_cast<double>(sent)),
             "ratio", sent);
  const double frames = d(before.frames_sent, after.frames_sent);
  report.set("serve.rpc.rows_per_frame",
             rpc ? ratio(static_cast<double>(sent), frames) : 0.0, "rows",
             static_cast<std::size_t>(frames));
  report.set("serve.rpc.bytes_per_row",
             rpc ? ratio(d(before.bytes, after.bytes), static_cast<double>(sent))
                 : 0.0,
             "B", sent);
  report.set("loadgen.lateness_us", mean(lateness), "us", sent);
}

PoolDispatchProbe::PoolDispatchProbe(Tracer& tracer) : tracer_(tracer) {
  if (!tracer_.enabled()) return;
  thread_ = std::thread([this] {
    common::ThreadPool& pool = common::global_pool();
    while (!stop_.load(std::memory_order_relaxed)) {
      const Clock::time_point submitted = Clock::now();
      std::future<Clock::time_point> started =
          pool.submit([] { return Clock::now(); });
      tracer_.record("common.pool_dispatch", submitted, started.get(),
                     tracer_.next_id(), 0, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

PoolDispatchProbe::~PoolDispatchProbe() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void span_metrics(const Tracer& tracer, Report& report) {
  struct Mapping {
    const char* span;
    const char* metric;
    double scale;
    const char* unit;
  };
  static const Mapping mappings[] = {
      {"rl.sample", "rl.sample_us", 1.0, "us"},
      {"rl.update", "rl.update_us", 1.0, "us"},
      {"core.train_head", "core.train_head_ms", 1e-3, "ms"},
      {"core.fused_predictions", "core.fused_predictions_us", 1.0, "us"},
      {"fairness.evaluate", "fairness.evaluate_us", 1.0, "us"},
      {"core.score_cache_build", "core.score_cache_build_ms", 1e-3, "ms"},
      {"common.pool_dispatch", "common.pool_dispatch_us", 1.0, "us"},
      {"nn.head_forward", "nn.head_forward_us", 1.0, "us"},
      {"models.score_batch", "models.score_batch_us", 1.0, "us"},
      {"core.fuse", "core.fuse_us", 1.0, "us"},
      {"serve.rpc.encode_request", "serve.rpc.encode_request_us", 1.0, "us"},
      {"serve.rpc.decode_request", "serve.rpc.decode_request_us", 1.0, "us"},
      {"serve.rpc.encode_response", "serve.rpc.encode_response_us", 1.0, "us"},
      {"serve.rpc.decode_response", "serve.rpc.decode_response_us", 1.0, "us"},
  };
  const std::vector<SpanStats> stats = tracer.stats();
  for (const Mapping& m : mappings) {
    for (const SpanStats& s : stats) {
      if (s.name == m.span) {
        report.set(m.metric, s.mean_us * m.scale, m.unit, s.count);
      }
    }
  }
}

}  // namespace perfbench

// The `search` workload: the four Table 1 Muffin searches, each with the
// bench_table1 configuration, on the synthetic ISIC2019 scenario — one
// round of four per 8 s of --seconds, each round the same configuration.
//
// End-to-end figures:
//   setup_s       model pool calibration + MuffinSearch construction
//                 (score caches, group partition, proxy), median of two
//                 set-ups per search
//   ops_per_s     episodes / wall time of MuffinSearch::run, summed
//   p50/tail.high one controller step under the search's own load: eight
//                 structures sampled, trained and evaluated in parallel
//                 on the shared pool, then the controller update
//   p50/tail.low  one structure evaluated (evaluate_choice) with one
//                 structure per pool worker and nothing queued: a fixed
//                 two-model body with a [16,12] ReLU head, in six
//                 waves per search with different head seeds, so every
//                 sample is the same work on every run. (Timings of one
//                 thread alone vary by a quarter between runs on a
//                 shared host; spread over the workers they hold.)
// A tail is the highest percentile with at least ten samples beyond it,
// capped at p90.
//
// Checks: every base has an episode lowering both U(age) and U(site)
// below the vanilla model (the paper's claim), evaluate_choice
// reproduces the reward of each search's best distinct structures bit
// for bit, and every round reproduces the first round's rewards.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <map>

#include "common/parallel_for.h"
#include "common/rng.h"
#include "core/fused.h"
#include "fairness/metrics.h"
#include "models/pool.h"
#include "serve/engine.h"
#include "workloads.h"

namespace perfbench {

using namespace muffin;

namespace {

const char* const kBases[] = {"ShuffleNet_V2_X1_0", "MobileNet_V3_Small",
                              "DenseNet121", "ResNet-18"};
constexpr std::size_t kEpisodes = 120;
/// Best distinct structures per search whose reward is reproduced.
constexpr std::size_t kCheckedStructures = 4;
/// Waves of concurrent evaluations of the fixed structure per search,
/// one per pool worker (`low` latency).
constexpr std::size_t kEvaluationWaves = 6;
constexpr std::size_t kSetupsPerBase = 2;
constexpr double kSecondsPerRound = 8.0;

/// For every episode, the episode whose fresh evaluation produced its
/// reward: itself, or the earlier episode the search's memo answered
/// from (structures are memoized once their controller batch ends).
std::vector<std::size_t> reward_sources(const core::SearchResult& result,
                                        std::size_t controller_batch) {
  std::vector<std::size_t> source(result.episodes.size());
  std::map<std::string, std::size_t> memo;
  for (std::size_t start = 0; start < result.episodes.size();
       start += controller_batch) {
    const std::size_t end =
        std::min(start + controller_batch, result.episodes.size());
    for (std::size_t i = start; i < end; ++i) {
      const auto it = memo.find(result.episodes[i].choice.to_string());
      source[i] = it == memo.end() ? i : it->second;
    }
    for (std::size_t i = start; i < end; ++i) {
      memo.insert({result.episodes[i].choice.to_string(), i});
    }
  }
  return source;
}

}  // namespace

void run_search(const Options& options, Report& report, Tracer& tracer) {
  const Scenario scenario = make_scenario(options.seed);
  const double rss_base = rss_mb();
  std::cout << "search: " << scenario.full.size() << " records, "
            << std::size(kBases) << " bases x " << kEpisodes << " episodes\n";

  std::vector<double> setups;
  std::vector<double> step_us;
  std::vector<double> evaluate_us;
  double run_seconds = 0.0;
  std::size_t episodes = 0;
  std::size_t memo_hits = 0;
  std::size_t replayed = 0;
  double idle_ratio_weighted = 0.0;
  std::shared_ptr<core::FusedModel> emitted;
  double rss_end = 0.0;

  // Search spaces only need the pool's model names and size.
  const models::ModelPool probe_pool = models::calibrated_isic_pool(scenario.full);
  // One round of the four searches per kSecondsPerRound of --seconds.
  // Every round repeats the bench_table1 configuration exactly, so later
  // rounds must reproduce the first round's rewards bit for bit.
  const std::size_t rounds = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.seconds / kSecondsPerRound));
  std::map<std::string, std::vector<double>> first_round_rewards;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const char* base : kBases) {
      const rl::SearchSpace space = table1_space(probe_pool, base);
      core::MuffinSearchConfig config = table1_config(base, kEpisodes);
      Clock::time_point step_start;
      config.on_episode = [&](std::size_t episode, const core::EpisodeRecord&) {
        if (episode % config.controller_batch != 0) return;
        const Clock::time_point now = Clock::now();
        step_us.push_back(micros_between(step_start, now));
        if (tracer.enabled()) {
          tracer.record("core.search_step", step_start, now, tracer.next_id(), 0,
                        episode + 1);
        }
        step_start = now;
      };
      // Set-up, several times; the last one searches.
      std::unique_ptr<models::ModelPool> pool;
      std::unique_ptr<core::MuffinSearch> search;
      for (std::size_t i = 0; i < kSetupsPerBase; ++i) {
        search.reset();
        pool.reset();
        const Span span(tracer, "core.search_setup");
        const Clock::time_point setup_start = Clock::now();
        pool = std::make_unique<models::ModelPool>(
            models::calibrated_isic_pool(scenario.full));
        search = std::make_unique<core::MuffinSearch>(*pool, scenario.train,
                                                      scenario.full, space, config);
        setups.push_back(seconds_between(setup_start, Clock::now()));
      }

      const CounterSnapshot before = CounterSnapshot::take();
      core::SearchResult result;
      {
        const PoolDispatchProbe probe(tracer);
        const Span span(tracer, "core.search_run");
        step_start = Clock::now();
        result = search->run();
      }
      const CounterSnapshot after = CounterSnapshot::take();
      const double wall = seconds_between(before.at, after.at);
      run_seconds += wall;
      episodes += result.episodes.size();
      idle_ratio_weighted += pool_idle_ratio(before, after) * wall;
      rss_end = std::max(rss_end, rss_mb());

      std::vector<double> rewards;
      for (const core::EpisodeRecord& episode : result.episodes) {
        rewards.push_back(episode.reward);
      }
      const auto [first, inserted] = first_round_rewards.emplace(base, rewards);
      require(inserted || (first->second.size() == rewards.size() &&
                           std::memcmp(first->second.data(), rewards.data(),
                                       rewards.size() * sizeof(double)) == 0),
              "round " + std::to_string(round) +
                  " did not reproduce the first round's rewards for " + base);

      // Correctness: the paper's claim, and reward reproduction of the
      // best distinct structures by evaluating each one alone.
      const fairness::FairnessReport vanilla =
          fairness::evaluate_model(pool->by_name(base), scenario.full);
      bool both_improved = false;
      for (const core::EpisodeRecord& episode : result.episodes) {
        both_improved |= episode.eval_report.unfairness_for("age") <
                             vanilla.unfairness_for("age") &&
                         episode.eval_report.unfairness_for("site") <
                             vanilla.unfairness_for("site");
      }
      require(both_improved, std::string("no episode lowers both U(age) and "
                                         "U(site) below vanilla for ") + base);
      const std::vector<std::size_t> source =
          reward_sources(result, config.controller_batch);
      std::vector<std::size_t> fresh;
      for (std::size_t i = 0; i < source.size(); ++i) {
        if (source[i] == i) fresh.push_back(i);
      }
      std::stable_sort(fresh.begin(), fresh.end(), [&](std::size_t a, std::size_t b) {
        return result.episodes[a].reward > result.episodes[b].reward;
      });
      require(!fresh.empty() && result.episodes[fresh.front()].reward ==
                                    result.best().reward,
              "best episode is not a freshly evaluated structure");
      std::map<std::string, bool> checked;
      for (const std::size_t i : fresh) {
        if (checked.size() == kCheckedStructures) break;
        const core::EpisodeRecord& episode = result.episodes[i];
        if (!checked.emplace(episode.choice.to_string(), true).second) continue;
        const core::EpisodeRecord again = search->evaluate_choice(episode.choice, i);
        require(std::memcmp(&again.reward, &episode.reward, sizeof(double)) == 0,
                std::string("evaluate_choice does not reproduce the reward of "
                            "episode ") + std::to_string(i) + " for " + base);
      }
      {
        rl::StructureChoice choice;
        const std::size_t forced = pool->index_of(base);
        choice.model_indices = {forced, (forced + 1) % pool->size()};
        choice.hidden_dims = {16, 12};
        choice.activation = nn::Activation::Relu;
        // One evaluation per pool worker at a time: the pool is busy but
        // nothing queues (a controller step queues eight on the pool).
        common::ThreadPool& workers = common::global_pool();
        const std::size_t width = workers.size();
        for (std::size_t wave = 0; wave < kEvaluationWaves; ++wave) {
          std::vector<std::future<std::pair<Clock::time_point, Clock::time_point>>>
              timings;
          for (std::size_t w = 0; w < width; ++w) {
            timings.push_back(workers.submit([&, seed = wave * width + w] {
              const Clock::time_point t0 = Clock::now();
              (void)search->evaluate_choice(choice, seed);
              return std::make_pair(t0, Clock::now());
            }));
          }
          // Every job ends before any result (or error) is read, so none
          // outlives `choice`.
          for (auto& timing : timings) timing.wait();
          for (std::size_t w = 0; w < width; ++w) {
            const auto [t0, t1] = timings[w].get();
            evaluate_us.push_back(micros_between(t0, t1));
            if (tracer.enabled()) {
              tracer.record("core.evaluate_choice", t0, t1, tracer.next_id(), 0,
                            wave * width + w + 1);
            }
          }
        }
      }
      std::cout << "  " << base << ": setup " << setups.back() << " s, run "
                << wall << " s (" << result.episodes.size() / wall
                << " episodes/s), best reward " << result.best().reward
                << ", body " << result.best().body_names << "\n";

      if (tracer.enabled() && round == 0) {
        memo_hits += replay_search(*search, space, config, scenario.train,
                                   scenario.full, result, tracer);
        replayed += result.episodes.size();
        if (emitted == nullptr) {
          emitted = search->build_fused(result.best().choice, "Muffin-search",
                                        source[result.best_index]);
        }
      }
    }
  }

  report.count_attempted(episodes + evaluate_us.size());
  report.set("setup_s", median(setups), "s", setups.size());
  report.set("mem_mb", std::max(rss_end - rss_base, 0.001), "MB", 1);
  report.set("ops_per_s", static_cast<double>(episodes) / run_seconds, "1/s",
             episodes);
  report.set("p50_us.high", quantile(step_us, 0.50), "us", step_us.size());
  report.set("tail_us.high", tail(step_us), "us", step_us.size());
  report.set("p50_us.low", quantile(evaluate_us, 0.50), "us", evaluate_us.size());
  report.set("tail_us.low", tail(evaluate_us), "us", evaluate_us.size());
  std::cout << "  rounds " << rounds << ", episodes " << episodes << "\n";

  if (!tracer.enabled()) return;
  report.set("core.search_memo_hit_ratio",
             static_cast<double>(memo_hits) / static_cast<double>(replayed),
             "ratio", replayed);
  report.set("common.pool_idle_ratio", idle_ratio_weighted / run_seconds,
             "ratio", episodes);
  {
    // Score-cache construction on its own (train + eval), as the
    // searches' set-up performs it.
    const models::ModelPool pool = models::calibrated_isic_pool(scenario.full);
    for (int rep = 0; rep < 3; ++rep) {
      const Span span(tracer, "core.score_cache_build");
      const core::ScoreCache train_cache(pool, scenario.train);
      const core::ScoreCache eval_cache(pool, scenario.full);
    }
  }
  // Serving probe: the fused model the first search emits, served by an
  // in-process engine at a light open-loop rate over the scenario.
  serve::InferenceEngine engine(emitted);
  ReplyLog replies(scenario.full.size());
  Traffic traffic = Traffic::uniform(scenario.full.size(),
                                     derive_seed(options.seed, "probe-traffic"));
  const CounterSnapshot before = CounterSnapshot::take();
  std::vector<PhaseResult> phases;
  phases.push_back(run_open_loop(
      PhaseConfig{"probe", 20000.0, 1.0}, scenario.full.records(), traffic,
      [&](const data::Record& r) { return engine.submit(r); }, replies, tracer));
  phases.back().print();
  serving_layer_metrics(phases, before, false, report);
  require(replies.disagreements() == 0, "probe replies disagree per record");
  probe_layers(*emitted, scenario.full.records(), tracer, report);
}

}  // namespace perfbench

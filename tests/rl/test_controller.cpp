#include "rl/controller.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/error.h"
#include "tensor/quant.h"

namespace muffin::rl {
namespace {

SearchSpace small_space() {
  SearchSpace space;
  space.pool_size = 4;
  space.paired_models = 2;
  space.hidden_width_choices = {8, 16};
  space.min_hidden_layers = 1;
  space.max_hidden_layers = 2;
  return space;
}

ControllerConfig small_config() {
  ControllerConfig config;
  config.hidden_dim = 16;
  config.embedding_dim = 8;
  config.seed = 7;
  return config;
}

TEST(Controller, SamplesValidStructures) {
  RnnController controller(small_space(), small_config());
  SplitRng rng(1);
  for (int i = 0; i < 50; ++i) {
    const SampledStructure s = controller.sample(rng);
    EXPECT_EQ(s.tokens.size(), small_space().num_steps());
    EXPECT_EQ(s.choice.model_indices.size(), 2u);
    EXPECT_NE(s.choice.model_indices[0], s.choice.model_indices[1]);
    EXPECT_GE(s.choice.hidden_dims.size(), 1u);
    EXPECT_LE(s.choice.hidden_dims.size(), 2u);
    EXPECT_LE(s.log_prob, 0.0);
  }
}

TEST(Controller, LogProbMatchesSampledValue) {
  RnnController controller(small_space(), small_config());
  SplitRng rng(2);
  for (int i = 0; i < 10; ++i) {
    const SampledStructure s = controller.sample(rng);
    EXPECT_NEAR(controller.log_prob(s.tokens), s.log_prob, 1e-9);
  }
}

TEST(Controller, RespectsForcedModels) {
  SearchSpace space = small_space();
  space.forced_models = {1};
  RnnController controller(space, small_config());
  SplitRng rng(3);
  for (int i = 0; i < 30; ++i) {
    const SampledStructure s = controller.sample(rng);
    EXPECT_EQ(s.choice.model_indices[0], 1u);
    EXPECT_NE(s.choice.model_indices[1], 1u);
  }
}

TEST(Controller, DeterministicGivenSeeds) {
  RnnController a(small_space(), small_config());
  RnnController b(small_space(), small_config());
  SplitRng rng_a(5);
  SplitRng rng_b(5);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(a.sample(rng_a).tokens, b.sample(rng_b).tokens);
  }
}

TEST(Controller, SamplingAndUpdateIgnoreQuantMode) {
  // The step heads are trained, never served: MUFFIN_QUANT selects the
  // quantized inference kernels, and it must not reach a search. One
  // controller runs in the float mode, its twin under bf16 and then int8;
  // every sampled token and log-probability must match bit for bit across
  // several sample + update rounds.
  RnnController reference(small_space(), small_config());
  RnnController quantized(small_space(), small_config());
  SplitRng rng_reference(21);
  SplitRng rng_quantized(21);
  const auto reward = [](const std::vector<std::size_t>& tokens) {
    return tokens[0] == 0 ? 1.0 : 0.1 * static_cast<double>(tokens.back());
  };
  const auto round = [&](RnnController& controller, SplitRng& rng,
                         std::vector<SampledStructure>& sampled) {
    std::vector<EpisodeResult> episodes;
    for (int i = 0; i < 4; ++i) {
      sampled.push_back(controller.sample(rng));
      const std::vector<std::size_t>& tokens = sampled.back().tokens;
      episodes.push_back({tokens, reward(tokens)});
    }
    (void)controller.update(episodes);
  };
  for (const tensor::QuantMode mode :
       {tensor::QuantMode::Bf16, tensor::QuantMode::Bf16,
        tensor::QuantMode::Int8, tensor::QuantMode::Int8}) {
    std::vector<SampledStructure> expected;
    std::vector<SampledStructure> got;
    {
      const tensor::ScopedQuantMode pin(tensor::QuantMode::Off);
      round(reference, rng_reference, expected);
    }
    {
      const tensor::ScopedQuantMode pin(mode);
      round(quantized, rng_quantized, got);
    }
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].tokens, expected[i].tokens);
      EXPECT_EQ(got[i].log_prob, expected[i].log_prob);  // bitwise
    }
  }
}

TEST(Controller, UpdateMovesPolicyTowardRewardedTokens) {
  // Reward structures whose first model is index 0; after training, the
  // controller must sample model 0 first far more often than uniform.
  RnnController controller(small_space(), small_config());
  SplitRng rng(11);
  for (int round = 0; round < 120; ++round) {
    std::vector<EpisodeResult> episodes;
    for (int b = 0; b < 6; ++b) {
      const SampledStructure s = controller.sample(rng);
      episodes.push_back(
          {s.tokens, s.choice.model_indices[0] == 0 ? 1.0 : 0.0});
    }
    controller.update(episodes);
  }
  std::size_t hits = 0;
  const std::size_t n = 200;
  for (std::size_t i = 0; i < n; ++i) {
    if (controller.sample(rng).choice.model_indices[0] == 0) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(n), 0.6);
}

TEST(Controller, UpdateLearnsLaterSteps) {
  // Reward the tanh activation (last step) — credit must flow through the
  // discount γ^{T-t} to the final decision.
  SearchSpace space = small_space();
  RnnController controller(space, small_config());
  SplitRng rng(13);
  const std::size_t tanh_index = 2;  // searchable: relu, leaky, tanh, sigmoid
  for (int round = 0; round < 120; ++round) {
    std::vector<EpisodeResult> episodes;
    for (int b = 0; b < 6; ++b) {
      const SampledStructure s = controller.sample(rng);
      episodes.push_back({s.tokens, s.tokens.back() == tanh_index ? 1.0 : 0.0});
    }
    controller.update(episodes);
  }
  std::size_t hits = 0;
  const std::size_t n = 200;
  for (std::size_t i = 0; i < n; ++i) {
    if (controller.sample(rng).tokens.back() == tanh_index) ++hits;
  }
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(n), 0.55);
}

TEST(Controller, BaselineTracksMeanReward) {
  RnnController controller(small_space(), small_config());
  SplitRng rng(17);
  UpdateStats stats{};
  for (int round = 0; round < 30; ++round) {
    std::vector<EpisodeResult> episodes;
    for (int b = 0; b < 4; ++b) {
      episodes.push_back({controller.sample(rng).tokens, 2.0});
    }
    stats = controller.update(episodes);
  }
  EXPECT_NEAR(stats.baseline, 2.0, 0.05);
  EXPECT_NEAR(stats.mean_reward, 2.0, 1e-12);
  EXPECT_NEAR(stats.mean_advantage, 0.0, 0.05);
}

TEST(Controller, ConstantRewardKeepsPolicyDiverse) {
  // With zero advantage everywhere there is nothing to learn; the policy
  // must not collapse onto a single structure.
  RnnController controller(small_space(), small_config());
  SplitRng rng(19);
  for (int round = 0; round < 40; ++round) {
    std::vector<EpisodeResult> episodes;
    for (int b = 0; b < 4; ++b) {
      episodes.push_back({controller.sample(rng).tokens, 1.0});
    }
    controller.update(episodes);
  }
  std::map<std::vector<std::size_t>, int> counts;
  for (int i = 0; i < 100; ++i) {
    ++counts[controller.sample(rng).tokens];
  }
  EXPECT_GT(counts.size(), 10u);
}

TEST(Controller, EntropyBonusIncreasesDiversity) {
  // Train both controllers to prefer model 0, one with an entropy bonus;
  // the entropy-regularized policy must stay strictly more diverse.
  const auto train_and_count_unique = [](double entropy_bonus) {
    ControllerConfig config = small_config();
    config.entropy_bonus = entropy_bonus;
    RnnController controller(small_space(), config);
    SplitRng rng(23);
    for (int round = 0; round < 80; ++round) {
      std::vector<EpisodeResult> episodes;
      for (int b = 0; b < 6; ++b) {
        const SampledStructure s = controller.sample(rng);
        episodes.push_back(
            {s.tokens, s.choice.model_indices[0] == 0 ? 1.0 : 0.0});
      }
      controller.update(episodes);
    }
    std::map<std::vector<std::size_t>, int> counts;
    for (int i = 0; i < 150; ++i) ++counts[controller.sample(rng).tokens];
    return counts.size();
  };
  EXPECT_GT(train_and_count_unique(0.05), train_and_count_unique(0.0));
}

TEST(Controller, UpdateRejectsEmptyBatch) {
  RnnController controller(small_space(), small_config());
  EXPECT_THROW((void)controller.update({}), Error);
}

TEST(Controller, LogProbRejectsWrongLength) {
  RnnController controller(small_space(), small_config());
  std::vector<std::size_t> too_short = {0, 1};
  EXPECT_THROW((void)controller.log_prob(too_short), Error);
}

TEST(Controller, RejectsBadGamma) {
  ControllerConfig config = small_config();
  config.gamma = 0.0;
  EXPECT_THROW(RnnController(small_space(), config), Error);
  config.gamma = 1.5;
  EXPECT_THROW(RnnController(small_space(), config), Error);
}

TEST(Controller, ParameterCountPositiveAndStable) {
  RnnController controller(small_space(), small_config());
  EXPECT_GT(controller.parameter_count(), 1000u);
  EXPECT_EQ(controller.parameter_count(), controller.parameter_count());
}

}  // namespace
}  // namespace muffin::rl

#include "rl/controller.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "tensor/ops.h"

namespace muffin::rl {

namespace {
constexpr double kMaskedLogit = -1e30;

/// Masked softmax: invalid entries get probability 0.
tensor::Vector masked_softmax(std::span<const double> logits,
                              const std::vector<bool>& mask) {
  tensor::Vector adjusted(logits.begin(), logits.end());
  bool any_valid = false;
  for (std::size_t i = 0; i < adjusted.size(); ++i) {
    if (!mask[i]) {
      adjusted[i] = kMaskedLogit;
    } else {
      any_valid = true;
    }
  }
  MUFFIN_REQUIRE(any_valid, "mask leaves no valid choice");
  return tensor::softmax(adjusted);
}

/// One sample as a 1-row batch for a step head. The heads run through
/// the training entries (forward_batch / backward_batch) on purpose: those
/// never quantize, whereas the inference entry follows MUFFIN_QUANT and
/// would change every search under bf16/int8.
tensor::Matrix one_row(std::span<const double> values) {
  tensor::Matrix row;
  row.resize_for_overwrite(1, values.size());
  std::copy(values.begin(), values.end(), row.row(0).begin());
  return row;
}
}  // namespace

RnnController::RnnController(SearchSpace space, ControllerConfig config)
    : space_(std::move(space)),
      config_(config),
      lstm_(config.embedding_dim, config.hidden_dim),
      embeddings_(0, 0),
      embedding_grad_(0, 0),
      optimizer_(nn::AdamConfig{.learning_rate = config.learning_rate}),
      baseline_(config.baseline_decay) {
  space_.validate();
  MUFFIN_REQUIRE(config_.gamma > 0.0 && config_.gamma <= 1.0,
                 "gamma must be in (0, 1]");
  vocab_sizes_ = space_.vocab_sizes();
  vocab_offsets_.resize(vocab_sizes_.size(), 0);
  std::size_t offset = 0;
  for (std::size_t s = 0; s < vocab_sizes_.size(); ++s) {
    vocab_offsets_[s] = offset;
    offset += vocab_sizes_[s];
  }
  embeddings_.resize(1 + offset, config_.embedding_dim);
  embedding_grad_.resize(1 + offset, config_.embedding_dim);

  SplitRng rng(config_.seed);
  SplitRng lstm_rng = rng.fork("lstm");
  lstm_.init(lstm_rng);
  for (std::size_t s = 0; s < vocab_sizes_.size(); ++s) {
    heads_.push_back(
        std::make_unique<nn::Linear>(config_.hidden_dim, vocab_sizes_[s]));
    SplitRng head_rng = rng.fork("head:" + std::to_string(s));
    heads_.back()->init_xavier(head_rng);
  }
  SplitRng embed_rng = rng.fork("embeddings");
  for (double& v : embeddings_.flat()) {
    v = embed_rng.normal(0.0, 0.1);
  }
}

std::size_t RnnController::embedding_row(std::size_t step,
                                         std::size_t prev_token) const {
  if (step == 0) return 0;  // learned start token
  return 1 + vocab_offsets_[step - 1] + prev_token;
}

SampledStructure RnnController::sample(SplitRng& rng) {
  SampledStructure out;
  lstm_.begin_sequence();
  out.log_prob = 0.0;
  for (std::size_t step = 0; step < vocab_sizes_.size(); ++step) {
    const std::size_t prev = step == 0 ? 0 : out.tokens[step - 1];
    const tensor::Vector hidden =
        lstm_.step(embeddings_.row(embedding_row(step, prev)));
    const tensor::Matrix& logits =
        heads_[step]->forward_batch(one_row(hidden));
    const std::vector<bool> mask = step_mask(space_, step, out.tokens);
    const tensor::Vector probs = masked_softmax(logits.row(0), mask);
    const std::size_t token =
        rng.categorical(std::vector<double>(probs.begin(), probs.end()));
    out.log_prob += std::log(std::max(probs[token], 1e-300));
    out.tokens.push_back(token);
  }
  out.choice = decode(space_, out.tokens);
  return out;
}

std::vector<tensor::Vector> RnnController::replay(
    const std::vector<std::size_t>& tokens) {
  MUFFIN_REQUIRE(tokens.size() == vocab_sizes_.size(),
                 "token sequence length mismatch");
  lstm_.begin_sequence();
  std::vector<tensor::Vector> probs_per_step;
  std::vector<std::size_t> prefix;
  for (std::size_t step = 0; step < tokens.size(); ++step) {
    const std::size_t prev = step == 0 ? 0 : tokens[step - 1];
    const tensor::Vector hidden =
        lstm_.step(embeddings_.row(embedding_row(step, prev)));
    const tensor::Matrix& logits =
        heads_[step]->forward_batch(one_row(hidden));
    const std::vector<bool> mask = step_mask(space_, step, prefix);
    probs_per_step.push_back(masked_softmax(logits.row(0), mask));
    prefix.push_back(tokens[step]);
  }
  return probs_per_step;
}

double RnnController::log_prob(const std::vector<std::size_t>& tokens) {
  const std::vector<tensor::Vector> probs = replay(tokens);
  double total = 0.0;
  for (std::size_t step = 0; step < tokens.size(); ++step) {
    total += std::log(std::max(probs[step][tokens[step]], 1e-300));
  }
  return total;
}

std::vector<nn::ParamView> RnnController::all_params() {
  std::vector<nn::ParamView> params = lstm_.params();
  for (const auto& head : heads_) {
    for (auto& view : head->params()) params.push_back(view);
  }
  params.push_back({embeddings_.flat(), embedding_grad_.flat()});
  return params;
}

UpdateStats RnnController::update(std::span<const EpisodeResult> episodes) {
  MUFFIN_REQUIRE(!episodes.empty(), "update requires at least one episode");
  const std::size_t steps = vocab_sizes_.size();

  // Zero gradients.
  lstm_.zero_grad();
  for (const auto& head : heads_) head->zero_grad();
  embedding_grad_.fill(0.0);

  UpdateStats stats;
  // Baseline b is updated first with the batch mean (so even the first
  // batch has a sensible advantage), then advantages use the EMA value.
  double batch_mean = 0.0;
  for (const EpisodeResult& episode : episodes) {
    batch_mean += episode.reward;
  }
  batch_mean /= static_cast<double>(episodes.size());
  baseline_.update(batch_mean);
  const double baseline = baseline_.value();

  double advantage_sum = 0.0;
  for (const EpisodeResult& episode : episodes) {
    const double advantage = episode.reward - baseline;
    advantage_sum += advantage;
    // Replay the episode to rebuild LSTM caches and per-step probs.
    const std::vector<tensor::Vector> probs = replay(episode.tokens);

    // Per-step gradient at the head output (minimizing -J):
    //   dLoss/dlogit = γ^{T−t−1} · advantage · (π − onehot) / m
    // plus the entropy-bonus term when enabled.
    std::vector<tensor::Vector> grad_h_per_step(
        steps, tensor::Vector(config_.hidden_dim, 0.0));
    for (std::size_t step = 0; step < steps; ++step) {
      const tensor::Vector& pi = probs[step];
      const double discount = std::pow(
          config_.gamma, static_cast<double>(steps - 1 - step));
      const double scale =
          discount * advantage / static_cast<double>(episodes.size());
      tensor::Vector grad_logits(pi.size(), 0.0);
      for (std::size_t v = 0; v < pi.size(); ++v) {
        grad_logits[v] = scale * pi[v];
      }
      grad_logits[episode.tokens[step]] -= scale;

      if (config_.entropy_bonus > 0.0) {
        // Loss includes -β H(π); dH/dlogit_j = -π_j (log π_j + H).
        double entropy = 0.0;
        for (const double p : pi) {
          if (p > 0.0) entropy -= p * std::log(p);
        }
        for (std::size_t v = 0; v < pi.size(); ++v) {
          if (pi[v] <= 0.0) continue;
          grad_logits[v] += config_.entropy_bonus /
                            static_cast<double>(episodes.size()) * pi[v] *
                            (std::log(pi[v]) + entropy);
        }
      }
      const tensor::Matrix& grad_h =
          heads_[step]->backward_batch(one_row(grad_logits));
      grad_h_per_step[step].assign(grad_h.row(0).begin(),
                                   grad_h.row(0).end());
    }

    // BPTT through the LSTM, then route input gradients to embeddings.
    const std::vector<tensor::Vector> grad_inputs =
        lstm_.backward_sequence(grad_h_per_step);
    for (std::size_t step = 0; step < steps; ++step) {
      const std::size_t prev = step == 0 ? 0 : episode.tokens[step - 1];
      const std::size_t row = embedding_row(step, prev);
      for (std::size_t d = 0; d < config_.embedding_dim; ++d) {
        embedding_grad_(row, d) += grad_inputs[step][d];
      }
    }
  }

  // Gradients already carry the 1/m factor; step with batch_size 1.
  std::vector<nn::ParamView> params = all_params();
  optimizer_.step(params, 1);

  stats.mean_reward = batch_mean;
  stats.baseline = baseline;
  stats.mean_advantage =
      advantage_sum / static_cast<double>(episodes.size());
  return stats;
}

std::size_t RnnController::parameter_count() const {
  std::size_t count = lstm_.parameter_count() + embeddings_.size();
  for (const auto& head : heads_) {
    count += head->parameter_count();
  }
  return count;
}

}  // namespace muffin::rl

// Layer abstraction for the nn module.
//
// Layers are batch-first and have one implementation per pass: a row-major
// batch matrix (one sample per row) goes through forward_batch /
// backward_batch for training and forward_batch_inference_into for
// serving, turning per-sample matrix-vector products into per-batch GEMM.
// A single record is a 1-row batch. Each row's arithmetic is independent
// of the other rows, so an n-row batch equals n 1-row calls bit for bit;
// the per-sample reference loops that pin this live in tests/nn.
//
// The training entries return references into workspaces the layer owns
// and reuses from one batch to the next, so a training step allocates
// only while a batch is larger than every batch before it.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "tensor/matrix.h"

namespace muffin::nn {

/// A view onto one parameter block and its gradient accumulator. Optimizers
/// consume these without knowing the layer's internals.
struct ParamView {
  std::span<double> value;
  std::span<double> grad;
};

/// Base class for differentiable layers.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass for a batch (one sample per row). Caches what
  /// backward_batch needs. Never quantizes. The returned matrix is this
  /// layer's output workspace: the reference stays valid, and its
  /// contents unchanged, until this layer's next forward_batch call.
  virtual const tensor::Matrix& forward_batch(const tensor::Matrix& input) = 0;

  /// Batched backward: given dLoss/dOutput rows, accumulate parameter
  /// gradients (summed over rows in ascending row order) and return
  /// dLoss/dInput rows. Must follow forward_batch on the same batch. The
  /// returned matrix is this layer's input-gradient workspace: valid
  /// until this layer's next backward_batch call.
  virtual const tensor::Matrix& backward_batch(
      const tensor::Matrix& grad_output) = 0;

  /// Const, cache-free batched forward (inference only; no backward may
  /// follow) writing into caller-owned storage, so a chain of layers (Mlp)
  /// can ping-pong two scratch matrices instead of allocating one
  /// temporary per layer per batch. `output` must not alias `input`.
  /// Follows the active quant mode (tensor/quant.h) where a layer has
  /// weights; in QuantMode::Off it is bit-identical to forward_batch.
  virtual void forward_batch_inference_into(const tensor::Matrix& input,
                                            tensor::Matrix& output) const = 0;

  /// forward_batch_inference_into into a fresh matrix.
  [[nodiscard]] tensor::Matrix forward_batch_inference(
      const tensor::Matrix& input) const;

  /// Deep copy of this layer's architecture and weights. Gradient
  /// accumulators and forward caches start empty in the clone. A layer
  /// whose weights are borrowed from a mapped artifact clones as another
  /// borrowing layer (sharing the mapping keepalive), which is what lets
  /// engine worker-head clones share artifact pages instead of copying.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  /// Parameter blocks (empty for parameter-free layers).
  virtual std::vector<ParamView> params() { return {}; }

  /// Zero all gradient accumulators.
  virtual void zero_grad() {}

  [[nodiscard]] virtual std::size_t input_dim() const = 0;
  [[nodiscard]] virtual std::size_t output_dim() const = 0;

  /// Total number of trainable scalars.
  [[nodiscard]] std::size_t parameter_count() const;
};

}  // namespace muffin::nn

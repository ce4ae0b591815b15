#include "nn/mlp.h"

#include <algorithm>
#include <cmath>

#include <istream>
#include <ostream>
#include <sstream>

#include "common/error.h"
#include "tensor/ops.h"
#include "tensor/quant.h"

namespace muffin::nn {

std::string MlpSpec::to_string() const {
  std::ostringstream os;
  os << '[' << input_dim;
  for (const std::size_t h : hidden_dims) os << ',' << h;
  os << ',' << output_dim << ']';
  return os.str();
}

std::size_t MlpSpec::parameter_count() const {
  std::size_t count = 0;
  std::size_t prev = input_dim;
  for (const std::size_t h : hidden_dims) {
    count += prev * h + h;
    prev = h;
  }
  count += prev * output_dim + output_dim;
  return count;
}

Mlp::Mlp(MlpSpec spec) : Mlp(std::move(spec), /*defer_storage=*/false) {}

Mlp::Mlp(MlpSpec spec, bool defer_storage) : spec_(std::move(spec)) {
  MUFFIN_REQUIRE(spec_.input_dim > 0, "MLP input_dim must be positive");
  MUFFIN_REQUIRE(spec_.output_dim > 0, "MLP output_dim must be positive");
  for (const std::size_t h : spec_.hidden_dims) {
    MUFFIN_REQUIRE(h > 0, "MLP hidden widths must be positive");
  }
  const auto make_linear = [defer_storage](std::size_t in, std::size_t out) {
    return defer_storage
               ? std::make_unique<Linear>(in, out, Linear::DeferStorage{})
               : std::make_unique<Linear>(in, out);
  };
  std::size_t prev = spec_.input_dim;
  for (const std::size_t h : spec_.hidden_dims) {
    layers_.push_back(make_linear(prev, h));
    layers_.push_back(
        std::make_unique<ActivationLayer>(spec_.hidden_activation, h));
    prev = h;
  }
  layers_.push_back(make_linear(prev, spec_.output_dim));
  if (spec_.output_activation != Activation::Identity) {
    layers_.push_back(std::make_unique<ActivationLayer>(
        spec_.output_activation, spec_.output_dim));
  }
}

Mlp::Mlp(const Mlp& other) : spec_(other.spec_) {
  // Clone layer by layer instead of round-tripping through params():
  // mapped (artifact-backed) layers have no mutable params, and their
  // clones should keep sharing the mapped pages rather than copy them.
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) {
    layers_.push_back(layer->clone());
  }
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this != &other) {
    Mlp copy(other);
    *this = std::move(copy);
  }
  return *this;
}

void Mlp::init(SplitRng& rng) {
  const bool relu_family = spec_.hidden_activation == Activation::Relu ||
                           spec_.hidden_activation == Activation::LeakyRelu;
  for (const auto& layer : layers_) {
    if (auto* linear = dynamic_cast<Linear*>(layer.get())) {
      if (relu_family) {
        linear->init_he(rng);
      } else {
        linear->init_xavier(rng);
      }
    }
  }
}

const tensor::Matrix& Mlp::forward_batch(const tensor::Matrix& input) {
  MUFFIN_REQUIRE(input.cols() == spec_.input_dim,
                 "MLP batch input size mismatch");
  // Each layer reads the previous layer's output workspace in place.
  const tensor::Matrix* current = &input;
  for (const auto& layer : layers_) current = &layer->forward_batch(*current);
  return *current;
}

void Mlp::backward_batch(const tensor::Matrix& grad_output) {
  MUFFIN_REQUIRE(grad_output.cols() == spec_.output_dim,
                 "MLP batch gradient size mismatch");
  const tensor::Matrix* current = &grad_output;
  for (std::size_t l = layers_.size() - 1; l > 0; --l) {
    current = &layers_[l]->backward_batch(*current);
  }
  // The constructor always puts a Linear first; its input gradient would
  // be the network's, which no caller reads.
  static_cast<Linear&>(*layers_.front()).accumulate_grads(*current);
}

tensor::Matrix Mlp::forward_batch_inference(const tensor::Matrix& input) const {
  MUFFIN_REQUIRE(input.cols() == spec_.input_dim,
                 "MLP batch input size mismatch");
  // Ping-pong two scratch matrices through the layer chain: no per-layer
  // temporaries and no copy of the input batch.
  tensor::Matrix ping;
  tensor::Matrix pong;
  const tensor::Matrix* source = &input;
  tensor::Matrix* produced = nullptr;
  for (const auto& layer : layers_) {
    tensor::Matrix& destination = produced == &ping ? pong : ping;
    layer->forward_batch_inference_into(*source, destination);
    produced = &destination;
    source = produced;
  }
  if (produced == nullptr) return input;  // the ctor guarantees >= 1 layer
  return std::move(*produced);
}

tensor::Vector Mlp::forward_inference(std::span<const double> input) const {
  MUFFIN_REQUIRE(input.size() == spec_.input_dim, "MLP input size mismatch");
  tensor::Matrix row;
  row.resize_for_overwrite(1, input.size());
  std::copy(input.begin(), input.end(), row.row(0).begin());
  const tensor::Matrix out = forward_batch_inference(row);
  return tensor::Vector(out.row(0).begin(), out.row(0).end());
}

std::size_t Mlp::predict(std::span<const double> input) const {
  return tensor::argmax(forward_inference(input));
}

std::vector<std::size_t> Mlp::predict_batch(const tensor::Matrix& input) const {
  const tensor::Matrix out = forward_batch_inference(input);
  std::vector<std::size_t> predictions(out.rows());
  for (std::size_t r = 0; r < out.rows(); ++r) {
    predictions[r] = tensor::argmax(out.row(r));
  }
  return predictions;
}

std::vector<ParamView> Mlp::params() {
  std::vector<ParamView> views;
  for (const auto& layer : layers_) {
    for (auto& view : layer->params()) views.push_back(view);
  }
  return views;
}

void Mlp::zero_grad() {
  for (const auto& layer : layers_) layer->zero_grad();
}

std::size_t Mlp::parameter_count() const { return spec_.parameter_count(); }

void Mlp::save(std::ostream& os) const {
  os << "mlp 1\n";
  os << spec_.input_dim << ' ' << spec_.hidden_dims.size();
  for (const std::size_t h : spec_.hidden_dims) os << ' ' << h;
  os << ' ' << spec_.output_dim << ' ' << nn::to_string(spec_.hidden_activation)
     << ' ' << nn::to_string(spec_.output_activation) << '\n';
  os.precision(17);
  for (auto& view : const_cast<Mlp*>(this)->params()) {
    for (const double v : view.value) os << v << ' ';
    os << '\n';
  }
}

Mlp Mlp::load(std::istream& is) {
  std::string magic;
  int version = 0;
  is >> magic >> version;
  MUFFIN_REQUIRE(magic == "mlp" && version == 1,
                 "unrecognized MLP serialization header");
  MlpSpec spec;
  std::size_t hidden_count = 0;
  is >> spec.input_dim >> hidden_count;
  spec.hidden_dims.resize(hidden_count);
  for (std::size_t i = 0; i < hidden_count; ++i) is >> spec.hidden_dims[i];
  std::string hidden_name;
  std::string output_name;
  is >> spec.output_dim >> hidden_name >> output_name;
  MUFFIN_REQUIRE(static_cast<bool>(is), "truncated MLP serialization");
  spec.hidden_activation = activation_from_string(hidden_name);
  spec.output_activation = activation_from_string(output_name);
  Mlp mlp(spec);
  for (auto& view : mlp.params()) {
    for (double& v : view.value) {
      is >> v;
      MUFFIN_REQUIRE(static_cast<bool>(is), "truncated MLP weight data");
    }
  }
  return mlp;
}

namespace {

/// The spec tensor is one f64 row: [input_dim, output_dim, hidden_act,
/// output_act, hidden widths...]. Small exact integers as doubles — the
/// artifact container carries tensors, and this keeps the architecture
/// inside the same validated format as the weights.
constexpr std::size_t kSpecFixedFields = 4;

tensor::Vector encode_spec(const MlpSpec& spec) {
  tensor::Vector row;
  row.reserve(kSpecFixedFields + spec.hidden_dims.size());
  row.push_back(static_cast<double>(spec.input_dim));
  row.push_back(static_cast<double>(spec.output_dim));
  row.push_back(static_cast<double>(spec.hidden_activation));
  row.push_back(static_cast<double>(spec.output_activation));
  for (const std::size_t h : spec.hidden_dims) {
    row.push_back(static_cast<double>(h));
  }
  return row;
}

std::size_t spec_index(std::span<const double> row, std::size_t at,
                       const char* what) {
  const double v = row[at];
  MUFFIN_REQUIRE(v >= 0.0 && v == static_cast<double>(
                                      static_cast<std::size_t>(v)),
                 std::string("artifact MLP spec field is not a valid ") +
                     what);
  return static_cast<std::size_t>(v);
}

Activation spec_activation(std::span<const double> row, std::size_t at) {
  const std::size_t id = spec_index(row, at, "activation id");
  MUFFIN_REQUIRE(id <= static_cast<std::size_t>(Activation::Sigmoid),
                 "artifact MLP spec has an unknown activation id");
  return static_cast<Activation>(id);
}

MlpSpec decode_spec(const data::ArtifactTensor& tensor) {
  const std::span<const double> row = tensor.f64();
  MUFFIN_REQUIRE(tensor.rows == 1 && row.size() >= kSpecFixedFields,
                 "artifact MLP spec tensor has the wrong shape");
  MlpSpec spec;
  spec.input_dim = spec_index(row, 0, "dimension");
  spec.output_dim = spec_index(row, 1, "dimension");
  spec.hidden_activation = spec_activation(row, 2);
  spec.output_activation = spec_activation(row, 3);
  for (std::size_t i = kSpecFixedFields; i < row.size(); ++i) {
    spec.hidden_dims.push_back(spec_index(row, i, "dimension"));
  }
  return spec;
}

/// The linear layers of an Mlp in depth order (activations interleave but
/// carry no weights).
std::vector<Linear*> linear_layers(
    const std::vector<std::unique_ptr<Layer>>& layers) {
  std::vector<Linear*> linears;
  for (const auto& layer : layers) {
    if (auto* linear = dynamic_cast<Linear*>(layer.get())) {
      linears.push_back(linear);
    }
  }
  return linears;
}

/// Fetch and shape-check the i-th linear layer's weight/bias tensors.
std::pair<const data::ArtifactTensor*, const data::ArtifactTensor*>
layer_tensors(const data::Artifact& artifact, const std::string& prefix,
              std::size_t index, const Linear& linear) {
  const data::ArtifactTensor& w =
      artifact.tensor(prefix + ".w" + std::to_string(index));
  const data::ArtifactTensor& b =
      artifact.tensor(prefix + ".b" + std::to_string(index));
  MUFFIN_REQUIRE(w.rows == linear.output_dim() &&
                     w.cols == linear.input_dim(),
                 "artifact weight tensor '" + w.name +
                     "' does not match the spec's layer shape");
  MUFFIN_REQUIRE(b.rows == 1 && b.cols == linear.output_dim(),
                 "artifact bias tensor '" + b.name +
                     "' does not match the spec's layer shape");
  return {&w, &b};
}

/// The i-th layer's int8 scale pair [weight scale, bias scale], written
/// by save_artifact alongside quantized planes.
double layer_scale(const data::Artifact& artifact, const std::string& prefix,
                   std::size_t index, std::size_t slot) {
  const data::ArtifactTensor& scales =
      artifact.tensor(prefix + ".s" + std::to_string(index));
  const std::span<const double> values = scales.f64();
  MUFFIN_REQUIRE(scales.rows == 1 && values.size() == 2,
                 "artifact scale tensor '" + scales.name +
                     "' has the wrong shape");
  const double scale = values[slot];
  MUFFIN_REQUIRE(scale > 0.0 && std::isfinite(scale),
                 "artifact scale tensor '" + scales.name +
                     "' holds a non-positive scale");
  return scale;
}

/// Decode one weight/bias tensor into `out`, dequantizing per its dtype
/// (`slot` picks the int8 scale: 0 = weights, 1 = bias).
void read_tensor_values(const data::Artifact& artifact,
                        const std::string& prefix, std::size_t index,
                        const data::ArtifactTensor& tensor, std::size_t slot,
                        std::span<double> out) {
  switch (tensor.dtype) {
    case data::TensorDtype::F64: {
      const std::span<const double> v = tensor.f64();
      std::copy(v.begin(), v.end(), out.begin());
      break;
    }
    case data::TensorDtype::Bf16: {
      const std::span<const std::uint16_t> v = tensor.bf16();
      for (std::size_t i = 0; i < v.size(); ++i) {
        out[i] = tensor::bf16_to_double(v[i]);
      }
      break;
    }
    case data::TensorDtype::I8: {
      const double scale = layer_scale(artifact, prefix, index, slot);
      const std::span<const std::int8_t> v = tensor.i8();
      for (std::size_t i = 0; i < v.size(); ++i) {
        out[i] = tensor::i8_to_double(v[i], scale);
      }
      break;
    }
  }
}

}  // namespace

void Mlp::save_artifact(data::ArtifactWriter& writer,
                        const std::string& prefix,
                        data::TensorDtype dtype) const {
  // The spec row stays f64 in every mode: it is metadata, a few dozen
  // bytes, and its integers must survive exactly.
  const tensor::Vector spec_row = encode_spec(spec_);
  writer.add_f64(prefix + ".spec", 1, spec_row.size(), spec_row);
  const std::vector<Linear*> linears = linear_layers(layers_);
  for (std::size_t i = 0; i < linears.size(); ++i) {
    const Linear& linear = *linears[i];
    const std::string w_name = prefix + ".w" + std::to_string(i);
    const std::string b_name = prefix + ".b" + std::to_string(i);
    const std::span<const double> w = linear.weight_span();
    const std::span<const double> b = linear.bias_span();
    switch (dtype) {
      case data::TensorDtype::F64: {
        writer.add_f64(w_name, linear.output_dim(), linear.input_dim(), w);
        writer.add_f64(b_name, 1, linear.output_dim(), b);
        break;
      }
      case data::TensorDtype::Bf16: {
        std::vector<std::uint16_t> qw(w.size());
        for (std::size_t k = 0; k < w.size(); ++k) {
          qw[k] = tensor::bf16_from_double(w[k]);
        }
        std::vector<std::uint16_t> qb(b.size());
        for (std::size_t k = 0; k < b.size(); ++k) {
          qb[k] = tensor::bf16_from_double(b[k]);
        }
        writer.add_bf16(w_name, linear.output_dim(), linear.input_dim(), qw);
        writer.add_bf16(b_name, 1, linear.output_dim(), qb);
        break;
      }
      case data::TensorDtype::I8: {
        // One symmetric scale per plane, shipped as a companion f64
        // tensor: [weight scale, bias scale].
        const double w_scale = tensor::i8_scale(w);
        const double b_scale = tensor::i8_scale(b);
        std::vector<std::int8_t> qw(w.size());
        for (std::size_t k = 0; k < w.size(); ++k) {
          qw[k] = tensor::i8_from_double(w[k], w_scale);
        }
        std::vector<std::int8_t> qb(b.size());
        for (std::size_t k = 0; k < b.size(); ++k) {
          qb[k] = tensor::i8_from_double(b[k], b_scale);
        }
        writer.add_i8(w_name, linear.output_dim(), linear.input_dim(), qw);
        writer.add_i8(b_name, 1, linear.output_dim(), qb);
        const double scales[2] = {w_scale, b_scale};
        writer.add_f64(prefix + ".s" + std::to_string(i), 1, 2, scales);
        break;
      }
    }
  }
}

Mlp Mlp::from_artifact(const data::Artifact& artifact,
                       const std::string& prefix) {
  Mlp mlp(decode_spec(artifact.tensor(prefix + ".spec")));
  const std::vector<Linear*> linears = linear_layers(mlp.layers_);
  for (std::size_t i = 0; i < linears.size(); ++i) {
    Linear& linear = *linears[i];
    const auto [w, b] = layer_tensors(artifact, prefix, i, linear);
    read_tensor_values(artifact, prefix, i, *w, 0,
                       linear.weights().flat());
    read_tensor_values(artifact, prefix, i, *b, 1, linear.bias());
  }
  return mlp;
}

Mlp Mlp::map_artifact(const data::Artifact& artifact,
                      const std::string& prefix) {
  Mlp mlp(decode_spec(artifact.tensor(prefix + ".spec")),
          /*defer_storage=*/true);
  const std::vector<Linear*> linears = linear_layers(mlp.layers_);
  // Zero-copy adoption requires raw f64 payloads; a quantized artifact
  // has no mappable doubles to point at, so it loads through the
  // dequantizing heap path instead (still a single pass, still frozen
  // pages for everything the artifact keeps mapped elsewhere).
  for (std::size_t i = 0; i < linears.size(); ++i) {
    const data::ArtifactTensor& w =
        artifact.tensor(prefix + ".w" + std::to_string(i));
    if (w.dtype != data::TensorDtype::F64) {
      return from_artifact(artifact, prefix);
    }
  }
  for (std::size_t i = 0; i < linears.size(); ++i) {
    Linear& linear = *linears[i];
    const auto [w, b] = layer_tensors(artifact, prefix, i, linear);
    // Borrow the artifact's bytes directly: no heap copy of the weights,
    // and the keepalive pins the mapping for this head and its clones.
    linear.adopt_weights(w->f64().data(), b->f64().data(),
                         artifact.keepalive());
  }
  return mlp;
}

bool Mlp::mapped() const {
  for (const auto& layer : layers_) {
    const auto* linear = dynamic_cast<const Linear*>(layer.get());
    if (linear != nullptr && linear->mapped()) return true;
  }
  return false;
}

}  // namespace muffin::nn

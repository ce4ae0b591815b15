#include "nn/layer.h"

namespace muffin::nn {

tensor::Matrix Layer::forward_batch_inference(
    const tensor::Matrix& input) const {
  tensor::Matrix out;
  forward_batch_inference_into(input, out);
  return out;
}

std::size_t Layer::parameter_count() const {
  std::size_t count = 0;
  // params() is logically const but exposes mutable spans; cast for counting.
  for (const auto& view : const_cast<Layer*>(this)->params()) {
    count += view.value.size();
  }
  return count;
}

}  // namespace muffin::nn

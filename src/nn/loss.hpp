// Loss functions. Each caches its forward inputs and produces dL/dlogits
// on backward; losses are means over the batch dimension.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace semcache::nn {

using tensor::Tensor;

/// Fused softmax + cross-entropy over rows of a logits matrix.
class SoftmaxCrossEntropy {
 public:
  /// logits: (N x C); targets: N class indices. Returns mean CE in nats.
  double forward(const Tensor& logits, std::span<const std::int32_t> targets);
  /// Returns dL/dlogits = (softmax - onehot) / N.
  Tensor backward() const;

  /// Softmax probabilities from the last forward (N x C).
  const Tensor& probabilities() const { return probs_; }

 private:
  Tensor probs_;
  std::vector<std::int32_t> targets_;
};

/// Forward-only mean cross-entropy (nats) of `rows` rows of `cols` logits
/// against one target class per row: per row, logsumexp minus the target
/// logit, in one pass over the logits with no copy and no allocation
/// (tensor::max_exp_sum). Like SoftmaxCrossEntropy::forward, a row costs
/// at most -log(1e-12). The serving path's mismatch; the result is the
/// same on every SIMD tier. Training keeps SoftmaxCrossEntropy, which
/// also produces the gradient.
double cross_entropy_mean(const float* logits, std::size_t rows,
                          std::size_t cols,
                          std::span<const std::int32_t> targets);

/// Mean squared error between predictions and targets of equal shape.
class MeanSquaredError {
 public:
  double forward(const Tensor& prediction, const Tensor& target);
  Tensor backward() const;

 private:
  Tensor prediction_;
  Tensor target_;
};

}  // namespace semcache::nn

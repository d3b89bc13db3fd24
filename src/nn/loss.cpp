#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "tensor/ops.hpp"

namespace semcache::nn {

double SoftmaxCrossEntropy::forward(const Tensor& logits,
                                    std::span<const std::int32_t> targets) {
  SEMCACHE_CHECK(logits.rank() == 2, "ce: logits must be rank-2");
  SEMCACHE_CHECK(logits.dim(0) == targets.size(),
                 "ce: batch size mismatch with targets");
  probs_ = tensor::row_softmax(logits);
  targets_.assign(targets.begin(), targets.end());

  double loss = 0.0;
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    const auto t = targets_[i];
    SEMCACHE_CHECK(t >= 0 && static_cast<std::size_t>(t) < logits.dim(1),
                   "ce: target class out of range");
    // Clamp to avoid -inf on (numerically) zero probabilities.
    const double p =
        std::max(static_cast<double>(probs_.at(i, static_cast<std::size_t>(t))),
                 1e-12);
    loss -= std::log(p);
  }
  return loss / static_cast<double>(targets_.size());
}

namespace {
// SoftmaxCrossEntropy clamps each probability at 1e-12; the fused form caps
// the row loss at the same -log(1e-12) so the two agree on hopeless rows.
const double kMaxRowLoss = -std::log(1e-12);
}  // namespace

double cross_entropy_mean(const float* logits, std::size_t rows,
                          std::size_t cols,
                          std::span<const std::int32_t> targets) {
  SEMCACHE_CHECK(rows > 0 && cols > 0, "ce: empty logits");
  SEMCACHE_CHECK(rows == targets.size(),
                 "ce: batch size mismatch with targets");
  double loss = 0.0;
  for (std::size_t i = 0; i < rows; ++i) {
    const auto t = targets[i];
    SEMCACHE_CHECK(t >= 0 && static_cast<std::size_t>(t) < cols,
                   "ce: target class out of range");
    const float* row = logits + i * cols;
    float row_max = 0.0f;
    const float sum = tensor::max_exp_sum(row, cols, row_max);
    const double row_loss =
        (static_cast<double>(row_max) - static_cast<double>(row[t])) +
        std::log(static_cast<double>(sum));
    loss += std::min(row_loss, kMaxRowLoss);
  }
  return loss / static_cast<double>(rows);
}

Tensor SoftmaxCrossEntropy::backward() const {
  SEMCACHE_CHECK(!targets_.empty(), "ce: backward before forward");
  Tensor grad = probs_;
  const auto n = static_cast<float>(targets_.size());
  for (std::size_t i = 0; i < targets_.size(); ++i) {
    grad.at(i, static_cast<std::size_t>(targets_[i])) -= 1.0f;
  }
  float* pg = grad.data();
  const float inv = 1.0f / n;
  for (std::size_t i = 0; i < grad.size(); ++i) pg[i] *= inv;
  return grad;
}

double MeanSquaredError::forward(const Tensor& prediction,
                                 const Tensor& target) {
  SEMCACHE_CHECK(prediction.same_shape(target), "mse: shape mismatch");
  prediction_ = prediction;
  target_ = target;
  double loss = 0.0;
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double d = static_cast<double>(prediction.at(i)) - target.at(i);
    loss += d * d;
  }
  return loss / static_cast<double>(prediction.size());
}

Tensor MeanSquaredError::backward() const {
  SEMCACHE_CHECK(prediction_.size() > 0, "mse: backward before forward");
  Tensor grad = tensor::sub(prediction_, target_);
  const float scale = 2.0f / static_cast<float>(prediction_.size());
  for (std::size_t i = 0; i < grad.size(); ++i) grad.at(i) *= scale;
  return grad;
}

}  // namespace semcache::nn

// First-order optimizers over Parameter lists.
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace semcache::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  Optimizer() = default;
  Optimizer(const Optimizer&) = delete;
  Optimizer& operator=(const Optimizer&) = delete;

  /// Apply one update step from the accumulated gradients.
  virtual void step(std::span<Parameter* const> params) = 0;

  /// Reset all gradients to zero.
  static void zero_grad(std::span<Parameter* const> params);
  /// Scale gradients so their global L2 norm is at most max_norm.
  /// Returns the pre-clip norm.
  static double clip_grad_norm(std::span<Parameter* const> params,
                               double max_norm);
};

/// SGD with optional classical momentum.
class Sgd : public Optimizer {
 public:
  explicit Sgd(double lr, double momentum = 0.0);
  void step(std::span<Parameter* const> params) override;

  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

 private:
  double lr_;
  double momentum_;
  std::vector<tensor::Tensor> velocity_;
};

/// Adam (Kingma & Ba 2015) with bias correction. The per-element update
/// runs in tensor::adam_update; lr must be positive and finite and eps
/// positive and finite, so elements with zero gradient and moments stay
/// exact no-ops.
class Adam : public Optimizer {
 public:
  explicit Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);
  void step(std::span<Parameter* const> params) override;

 private:
  double lr_, beta1_, beta2_, eps_;
  std::size_t t_ = 0;
  std::vector<tensor::Tensor> m_;
  std::vector<tensor::Tensor> v_;
};

}  // namespace semcache::nn

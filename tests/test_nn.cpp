// Unit tests for semcache::nn. The backbone is numerical gradient checking:
// every layer's analytic backward pass is validated against central finite
// differences, which is what makes the explicit-backward design trustworthy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "common/cpu.hpp"
#include "nn/gradcheck.hpp"
#include "nn/gru.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"
#include "semantic/trainer.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace semcache::nn {
namespace {

using tensor::Tensor;

constexpr double kGradTol = 2e-2;  // float32 + central differences

// Gradcheck scaffold: forward -> loss -> backward, then compare.
template <typename Forward>
GradCheckResult check_layer(std::vector<Parameter*> params, Forward forward) {
  // Build a fixed random "loss projection" so the scalar loss exercises all
  // outputs: loss = sum(w ⊙ y).
  Rng rng(99);
  const Tensor y0 = forward();
  const Tensor w = Tensor::uniform(y0.shape(), 1.0f, rng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(forward(), w));
  };
  return gradcheck(loss_fn, params, 1e-3, 0);
}

TEST(GradCheck, LinearLayer) {
  Rng rng(1);
  Linear layer(5, 4, rng);
  const Tensor x = Tensor::uniform({3, 5}, 1.0f, rng);
  Rng wrng(99);
  const Tensor w = Tensor::uniform({3, 4}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(layer.forward(x), w));
  };
  loss_fn();
  Optimizer::zero_grad(layer.parameters());
  layer.forward(x);
  layer.backward(w);  // dL/dy = w for this loss
  const auto result = gradcheck(loss_fn, layer.parameters());
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
  EXPECT_GT(result.checked, 20u);
}

TEST(GradCheck, LinearInputGradient) {
  Rng rng(2);
  Linear layer(4, 3, rng);
  Tensor x = Tensor::uniform({2, 4}, 1.0f, rng);
  Rng wrng(99);
  const Tensor w = Tensor::uniform({2, 3}, 1.0f, wrng);
  // Wrap x as a parameter so gradcheck can perturb it.
  Parameter px("x", x);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(layer.forward(px.value), w));
  };
  layer.forward(px.value);
  px.grad = layer.backward(w);
  Parameter* params[] = {&px};
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

template <typename LayerT>
void check_activation_input_grad() {
  Rng rng(3);
  LayerT layer;
  Parameter px("x", Tensor::uniform({2, 6}, 2.0f, rng));
  Rng wrng(99);
  const Tensor w = Tensor::uniform({2, 6}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(layer.forward(px.value), w));
  };
  layer.forward(px.value);
  px.grad = layer.backward(w);
  Parameter* params[] = {&px};
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, ReluInput) { check_activation_input_grad<ReLU>(); }
TEST(GradCheck, TanhInput) { check_activation_input_grad<Tanh>(); }
TEST(GradCheck, SigmoidInput) { check_activation_input_grad<Sigmoid>(); }

TEST(GradCheck, LayerNormParamsAndInput) {
  Rng rng(4);
  LayerNorm layer(5);
  Parameter px("x", Tensor::uniform({3, 5}, 1.5f, rng));
  Rng wrng(99);
  const Tensor w = Tensor::uniform({3, 5}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(layer.forward(px.value), w));
  };
  Optimizer::zero_grad(layer.parameters());
  layer.forward(px.value);
  px.grad = layer.backward(w);
  std::vector<Parameter*> params = layer.parameters();
  params.push_back(&px);
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, SequentialMlp) {
  Rng rng(5);
  Sequential mlp;
  mlp.add(std::make_unique<Linear>(6, 8, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(8, 3, rng))
      .add(std::make_unique<Tanh>());
  const Tensor x = Tensor::uniform({2, 6}, 1.0f, rng);
  Rng wrng(99);
  const Tensor w = Tensor::uniform({2, 3}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(mlp.forward(x), w));
  };
  Optimizer::zero_grad(mlp.parameters());
  mlp.forward(x);
  mlp.backward(w);
  const auto result = gradcheck(loss_fn, mlp.parameters(), 1e-3, 40);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, EmbeddingGradient) {
  Rng rng(6);
  Embedding emb(10, 4, rng);
  const std::vector<std::int32_t> ids = {2, 7, 2};  // repeated id accumulates
  Rng wrng(99);
  const Tensor w = Tensor::uniform({3, 4}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(emb.forward(ids), w));
  };
  Optimizer::zero_grad(emb.parameters());
  emb.forward(ids);
  emb.backward(w);
  const auto result = gradcheck(loss_fn, emb.parameters());
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, GruFullBptt) {
  Rng rng(7);
  Gru gru(3, 4, rng);
  const Tensor xs = Tensor::uniform({5, 3}, 1.0f, rng);
  Rng wrng(99);
  const Tensor w = Tensor::uniform({5, 4}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(gru.forward(xs), w));
  };
  Optimizer::zero_grad(gru.parameters());
  gru.forward(xs);
  gru.backward(w);
  const auto result = gradcheck(loss_fn, gru.parameters(), 1e-3, 0);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, GruInputGradient) {
  Rng rng(8);
  Gru gru(3, 4, rng);
  Parameter px("xs", Tensor::uniform({4, 3}, 1.0f, rng));
  Rng wrng(99);
  const Tensor w = Tensor::uniform({4, 4}, 1.0f, wrng);
  auto loss_fn = [&]() -> double {
    return static_cast<double>(tensor::dot(gru.forward(px.value), w));
  };
  gru.forward(px.value);
  px.grad = gru.backward(w);
  Parameter* params[] = {&px};
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, SoftmaxCrossEntropy) {
  Rng rng(9);
  Parameter logits("logits", Tensor::uniform({4, 5}, 1.0f, rng));
  const std::vector<std::int32_t> targets = {0, 3, 2, 4};
  SoftmaxCrossEntropy ce;
  auto loss_fn = [&]() -> double {
    return ce.forward(logits.value, targets);
  };
  loss_fn();
  logits.grad = ce.backward();
  Parameter* params[] = {&logits};
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(GradCheck, MeanSquaredError) {
  Rng rng(10);
  Parameter pred("pred", Tensor::uniform({3, 3}, 1.0f, rng));
  const Tensor target = Tensor::uniform({3, 3}, 1.0f, rng);
  MeanSquaredError mse;
  auto loss_fn = [&]() -> double { return mse.forward(pred.value, target); };
  loss_fn();
  pred.grad = mse.backward();
  Parameter* params[] = {&pred};
  const auto result = gradcheck(loss_fn, params);
  EXPECT_TRUE(result.ok(kGradTol)) << "rel err " << result.max_rel_error;
}

TEST(Loss, CrossEntropyKnownValue) {
  // Uniform logits over 4 classes -> loss = ln(4).
  Tensor logits({1, 4});
  SoftmaxCrossEntropy ce;
  const std::vector<std::int32_t> t = {2};
  EXPECT_NEAR(ce.forward(logits, t), std::log(4.0), 1e-6);
}

TEST(Loss, CrossEntropyRejectsBadTarget) {
  Tensor logits({1, 3});
  SoftmaxCrossEntropy ce;
  const std::vector<std::int32_t> t = {3};
  EXPECT_THROW(ce.forward(logits, t), Error);
}

TEST(Loss, FusedCrossEntropyMatchesSoftmaxCrossEntropy) {
  // The forward-only serving CE (logsumexp - target logit, polynomial exp)
  // agrees with the training CE to float rounding, across logit scales
  // and row widths that exercise the 8-lane body and its tail.
  Rng rng(31);
  for (const std::size_t cols : {1u, 5u, 8u, 13u, 48u, 67u}) {
    for (const float scale : {0.1f, 3.0f, 40.0f}) {
      const Tensor logits = Tensor::uniform({6, cols}, scale, rng);
      std::vector<std::int32_t> targets;
      for (std::size_t r = 0; r < 6; ++r) {
        targets.push_back(static_cast<std::int32_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(cols) - 1)));
      }
      SoftmaxCrossEntropy ce;
      const double ref = ce.forward(logits, targets);
      const double got = cross_entropy_mean(logits.data(), 6, cols, targets);
      EXPECT_NEAR(got, ref, 2e-6 * std::max(1.0, ref))
          << cols << " cols, scale " << scale;
    }
  }
}

TEST(Loss, FusedCrossEntropyKnownValueAndValidation) {
  Tensor logits({2, 4});
  const std::vector<std::int32_t> t = {2, 0};
  EXPECT_NEAR(cross_entropy_mean(logits.data(), 2, 4, t), std::log(4.0),
              1e-7);
  // A target 20 below the max costs the gap (the exp sum is float, so
  // 1 + 2e^-20 rounds to 1); one far below costs the -log(1e-12) cap
  // SoftmaxCrossEntropy's clamp implies.
  const float near_row[3] = {0.0f, 20.0f, 0.0f};
  const float far_row[3] = {0.0f, 200.0f, 0.0f};
  const std::vector<std::int32_t> low = {0};
  EXPECT_NEAR(cross_entropy_mean(near_row, 1, 3, low), 20.0, 1e-6);
  EXPECT_NEAR(cross_entropy_mean(far_row, 1, 3, low), -std::log(1e-12),
              1e-12);
  const std::vector<std::int32_t> bad = {4, 0};
  EXPECT_THROW(cross_entropy_mean(logits.data(), 2, 4, bad), Error);
  EXPECT_THROW(cross_entropy_mean(logits.data(), 1, 4, t), Error);
}

TEST(Loss, MseKnownValue) {
  Tensor a({2}, {1, 3});
  Tensor b({2}, {2, 1});
  MeanSquaredError mse;
  EXPECT_DOUBLE_EQ(mse.forward(a, b), (1.0 + 4.0) / 2.0);
}

TEST(Relu, ForwardClampsNegative) {
  ReLU relu;
  Tensor x({1, 3}, {-1, 0, 2});
  EXPECT_TRUE(relu.forward(x).equals(Tensor({1, 3}, {0, 0, 2})));
}

TEST(Sequential, ParametersCollectedInOrder) {
  Rng rng(11);
  Sequential mlp;
  mlp.add(std::make_unique<Linear>(2, 3, rng, "first"))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Linear>(3, 2, rng, "second"));
  const auto params = mlp.parameters();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0]->name, "first.w");
  EXPECT_EQ(params[3]->name, "second.b");
}

TEST(Embedding, OutOfRangeIdThrows) {
  Rng rng(12);
  Embedding emb(5, 2, rng);
  const std::vector<std::int32_t> bad = {5};
  EXPECT_THROW(emb.forward(bad), Error);
  const std::vector<std::int32_t> neg = {-1};
  EXPECT_THROW(emb.forward(neg), Error);
}

TEST(Optimizer, SgdStepDirection) {
  Rng rng(13);
  Parameter p("p", Tensor({2}, {1.0f, 1.0f}));
  p.grad = Tensor({2}, {1.0f, -1.0f});
  Sgd sgd(0.5);
  Parameter* params[] = {&p};
  sgd.step(params);
  EXPECT_FLOAT_EQ(p.value.at(0), 0.5f);
  EXPECT_FLOAT_EQ(p.value.at(1), 1.5f);
}

TEST(Optimizer, SgdMomentumAccumulates) {
  Parameter p("p", Tensor({1}, {0.0f}));
  Sgd sgd(1.0, 0.5);
  Parameter* params[] = {&p};
  p.grad = Tensor({1}, {1.0f});
  sgd.step(params);  // v=1, p=-1
  p.grad = Tensor({1}, {1.0f});
  sgd.step(params);  // v=1.5, p=-2.5
  EXPECT_FLOAT_EQ(p.value.at(0), -2.5f);
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  // Minimize (x - 3)^2 by gradient descent.
  Parameter p("x", Tensor({1}, {-5.0f}));
  Adam adam(0.1);
  Parameter* params[] = {&p};
  for (int i = 0; i < 500; ++i) {
    p.grad = Tensor({1}, {2.0f * (p.value.at(0) - 3.0f)});
    adam.step(params);
  }
  EXPECT_NEAR(p.value.at(0), 3.0f, 1e-2f);
}

TEST(Optimizer, ClipGradNorm) {
  Parameter p("p", Tensor({2}));
  p.grad = Tensor({2}, {3.0f, 4.0f});  // norm 5
  Parameter* params[] = {&p};
  const double pre = Optimizer::clip_grad_norm(params, 1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(tensor::l2_norm(p.grad), 1.0f, 1e-5f);
  // Below the cap: untouched.
  p.grad = Tensor({2}, {0.3f, 0.4f});
  Optimizer::clip_grad_norm(params, 1.0);
  EXPECT_NEAR(tensor::l2_norm(p.grad), 0.5f, 1e-6f);
}

TEST(Optimizer, AdamRejectsNonPositiveEps) {
  EXPECT_THROW(Adam(1e-3, 0.9, 0.999, 0.0), Error);
  EXPECT_THROW(Adam(1e-3, 0.9, 0.999, -1e-8), Error);
  EXPECT_THROW(Adam(1e-3, 0.9, 0.999, std::nan("")), Error);
  EXPECT_THROW(Adam(1e-3, 0.9, 0.999, std::numeric_limits<double>::infinity()),
               Error);
  EXPECT_THROW(Adam(std::numeric_limits<double>::infinity()), Error);
  EXPECT_NO_THROW(Adam(1e-3, 0.9, 0.999, 1e-8));
}

constexpr common::SimdTier kTiers[] = {common::SimdTier::kScalar,
                                       common::SimdTier::kAvx2};

// nn::Adam's per-element update written out plainly: no block skip, one
// element at a time, and the two multiply-adds that Release builds contract
// spelled std::fma.
void reference_adam(const tensor::AdamCoeffs& c, const Tensor& grad,
                    Tensor& m, Tensor& v, Tensor& w) {
  for (std::size_t j = 0; j < w.size(); ++j) {
    const double g = grad.at(j);
    m.at(j) = static_cast<float>(std::fma(c.beta1, m.at(j), (1.0 - c.beta1) * g));
    v.at(j) =
        static_cast<float>(std::fma(c.beta2, v.at(j), (1.0 - c.beta2) * g * g));
    const double mhat = m.at(j) / c.bc1;
    const double vhat = v.at(j) / c.bc2;
    w.at(j) -= static_cast<float>(c.lr * mhat / (std::sqrt(vhat) + c.eps));
  }
}

// Embedding-like gradients: most rows all-zero, a few touched rows (some
// entries -0.0f), and stray -0.0f entries in otherwise untouched rows.
void fill_sparse_grad(Tensor& g, std::size_t cols, Rng& rng) {
  g.fill(0.0f);
  const std::size_t rows = g.size() / cols;
  const std::size_t touched = 1 + rows / 16;
  for (std::size_t t = 0; t < touched; ++t) {
    const auto r = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(rows) - 1));
    for (std::size_t c = 0; c < cols; ++c) {
      g.at(r * cols + c) =
          rng.bernoulli(0.2) ? -0.0f : static_cast<float>(rng.gaussian());
    }
  }
  const auto stray = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(g.size()) - 1));
  g.at(stray) = -0.0f;
}

TEST(Optimizer, AdamKernelMatchesReference) {
  // A 622 x 20 embedding, then sizes that are not multiples of 4 or 8.
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {622, 20}, {13, 1}, {7, 1}, {3, 1}, {1, 1}, {29, 3}, {5, 9}};
  for (const common::SimdTier tier : kTiers) {
    test::TierGuard guard(tier);
    Rng rng(31);
    std::vector<Tensor> grads, w_ref, m_ref, v_ref, w, m, v;
    std::vector<std::unique_ptr<Parameter>> params;
    std::vector<Parameter*> param_ptrs;
    for (const auto& [rows, cols] : shapes) {
      const Tensor init = Tensor::uniform({rows, cols}, 0.5f, rng);
      grads.push_back(Tensor::zeros({rows, cols}));
      w_ref.push_back(init);
      w.push_back(init);
      for (auto* moments : {&m_ref, &v_ref, &m, &v}) {
        moments->push_back(Tensor::zeros({rows, cols}));
      }
      params.push_back(std::make_unique<Parameter>("p", init));
      param_ptrs.push_back(params.back().get());
    }
    Adam adam(3e-3);
    for (std::size_t t = 1; t <= 300; ++t) {
      const tensor::AdamCoeffs c{3e-3, 0.9, 0.999, 1e-8,
                                 1.0 - std::pow(0.9, static_cast<double>(t)),
                                 1.0 - std::pow(0.999, static_cast<double>(t))};
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        // Small tensors also go quiet now and then: all-zero gradients
        // while their moments are still live.
        if (i > 0 && t % 7 == 0) {
          grads[i].fill(0.0f);
        } else {
          fill_sparse_grad(grads[i], shapes[i].second, rng);
        }
        reference_adam(c, grads[i], m_ref[i], v_ref[i], w_ref[i]);
        tensor::adam_update(c, grads[i], m[i], v[i], w[i]);
        params[i]->grad = grads[i];
      }
      adam.step(param_ptrs);
    }
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      SCOPED_TRACE(std::string(common::simd_tier_name(tier)) + " tensor " +
                   std::to_string(i));
      EXPECT_TRUE(test::BitEqual(w[i], w_ref[i]));
      EXPECT_TRUE(test::BitEqual(m[i], m_ref[i]));
      EXPECT_TRUE(test::BitEqual(v[i], v_ref[i]));
      EXPECT_TRUE(test::BitEqual(params[i]->value, w_ref[i]));
    }
  }
}

TEST(Optimizer, ClipGradNormSkipsZeroBlocksExactly) {
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {622, 20}, {13, 1}, {29, 3}, {48, 160}};
  for (const common::SimdTier tier : kTiers) {
    test::TierGuard guard(tier);
    Rng rng(37);
    std::vector<std::unique_ptr<Parameter>> params;
    std::vector<Parameter*> param_ptrs;
    for (const auto& [rows, cols] : shapes) {
      params.push_back(
          std::make_unique<Parameter>("p", Tensor::zeros({rows, cols})));
      fill_sparse_grad(params.back()->grad, cols, rng);
      param_ptrs.push_back(params.back().get());
    }
    // One parameter with no gradient at all.
    params.push_back(std::make_unique<Parameter>("z", Tensor::zeros({17})));
    param_ptrs.push_back(params.back().get());

    double sq = 0.0;
    for (const Parameter* p : param_ptrs) {
      const double n = std::sqrt(tensor::dot(p->grad, p->grad));
      sq += n * n;
    }
    const double expected = std::sqrt(sq);
    const double norm = Optimizer::clip_grad_norm(param_ptrs, 1e30);
    EXPECT_EQ(std::memcmp(&norm, &expected, sizeof(double)), 0)
        << common::simd_tier_name(tier) << ": " << norm << " vs " << expected;
    EXPECT_GT(norm, 0.0);
  }
}

TEST(Optimizer, ZeroGrad) {
  Parameter p("p", Tensor({2}));
  p.grad = Tensor({2}, {1.0f, 2.0f});
  Parameter* params[] = {&p};
  Optimizer::zero_grad(params);
  EXPECT_EQ(p.grad.at(0), 0.0f);
  EXPECT_EQ(p.grad.at(1), 0.0f);
}

TEST(Training, XorConverges) {
  // Classic sanity check: a 2-layer MLP learns XOR.
  Rng rng(21);
  Sequential mlp;
  mlp.add(std::make_unique<Linear>(2, 8, rng))
      .add(std::make_unique<Tanh>())
      .add(std::make_unique<Linear>(8, 2, rng));
  Adam opt(0.02);
  SoftmaxCrossEntropy ce;
  const float inputs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<std::int32_t> labels = {0, 1, 1, 0};
  Tensor x({4, 2});
  for (std::size_t i = 0; i < 4; ++i) {
    x.at(i, 0) = inputs[i][0];
    x.at(i, 1) = inputs[i][1];
  }
  double loss = 0.0;
  for (int epoch = 0; epoch < 800; ++epoch) {
    Optimizer::zero_grad(mlp.parameters());
    loss = ce.forward(mlp.forward(x), labels);
    mlp.backward(ce.backward());
    opt.step(mlp.parameters());
  }
  EXPECT_LT(loss, 0.05);
  const auto pred = tensor::row_argmax(mlp.forward(x));
  EXPECT_EQ(pred, labels);
}

TEST(Training, FinetuneIdenticalAcrossSimdTiers) {
  Rng world_rng(41);
  const text::World world = text::World::generate(text::WorldConfig{}, world_rng);
  std::vector<std::vector<float>> trained;
  for (const common::SimdTier tier : kTiers) {
    test::TierGuard guard(tier);
    Rng rng(43);
    semantic::SemanticCodec codec(
        test::codec_for_world(world, /*embed_dim=*/20, /*feature_dim=*/16), rng);
    std::vector<semantic::Sample> samples;
    for (int i = 0; i < 24; ++i) {
      samples.push_back(
          semantic::CodecTrainer::draw_sample(world, 1, nullptr, rng));
    }
    semantic::CodecTrainer::finetune(codec, samples, /*epochs=*/3, 3e-3, rng,
                                     /*feature_noise=*/0.02);
    trained.push_back(codec.parameters().flatten_values());
  }
  ASSERT_EQ(trained[0].size(), trained[1].size());
  EXPECT_EQ(std::memcmp(trained[0].data(), trained[1].data(),
                        trained[0].size() * sizeof(float)),
            0);
}

TEST(ParameterSet, FlattenUnflattenRoundTrip) {
  Rng rng(31);
  Linear l1(3, 4, rng), l2(4, 2, rng);
  ParameterSet set;
  set.add_all(l1.parameters());
  set.add_all(l2.parameters());
  EXPECT_EQ(set.scalar_count(), 3u * 4 + 4 + 4 * 2 + 2);
  auto flat = set.flatten_values();
  for (auto& f : flat) f += 1.0f;
  set.unflatten_values(flat);
  EXPECT_EQ(set.flatten_values(), flat);
}

TEST(ParameterSet, ApplyDelta) {
  Rng rng(32);
  Linear l(2, 2, rng);
  ParameterSet set(l.parameters());
  const auto before = set.flatten_values();
  std::vector<float> delta(set.scalar_count(), 0.5f);
  set.apply_delta(delta);
  const auto after = set.flatten_values();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(after[i], before[i] + 0.5f);
  }
  std::vector<float> wrong(3);
  EXPECT_THROW(set.apply_delta(wrong), Error);
}

TEST(ParameterSet, SerializeRestoresExactly) {
  Rng rng(33);
  Linear a(3, 3, rng, "m");
  Linear b(3, 3, rng, "m");  // same names/shapes, different weights
  ParameterSet sa(a.parameters());
  ParameterSet sb(b.parameters());
  EXPECT_FALSE(sa.values_equal(sb));
  ByteWriter w;
  sa.serialize(w);
  ByteReader r(w.bytes());
  sb.deserialize(r);
  EXPECT_TRUE(sa.values_equal(sb));
  EXPECT_EQ(w.size(), sa.byte_size());
}

TEST(ParameterSet, DeserializeNameMismatchThrows) {
  Rng rng(34);
  Linear a(2, 2, rng, "alpha");
  Linear b(2, 2, rng, "beta");
  ParameterSet sa(a.parameters());
  ParameterSet sb(b.parameters());
  ByteWriter w;
  sa.serialize(w);
  ByteReader r(w.bytes());
  EXPECT_THROW(sb.deserialize(r), Error);
}

TEST(ParameterSet, CopyValuesAndDiff) {
  Rng rng(35);
  Linear a(2, 3, rng, "m"), b(2, 3, rng, "m");
  ParameterSet sa(a.parameters()), sb(b.parameters());
  sb.copy_values_from(sa);
  EXPECT_TRUE(sa.values_equal(sb));
  EXPECT_FLOAT_EQ(sa.max_abs_diff(sb), 0.0f);
  b.weight().value.at(0) += 0.25f;
  EXPECT_FALSE(sa.values_equal(sb));
  EXPECT_FLOAT_EQ(sa.max_abs_diff(sb), 0.25f);
}

}  // namespace
}  // namespace semcache::nn

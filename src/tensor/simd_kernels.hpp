// Internal seam between the dispatching tensor ops (ops.cpp) and the
// AVX2 translation unit (ops_avx2.cpp), which is the only TU compiled with
// -mavx2 -mfma (and -ffp-contract=off, so the two kernel flavors below have
// deterministic codegen: the *_fma kernels fuse because they spell
// _mm256_fmadd_ps explicitly, the *_muladd kernels round after every
// multiply because the compiler is forbidden from re-fusing them).
//
// Two flavors exist because "bit-identical to the scalar kernels" depends
// on how the scalar kernels were COMPILED: Release (-O3 -march=native with
// GCC's default -ffp-contract=fast) contracts the scalar c += a*b into
// hardware FMA, while the sanitizer configs (-O1) do not. ops.cpp settles
// the question empirically at first use: it runs both flavors against the
// as-built scalar kernel on an adversarial probe (a value pattern where
// fused and unfused accumulation MUST differ in the last bit) and installs
// whichever flavor matches bit-for-bit — or neither, leaving the scalar
// kernels in sole charge. See "SIMD kernels" in the README.
#pragma once

#include <cstddef>

namespace semcache::tensor {
struct AdamCoeffs;  // tensor/ops.hpp
}  // namespace semcache::tensor

namespace semcache::tensor::detail {

/// c (m x n) += a * b, identical contract to the scalar gemm_nn/gemm_tn in
/// ops.cpp: per C element the products accumulate in ascending-k order (SIMD
/// lanes run across output columns, never across k), so for the matching
/// contraction flavor the result is bit-identical to the scalar kernel on
/// any shape. For the nn layout a is row-major (m x k); for the tn layout a
/// is stored (k x m) and read down columns.
using GemmFn = void (*)(std::size_t m, std::size_t k, std::size_t n,
                        const float* a, const float* b, float* c);

/// Row-broadcast epilogues over c (m x n): bias adds, bias_relu adds then
/// clamps at zero. Pure adds/max — no contraction ambiguity, one flavor.
using EpilogueFn = void (*)(std::size_t m, std::size_t n, const float* bias,
                            float* c);

/// One row's log-sum-exp parts (tensor::max_exp_sum): writes max_j row[j]
/// to *row_max and returns sum_j exp(row[j] - max). Unlike the gemm family
/// there is one flavor, because the exp is spelled with explicit fused
/// multiply-adds in both tiers: element j feeds lane j % 8 in ascending j,
/// and the lanes reduce as ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7))
/// — max reduces in the same tree — so the scalar twin in ops.cpp matches
/// the AVX2 kernel bit for bit on every input.
using MaxExpSumFn = float (*)(const float* row, std::size_t n,
                              float* row_max);

/// One Adam step over n elements (tensor::adam_update): g is the gradient,
/// m and v the moments, w the weights, all updated in place. One flavor,
/// because both tiers spell the same operations in the same order, in
/// double: m' = float(fma(b1, m, (1-b1) g)), v' = float(fma(b2, v,
/// ((1-b2) g) g)), then w -= float((lr (m'/bc1)) / (sqrt(v'/bc2) + eps)).
/// Every op is correctly rounded and element-local, so the AVX2 kernel's
/// 4 x double lanes match the scalar twin in ops.cpp bit for bit. Both
/// skip each aligned 8-float block (and the short tail block) whose g, m
/// and v bits are all zero: with m = v = g = +0 the update writes +0, +0
/// and w - (+0) = w, so the skip is exact for any eps > 0 and finite lr.
using AdamFn = void (*)(const AdamCoeffs& c, std::size_t n, const float* g,
                        float* m, float* v, float* w);

/// Elements per zero-skip block of the Adam kernels and tensor::l2_norm.
inline constexpr std::size_t kZeroBlock = 8;

/// Constants of the polynomial exp both max_exp_sum tiers evaluate (the
/// Cephes expf scheme): clamp x at kExpMin so 2^n stays a normal float,
/// n = round(x log2 e), r = x - n ln2 in two fused steps (kExpLn2Hi is
/// exact in 9 bits), e^r by a degree-6 polynomial on [-ln2/2, ln2/2]
/// (~2 ulp), then scale by 2^n built from the exponent bits.
inline constexpr float kExpMin = -87.0f;
inline constexpr float kExpLog2e = 1.44269504088896341f;
inline constexpr float kExpLn2Hi = 0.693359375f;
inline constexpr float kExpLn2Lo = -2.12194440e-4f;
inline constexpr float kExpPoly[6] = {1.9875691500e-4f, 1.3981999507e-3f,
                                      8.3334519073e-3f, 4.1665795894e-2f,
                                      1.6666665459e-1f, 5.0000001201e-1f};

struct Avx2TensorKernels {
  GemmFn gemm_nn_fma;
  GemmFn gemm_nn_muladd;
  GemmFn gemm_tn_fma;
  GemmFn gemm_tn_muladd;
  EpilogueFn bias;
  EpilogueFn bias_relu;
  MaxExpSumFn max_exp_sum;
  AdamFn adam;
};

/// The AVX2 kernel table, or nullptr when this build carries no AVX2 code
/// (non-x86 target, or the compiler refused the ISA flags).
const Avx2TensorKernels* avx2_tensor_kernels();

}  // namespace semcache::tensor::detail

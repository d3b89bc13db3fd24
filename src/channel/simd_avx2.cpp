// AVX2/SSE kernels for the channel plane, compiled with -mavx2 -mfma
// -ffp-contract=off (see CMakeLists.txt) and reached through the table in
// channel/simd.hpp. Every kernel is bit-identical to its scalar reference
// by construction — the only floating-point operations are IEEE-exact
// (compares, selects, one division), the rest is
// integer work — so no equivalence probe is needed (contrast tensor ops).
//
// Demap layout note: a std::complex<double> array is layout-compatible
// with a flat double array [re0, im0, re1, im1, ...]; one 256-bit load
// covers two symbols, and _mm256_movemask_pd yields the compare results in
// exactly that element order.
#include "channel/simd.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

namespace semcache::channel::detail {
namespace {

void demod_bpsk_avx2(const double* sym, std::size_t nsym, std::uint8_t* bits) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= nsym; i += 2) {
    const __m256d v = _mm256_loadu_pd(sym + 2 * i);
    // mask bits: re0, im0, re1, im1; BPSK slices the real lanes only.
    // _CMP_GE_OQ, like the scalar `>= 0.0`, is false on NaN.
    const int m = _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_GE_OQ));
    bits[i] = static_cast<std::uint8_t>(m & 1);
    bits[i + 1] = static_cast<std::uint8_t>((m >> 2) & 1);
  }
  for (; i < nsym; ++i) bits[i] = sym[2 * i] >= 0.0 ? 1 : 0;
}

void demod_qpsk_avx2(const double* sym, std::size_t nsym, std::uint8_t* bits) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 2 <= nsym; i += 2) {
    const __m256d v = _mm256_loadu_pd(sym + 2 * i);
    // QPSK emits (re >= 0, im >= 0) per symbol — the movemask bit order IS
    // the output bit order.
    const int m = _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_GE_OQ));
    std::uint8_t* o = bits + 2 * i;
    o[0] = static_cast<std::uint8_t>(m & 1);
    o[1] = static_cast<std::uint8_t>((m >> 1) & 1);
    o[2] = static_cast<std::uint8_t>((m >> 2) & 1);
    o[3] = static_cast<std::uint8_t>((m >> 3) & 1);
  }
  for (; i < nsym; ++i) {
    bits[2 * i] = sym[2 * i] >= 0.0 ? 1 : 0;
    bits[2 * i + 1] = sym[2 * i + 1] >= 0.0 ? 1 : 0;
  }
}

// Branchless Gray demap of one PAM coordinate v (already divided by the
// constellation scale): slicing at the decision boundaries -2/0/2 gives
// index i = (v>-2)+(v>0)+(v>2); the Gray bits of {00,01,11,10}[i] reduce to
// b0 = v > 0 and b1 = (v > -2) && !(v > 2). All three compares are false on
// NaN, matching the reference scan's tie/NaN behavior (first level wins).
void demod_qam16_avx2(const double* sym, std::size_t nsym, double scale,
                      std::uint8_t* bits) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d lo = _mm256_set1_pd(-2.0);
  const __m256d hi = _mm256_set1_pd(2.0);
  const __m256d sc = _mm256_set1_pd(scale);
  std::size_t i = 0;
  for (; i + 2 <= nsym; i += 2) {
    // The scalar demap divides by the scale; _mm256_div_pd rounds each
    // lane identically, keeping the slicing inputs bit-equal.
    const __m256d v = _mm256_div_pd(_mm256_loadu_pd(sym + 2 * i), sc);
    const int gt0 = _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_GT_OQ));
    const int gtlo = _mm256_movemask_pd(_mm256_cmp_pd(v, lo, _CMP_GT_OQ));
    const int gthi = _mm256_movemask_pd(_mm256_cmp_pd(v, hi, _CMP_GT_OQ));
    const int b1m = gtlo & ~gthi;
    std::uint8_t* o = bits + 4 * i;  // 4 bits per symbol, 2 per coordinate
    o[0] = static_cast<std::uint8_t>(gt0 & 1);
    o[1] = static_cast<std::uint8_t>(b1m & 1);
    o[2] = static_cast<std::uint8_t>((gt0 >> 1) & 1);
    o[3] = static_cast<std::uint8_t>((b1m >> 1) & 1);
    o[4] = static_cast<std::uint8_t>((gt0 >> 2) & 1);
    o[5] = static_cast<std::uint8_t>((b1m >> 2) & 1);
    o[6] = static_cast<std::uint8_t>((gt0 >> 3) & 1);
    o[7] = static_cast<std::uint8_t>((b1m >> 3) & 1);
  }
  for (; i < nsym; ++i) {
    std::uint8_t* o = bits + 4 * i;
    for (int c = 0; c < 2; ++c) {
      const double v = sym[2 * i + c] / scale;
      o[2 * c] = v > 0.0 ? 1 : 0;
      o[2 * c + 1] = (v > -2.0 && !(v > 2.0)) ? 1 : 0;
    }
  }
}

// Soft demaps — per-bit max-log LLRs as floats. Every step is IEEE-exact
// and mirrored by the scalar reference in modulation.cpp expression for
// expression (the double->float rounding of _mm256_cvtpd_ps is the same
// static_cast<float> the scalar path performs), so the tiers twin exactly.

void demod_soft_bpsk_avx2(const double* sym, std::size_t nsym, float* llrs) {
  std::size_t i = 0;
  for (; i + 2 <= nsym; i += 2) {
    const __m128 f = _mm256_cvtpd_ps(_mm256_loadu_pd(sym + 2 * i));
    // Lanes are [re0, im0, re1, im1]; BPSK keeps the real lanes.
    const __m128 re = _mm_shuffle_ps(f, f, _MM_SHUFFLE(3, 1, 2, 0));
    _mm_storel_pi(reinterpret_cast<__m64*>(llrs + i), re);
  }
  for (; i < nsym; ++i) llrs[i] = static_cast<float>(sym[2 * i]);
}

void demod_soft_qpsk_avx2(const double* sym, std::size_t nsym, float* llrs) {
  std::size_t i = 0;
  // QPSK LLR order per symbol is (re, im) — exactly the lane order.
  for (; i + 2 <= nsym; i += 2) {
    _mm_storeu_ps(llrs + 2 * i,
                  _mm256_cvtpd_ps(_mm256_loadu_pd(sym + 2 * i)));
  }
  for (; i < nsym; ++i) {
    llrs[2 * i] = static_cast<float>(sym[2 * i]);
    llrs[2 * i + 1] = static_cast<float>(sym[2 * i + 1]);
  }
}

// Per-PAM-coordinate piecewise max-log LLRs: l0 = v inside |v| <= 2 and
// 2(v -+ 1) outside, l1 = 2 - |v|. mul(2, sub(v, 1)) and sub(2, abs(v))
// match the scalar expression shapes; there is no a*b+c pattern, so
// contraction cannot split the tiers.
void demod_soft_qam16_avx2(const double* sym, std::size_t nsym, double scale,
                           float* llrs) {
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d ntwo = _mm256_set1_pd(-2.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d sc = _mm256_set1_pd(scale);
  const __m256d absmask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  std::size_t i = 0;
  for (; i + 2 <= nsym; i += 2) {
    const __m256d v = _mm256_div_pd(_mm256_loadu_pd(sym + 2 * i), sc);
    const __m256d gt2 = _mm256_cmp_pd(v, two, _CMP_GT_OQ);
    const __m256d ltm2 = _mm256_cmp_pd(v, ntwo, _CMP_LT_OQ);
    const __m256d hi = _mm256_mul_pd(two, _mm256_sub_pd(v, one));
    const __m256d lo = _mm256_mul_pd(two, _mm256_add_pd(v, one));
    __m256d l0 = _mm256_blendv_pd(v, hi, gt2);
    l0 = _mm256_blendv_pd(l0, lo, ltm2);
    const __m256d l1 = _mm256_sub_pd(two, _mm256_and_pd(v, absmask));
    const __m128 f0 = _mm256_cvtpd_ps(l0);
    const __m128 f1 = _mm256_cvtpd_ps(l1);
    // Interleave (l0, l1) per coordinate: output order is
    // l0(re), l1(re), l0(im), l1(im) for each of the two symbols.
    _mm_storeu_ps(llrs + 4 * i, _mm_unpacklo_ps(f0, f1));
    _mm_storeu_ps(llrs + 4 * i + 4, _mm_unpackhi_ps(f0, f1));
  }
  for (; i < nsym; ++i) {
    for (int c = 0; c < 2; ++c) {
      const double v = sym[2 * i + c] / scale;
      double a = v;
      if (v > 2.0) a = 2.0 * (v - 1.0);
      if (v < -2.0) a = 2.0 * (v + 1.0);
      llrs[4 * i + 2 * c] = static_cast<float>(a);
      llrs[4 * i + 2 * c + 1] = static_cast<float>(2.0 - std::fabs(v));
    }
  }
}

// Add-compare-select over all four trellis states at once: lane ns holds
// the metric of next-state ns. Metrics stay <= kViterbiInf + 2 < 2^31, so
// the signed 32-bit compare is exact; B wins only on strictly smaller
// metric, matching the reference decoder's ascending-s first-writer rule.
void viterbi_acs_avx2(const ViterbiTables& tb, const std::uint8_t* rx,
                      std::size_t info_steps, std::uint32_t* metric,
                      std::uint8_t* survivor) {
  const __m128i inf = _mm_set1_epi32(static_cast<int>(kViterbiInf));
  __m128i bma[4], bmb[4];
  for (int r = 0; r < 4; ++r) {
    bma[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tb.bm_a[r]));
    bmb[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(tb.bm_b[r]));
  }
  __m128i m = _mm_loadu_si128(reinterpret_cast<const __m128i*>(metric));
  for (std::size_t t = 0; t < info_steps; ++t) {
    const unsigned r = rx[t];
    // Predecessors per next-state lane: A = (0,2,0,2), B = (1,3,1,3).
    const __m128i ma = _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128i mb = _mm_shuffle_epi32(m, _MM_SHUFFLE(3, 1, 3, 1));
    const __m128i ca = _mm_min_epu32(_mm_add_epi32(ma, bma[r]), inf);
    const __m128i cb = _mm_min_epu32(_mm_add_epi32(mb, bmb[r]), inf);
    const __m128i bwins = _mm_cmpgt_epi32(ca, cb);  // cb strictly smaller
    m = _mm_blendv_epi8(ca, cb, bwins);
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(bwins));
    std::uint8_t* sv = survivor + 4 * t;
    sv[0] = (mask & 1) != 0 ? tb.surv_b[0] : tb.surv_a[0];
    sv[1] = (mask & 2) != 0 ? tb.surv_b[1] : tb.surv_a[1];
    sv[2] = (mask & 4) != 0 ? tb.surv_b[2] : tb.surv_a[2];
    sv[3] = (mask & 8) != 0 ? tb.surv_b[3] : tb.surv_a[3];
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(metric), m);
}

// Weighted ACS: branch metrics rebuilt per step from the expected-output
// tables — cost = w0 where the G1 bit mismatches plus w1 where the G2 bit
// mismatches, via cmpeq/andnot masking (pure integer, bit-identical to the
// scalar form). Survivor selection is the hard kernel's strict-B-wins rule.
void viterbi_acs_soft_avx2(const ViterbiTables& tb, const std::uint8_t* rx,
                           const std::uint8_t* weights,
                           std::size_t info_steps, std::uint32_t* metric,
                           std::uint8_t* survivor) {
  const __m128i inf = _mm_set1_epi32(static_cast<int>(kViterbiInf));
  const __m128i e0a =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tb.exp0_a));
  const __m128i e1a =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tb.exp1_a));
  const __m128i e0b =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tb.exp0_b));
  const __m128i e1b =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(tb.exp1_b));
  __m128i m = _mm_loadu_si128(reinterpret_cast<const __m128i*>(metric));
  for (std::size_t t = 0; t < info_steps; ++t) {
    const __m128i r0 = _mm_set1_epi32(rx[t] & 1);
    const __m128i r1 = _mm_set1_epi32((rx[t] >> 1) & 1);
    const __m128i w0 = _mm_set1_epi32(weights[2 * t]);
    const __m128i w1 = _mm_set1_epi32(weights[2 * t + 1]);
    // andnot(cmpeq(exp, r), w) = w where the bits differ, 0 where equal.
    const __m128i bma =
        _mm_add_epi32(_mm_andnot_si128(_mm_cmpeq_epi32(e0a, r0), w0),
                      _mm_andnot_si128(_mm_cmpeq_epi32(e1a, r1), w1));
    const __m128i bmb =
        _mm_add_epi32(_mm_andnot_si128(_mm_cmpeq_epi32(e0b, r0), w0),
                      _mm_andnot_si128(_mm_cmpeq_epi32(e1b, r1), w1));
    const __m128i ma = _mm_shuffle_epi32(m, _MM_SHUFFLE(2, 0, 2, 0));
    const __m128i mb = _mm_shuffle_epi32(m, _MM_SHUFFLE(3, 1, 3, 1));
    const __m128i ca = _mm_min_epu32(_mm_add_epi32(ma, bma), inf);
    const __m128i cb = _mm_min_epu32(_mm_add_epi32(mb, bmb), inf);
    const __m128i bwins = _mm_cmpgt_epi32(ca, cb);
    m = _mm_blendv_epi8(ca, cb, bwins);
    const int mask = _mm_movemask_ps(_mm_castsi128_ps(bwins));
    std::uint8_t* sv = survivor + 4 * t;
    sv[0] = (mask & 1) != 0 ? tb.surv_b[0] : tb.surv_a[0];
    sv[1] = (mask & 2) != 0 ? tb.surv_b[1] : tb.surv_a[1];
    sv[2] = (mask & 4) != 0 ? tb.surv_b[2] : tb.surv_a[2];
    sv[3] = (mask & 8) != 0 ? tb.surv_b[3] : tb.surv_a[3];
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(metric), m);
}

// Majority vote over byte triples: unaligned loads at offsets 0/1/2 make
// t[j] = in[j] + in[j+1] + in[j+2]; the sums we want sit at j = 0,3,6,9,12
// and one pshufb packs them. Five outputs per iteration; the window reads
// 18 input bytes, so the loop stops 6 outputs early and the scalar tail
// finishes.
void repetition_vote3_avx2(const std::uint8_t* coded, std::size_t out_n,
                           std::uint8_t* out) {
  const __m128i one = _mm_set1_epi8(1);
  const __m128i pick = _mm_setr_epi8(0, 3, 6, 9, 12, -1, -1, -1, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  std::size_t i = 0;
  for (; i + 6 <= out_n; i += 5) {
    const std::uint8_t* p = coded + 3 * i;
    const __m128i s0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i s1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 1));
    const __m128i s2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 2));
    const __m128i t = _mm_add_epi8(_mm_add_epi8(s0, s1), s2);
    const __m128i maj = _mm_and_si128(_mm_cmpgt_epi8(t, one), one);
    const __m128i packed = _mm_shuffle_epi8(maj, pick);
    const std::uint32_t lo =
        static_cast<std::uint32_t>(_mm_cvtsi128_si32(packed));
    std::memcpy(out + i, &lo, 4);
    out[i + 4] = static_cast<std::uint8_t>(_mm_extract_epi8(packed, 4));
  }
  for (; i < out_n; ++i) {
    const std::uint8_t* p = coded + 3 * i;
    const unsigned ones = (p[0] & 1u) + (p[1] & 1u) + (p[2] & 1u);
    out[i] = ones >= 2 ? 1 : 0;
  }
}

constexpr Avx2ChannelKernels kKernels = {
    /*demod_bpsk=*/demod_bpsk_avx2,
    /*demod_qpsk=*/demod_qpsk_avx2,
    /*demod_qam16=*/demod_qam16_avx2,
    /*demod_soft_bpsk=*/demod_soft_bpsk_avx2,
    /*demod_soft_qpsk=*/demod_soft_qpsk_avx2,
    /*demod_soft_qam16=*/demod_soft_qam16_avx2,
    /*viterbi_acs=*/viterbi_acs_avx2,
    /*viterbi_acs_soft=*/viterbi_acs_soft_avx2,
    /*repetition_vote3=*/repetition_vote3_avx2,
};

}  // namespace

const Avx2ChannelKernels* avx2_channel_kernels() { return &kKernels; }

}  // namespace semcache::channel::detail

#else  // no AVX2 in this build: the dispatch sites see an empty table

namespace semcache::channel::detail {
const Avx2ChannelKernels* avx2_channel_kernels() { return nullptr; }
}  // namespace semcache::channel::detail

#endif

// Internal seam between the channel plane's dispatching call sites
// (modulation.cpp, convolutional.cpp, repetition.cpp) and the
// AVX2 translation unit (simd_avx2.cpp), mirroring tensor/simd_kernels.hpp.
//
// Unlike the matmul family, none of these kernels carries a multiply-add
// accumulation chain — they are comparisons, table lookups, one IEEE
// division, and integer arithmetic — so there is
// no contraction ambiguity, no flavor pair, and no probe: a single vector
// implementation is bit-identical to the scalar reference on every input
// (including NaN and signed zero; twin tests pin this). The soft demaps
// keep that property: each LLR is a short chain of individually-exact ops
// (compare/select, subtract, multiply by 2, double->float round), with no
// expression shape a contraction could alter.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/cpu.hpp"
#include "common/log.hpp"

namespace semcache::channel::detail {

/// Precomputed add-compare-select tables for the K=3 rate-1/2 Viterbi
/// trellis, indexed by the received dibit rx = r0 | (r1 << 1). Next-state
/// ns has two predecessors: A = kPredA[ns] (the lower state, which the
/// reference decoder's ascending-s loop visits first and which therefore
/// wins metric ties) and B = kPredB[ns], both consuming input bit ns >> 1.
struct ViterbiTables {
  std::uint32_t bm_a[4][4];  ///< [rx][ns] branch metric via predecessor A
  std::uint32_t bm_b[4][4];  ///< [rx][ns] branch metric via predecessor B
  std::uint8_t surv_a[4];    ///< [ns] packed (input << 4) | predecessor A
  std::uint8_t surv_b[4];    ///< [ns] packed (input << 4) | predecessor B
  /// Expected encoder outputs per next-state (0/1, stored wide for the SSE
  /// soft kernel): exp0/exp1 are the G1/G2 bits of the branch into ns via
  /// predecessor A and B. The weighted (soft/erasure) ACS rebuilds branch
  /// metrics per step from these instead of the precomputed bm tables.
  std::uint32_t exp0_a[4];
  std::uint32_t exp1_a[4];
  std::uint32_t exp0_b[4];
  std::uint32_t exp1_b[4];
};

inline constexpr std::uint8_t kViterbiPredA[4] = {0, 2, 0, 2};
inline constexpr std::uint8_t kViterbiPredB[4] = {1, 3, 1, 3};

/// Saturation ceiling for path metrics. Well below INT32_MAX so the SSE
/// signed compares are exact, far above any reachable metric (2 per step):
/// metrics cap here instead of wrapping on pathologically long frames.
inline constexpr std::uint32_t kViterbiInf = 1u << 30;

/// Run the add-compare-select recursion for the information steps
/// [0, info_steps): metric[4] is updated in place and survivor bytes are
/// written to survivor[t * 4 + ns]. Tail steps stay with the caller (they
/// admit only input 0 and are at most K-1 = 2 steps).
using ViterbiAcsFn = void (*)(const ViterbiTables& tables,
                              const std::uint8_t* rx, std::size_t info_steps,
                              std::uint32_t* metric, std::uint8_t* survivor);

/// Weighted ACS for the soft-decision / depunctured path: step t pays
/// weights[2t] (G1 bit) and weights[2t+1] (G2 bit) for a mismatch against
/// the hard decisions in rx. Weight 1 everywhere reproduces the hard
/// branch metrics exactly; weight 0 is an erasure (depunctured position).
/// Tie-break contract matches ViterbiAcsFn: predecessor A keeps ties.
using ViterbiAcsSoftFn = void (*)(const ViterbiTables& tables,
                                  const std::uint8_t* rx,
                                  const std::uint8_t* weights,
                                  std::size_t info_steps,
                                  std::uint32_t* metric,
                                  std::uint8_t* survivor);

struct Avx2ChannelKernels {
  /// Hard-decision demaps over the raw (re, im) double pairs of a symbol
  /// array; bits out one byte per bit, exactly as the scalar demap writes.
  void (*demod_bpsk)(const double* sym, std::size_t nsym, std::uint8_t* bits);
  void (*demod_qpsk)(const double* sym, std::size_t nsym, std::uint8_t* bits);
  void (*demod_qam16)(const double* sym, std::size_t nsym, double scale,
                      std::uint8_t* bits);
  /// Soft demaps: per-bit max-log LLRs (sign convention: llr >= 0 means
  /// bit 1, matching the hard slicers), one float per output bit. The
  /// expressions are IEEE-exact per operation (compares, selects, one
  /// division, multiply-then-add kept un-contracted), so scalar and AVX2
  /// twin bit-for-bit like the hard demaps.
  void (*demod_soft_bpsk)(const double* sym, std::size_t nsym, float* llrs);
  void (*demod_soft_qpsk)(const double* sym, std::size_t nsym, float* llrs);
  void (*demod_soft_qam16)(const double* sym, std::size_t nsym, double scale,
                           float* llrs);
  ViterbiAcsFn viterbi_acs;
  ViterbiAcsSoftFn viterbi_acs_soft;
  /// out[i] = majority(coded[3i], coded[3i+1], coded[3i+2]) for the
  /// repetition-3 decoder (bytes are 0/1).
  void (*repetition_vote3)(const std::uint8_t* coded, std::size_t out_n,
                           std::uint8_t* out);
};

/// The AVX2 kernel table, or nullptr when this build carries no AVX2 code.
const Avx2ChannelKernels* avx2_channel_kernels();

/// The table when the AVX2 kernels are built AND the active SIMD tier
/// admits them; nullptr means run the scalar path. Logs once on first
/// engagement.
inline const Avx2ChannelKernels* engaged_channel_kernels() {
  const Avx2ChannelKernels* k = avx2_channel_kernels();
  if (k == nullptr ||
      common::active_simd_tier() != common::SimdTier::kAvx2) {
    return nullptr;
  }
  static const bool logged =
      common::log_once("simd.channel", "channel kernels: avx2",
                       common::LogLevel::kInfo);
  (void)logged;
  return k;
}

}  // namespace semcache::channel::detail

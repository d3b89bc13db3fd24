// Golden-vector tests for the channel codecs. Unlike test_channel.cpp,
// which exercises the stack statistically, every expectation here is a
// known value computed independently of the implementation: the CRC-32
// standard check value, the textbook Hamming(7,4) codeword table, and the
// classic impulse response of the K=3 (7,5) convolutional code. These
// pin the wire format — a refactor that changes any emitted bit fails
// loudly even if round-trips still succeed. The noise-key and idiolect
// sections pin the identity-keyed streams the serving path draws from.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "channel/convolutional.hpp"
#include "channel/crc.hpp"
#include "channel/hamming.hpp"
#include "channel/physical.hpp"
#include "channel/pipeline.hpp"
#include "channel/repetition.hpp"
#include "common/bits.hpp"
#include "common/hashing.hpp"
#include "common/noise.hpp"
#include "common/rng.hpp"
#include "core/system.hpp"
#include "test_util.hpp"

namespace semcache::channel {
namespace {

// --- CRC-32 ------------------------------------------------------------

TEST(CrcGolden, StandardCheckValue) {
  // The universal CRC-32/ISO-HDLC check value: crc32("123456789").
  const std::uint8_t msg[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(msg), 0xCBF43926u);
}

TEST(CrcGolden, KnownSingleByteAndEmpty) {
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0x00000000u);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(crc32(a), 0xE8B7BE43u);  // zlib crc32("a")
}

TEST(CrcGolden, AppendVerifyRoundTripAndTamperDetection) {
  BitVec payload = bytes_to_bits(std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE});
  const BitVec framed = crc_append(payload);
  ASSERT_EQ(framed.size(), payload.size() + 32);

  const CrcCheckResult ok = crc_verify(framed);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.payload, payload);

  // Any single flipped bit — payload or CRC field — must be detected.
  for (std::size_t i = 0; i < framed.size(); ++i) {
    BitVec tampered = framed;
    tampered[i] ^= 1;
    EXPECT_FALSE(crc_verify(tampered).ok) << "flip at bit " << i;
  }
}

TEST(CrcGolden, ShortInputRejected) {
  EXPECT_FALSE(crc_verify(BitVec(31, 0)).ok);
}

// --- Hamming(7,4) ------------------------------------------------------

// Textbook codeword table for the p1 p2 d1 p3 d2 d3 d4 layout (bit i of
// the byte = position i+1), indexed by the data nibble d4 d3 d2 d1.
constexpr std::uint8_t kHammingCodewords[16] = {
    0x00, 0x07, 0x19, 0x1E, 0x2A, 0x2D, 0x33, 0x34,
    0x4B, 0x4C, 0x52, 0x55, 0x61, 0x66, 0x78, 0x7F};

TEST(HammingGolden, EncodeMatchesTextbookTable) {
  for (std::uint8_t nibble = 0; nibble < 16; ++nibble) {
    EXPECT_EQ(HammingCode::encode_nibble(nibble), kHammingCodewords[nibble])
        << "nibble " << int(nibble);
  }
}

TEST(HammingGolden, MinimumDistanceIsThree) {
  std::size_t min_distance = 7;
  for (int i = 0; i < 16; ++i) {
    for (int j = i + 1; j < 16; ++j) {
      const auto diff = static_cast<std::uint8_t>(kHammingCodewords[i] ^
                                                  kHammingCodewords[j]);
      min_distance = std::min<std::size_t>(
          min_distance,
          static_cast<std::size_t>(std::popcount(diff)));
    }
  }
  EXPECT_EQ(min_distance, 3u);
}

TEST(HammingGolden, CorrectsEverySingleBitErrorInEveryNibble) {
  for (std::uint8_t nibble = 0; nibble < 16; ++nibble) {
    const std::uint8_t codeword = HammingCode::encode_nibble(nibble);
    EXPECT_EQ(HammingCode::decode_block(codeword), nibble);
    for (int flip = 0; flip < 7; ++flip) {
      const auto corrupted =
          static_cast<std::uint8_t>(codeword ^ (1u << flip));
      EXPECT_EQ(HammingCode::decode_block(corrupted), nibble)
          << "nibble " << int(nibble) << " flip position " << flip;
    }
  }
}

// Stream-level and Viterbi error-correction tests share the seeded-RNG
// fixture; each test gets a fresh deterministic stream.
class ChannelGoldenRng : public test::SeededRngTest {
 protected:
  ChannelGoldenRng() : SeededRngTest(7) {}
};

TEST_F(ChannelGoldenRng, HammingStreamLevelSingleErrorPerBlock) {
  HammingCode code;
  BitVec info = test::random_bits(24, rng_);
  BitVec coded = code.encode(info);
  ASSERT_EQ(coded.size(), code.encoded_length(info.size()));
  // One flipped bit in each 7-bit block is always repaired.
  for (std::size_t block = 0; block < coded.size() / 7; ++block) {
    coded[block * 7 + block % 7] ^= 1;
  }
  EXPECT_EQ(code.decode(coded), info);
}

// --- Convolutional K=3 (7,5) with Viterbi ------------------------------

TEST(ConvolutionalGolden, ImpulseResponseMatchesGenerators) {
  // The classic result for generators (7, 5): input [1] with a zero tail
  // encodes to 11 10 11.
  ConvolutionalCode code;
  const BitVec encoded = code.encode(BitVec{1});
  EXPECT_EQ(encoded, (BitVec{1, 1, 1, 0, 1, 1}));
}

TEST(ConvolutionalGolden, AllZeroInputStaysOnZeroPath) {
  ConvolutionalCode code;
  const BitVec encoded = code.encode(BitVec(5, 0));
  EXPECT_EQ(encoded, BitVec(code.encoded_length(5), 0));
}

TEST(ConvolutionalGolden, ViterbiRoundTripAtSeveralLengths) {
  ConvolutionalCode code;
  for (const std::size_t len : {1u, 4u, 9u, 32u, 100u}) {
    Rng rng(40 + len);
    const BitVec info = test::random_bits(len, rng);
    EXPECT_EQ(code.decode(code.encode(info)), info) << "length " << len;
  }
}

TEST_F(ChannelGoldenRng, ViterbiCorrectsIsolatedBitErrors) {
  // A K=3 code has free distance 5: any single coded-bit error (and well
  // separated pairs) must be corrected exactly.
  ConvolutionalCode code;
  const BitVec info = test::random_bits(20, rng_);
  const BitVec coded = code.encode(info);
  for (std::size_t i = 0; i < coded.size(); ++i) {
    BitVec corrupted = coded;
    corrupted[i] ^= 1;
    EXPECT_EQ(code.decode(corrupted), info) << "flip at coded bit " << i;
  }
}

// --- Identity-keyed channel noise --------------------------------------

// The serving path keys message i's channel noise (i = the system-wide
// message counter, whether the message rides transmit(), a healthy wave or
// a degraded one) as
// NoiseStream(message_noise_key(seed, i)). These goldens pin (a) the key
// derivation, (b) the first raw stream words, and (c) the first normals of
// a stream, all computed by in-repo integer and IEEE arithmetic (no
// standard-library distribution), so they are implementation-independent.
// A refactor that re-keys messages or changes the ziggurat shifts every
// downstream experiment; it must fail here loudly instead of silently.

TEST(NoiseKeyGolden, KeyDerivationPinnedForDefaultSystemSeed) {
  // seed 42 = SystemConfig's default seed.
  constexpr std::uint64_t expect[4] = {
      0x73F4887776860F0FULL, 0x91010D3153BEC669ULL, 0x68C4910986B12C7DULL,
      0x154D9C08C74E79BFULL};
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(message_noise_key(42, i), expect[i]) << "message index " << i;
    EXPECT_EQ(message_noise_key(42, i),
              common::identity_mix(42, kChannelNoiseTag, i, 0, 0));
  }
  static_assert(message_noise_key(42, 0) == 0x73F4887776860F0FULL);
}

TEST(NoiseKeyGolden, KeyDerivationPinnedForGoldenSuiteSeed) {
  constexpr std::uint64_t expect[4] = {
      0xB5D22424522338CEULL, 0xD13C9C059070B991ULL, 0x09F4DBC17ED7C877ULL,
      0xD5BBE66B10DB2663ULL};
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(message_noise_key(7, i), expect[i]) << "message index " << i;
  }
}

TEST(NoiseKeyGolden, StreamWordsPinned) {
  constexpr std::uint64_t expect[4][2] = {
      {0xB045F716A05C9C69ULL, 0x274C33D0162385E9ULL},
      {0xD5689AA492F62623ULL, 0x84945D70E946F6AEULL},
      {0x9CE4252B91FEB75FULL, 0xEA7244D49D04E486ULL},
      {0x5CB2F7568D0169CDULL, 0x70A368BC07940174ULL}};
  for (std::uint64_t i = 0; i < 4; ++i) {
    common::NoiseStream s(message_noise_key(42, i));
    EXPECT_EQ(s.next(), expect[i][0]) << "message index " << i;
    EXPECT_EQ(s.next(), expect[i][1]) << "message index " << i;
  }
  // The state is one word: draw k is splitmix64 of key + k * gamma.
  common::NoiseStream s(5);
  std::uint64_t state = 5;
  for (int k = 0; k < 3; ++k) EXPECT_EQ(s.next(), splitmix64(state));
}

TEST(NoiseKeyGolden, FirstNormalsPinned) {
  constexpr double expect_msg0[6] = {
      0x1.6e740b7f424bbp-2,  -0x1.50adf47f99e53p-1, -0x1.331559a1a5fcp-2,
      0x1.1f273fb278414p-1,  0x1.a288d2389f30dp-1,  0x1.3bb0d5ab11b5ap-2};
  common::NoiseStream s(message_noise_key(42, 0));
  for (int k = 0; k < 6; ++k) EXPECT_EQ(s.gaussian(), expect_msg0[k]) << k;

  constexpr double expect_key0[4] = {
      0x1.5c52033aeaf6fp+0, -0x1.99fc2be064ecp-4, -0x1.42c5c58ae3dccp+0,
      0x1.affecadc9e3ddp-1};
  common::NoiseStream z(0);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(z.gaussian(), expect_key0[k]) << k;
}

TEST(NoiseKeyGolden, RngAdapterDrawsExactlyOneKey) {
  // apply/transmit(Rng&) key one stream from one engine draw and leave the
  // rng one word further along — the contract the adapters document.
  Rng a(42);
  Rng b(42);
  std::vector<Symbol> via_rng(5, Symbol(1.0, -1.0));
  std::vector<Symbol> via_key = via_rng;
  AwgnChannel awgn(3.0);
  awgn.apply(via_rng, a);
  common::NoiseStream noise(b.engine()());
  awgn.distort(via_key, noise, 0);
  EXPECT_EQ(via_rng, via_key);
  EXPECT_EQ(a.engine()(), b.engine()());
}

// --- Idiolect fork ------------------------------------------------------

TEST(IdiolectForkGolden, StableHashTagPinned) {
  // register_user forks the idiolect RNG with the FNV-1a hash of the name
  // (std::hash is implementation-defined); pin one user's tag and the
  // resulting fork seed under the default system seed.
  EXPECT_EQ(core::idiolect_fork_tag("alice"), 0xAA92C3CCA816CDA5ULL);
  EXPECT_EQ(Rng(42).fork(core::idiolect_fork_tag("alice")).seed(),
            0x4A251CFA6409203FULL);
}

// --- Repetition at several rates ---------------------------------------

TEST(RepetitionGolden, MajorityVoteAcrossRates) {
  for (const std::size_t repeats : {3u, 5u, 7u}) {
    RepetitionCode code(repeats);
    EXPECT_DOUBLE_EQ(code.rate(), 1.0 / static_cast<double>(repeats));
    BitVec info{1, 0, 1, 1, 0};
    BitVec coded = code.encode(info);
    ASSERT_EQ(coded.size(), info.size() * repeats);
    // Flip floor(repeats/2) copies of every bit: majority still wins.
    for (std::size_t bit = 0; bit < info.size(); ++bit) {
      for (std::size_t r = 0; r < repeats / 2; ++r) {
        coded[bit * repeats + r] ^= 1;
      }
    }
    EXPECT_EQ(code.decode(coded), info) << "repeats " << repeats;
  }
}

}  // namespace
}  // namespace semcache::channel

#include "dosn/crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "dosn/util/error.hpp"

namespace dosn::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if defined(__x86_64__)

// Four rounds per step: sha256rnds2 runs two rounds on the state held as
// (ABEF, CDGH) register pairs, and sha256msg1/msg2 extend the message
// schedule four words at a time, w[i..i+3] from w[i-16..i-1]. Only this
// function is compiled for the SHA extensions; it runs only after CPUID
// reported them.
__attribute__((target("sha,ssse3,sse4.1"))) void compressShaNi(
    detail::Sha256State& state, const std::uint8_t* data, std::size_t blocks) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i byteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  // state[0..3] = ABCD, state[4..7] = EFGH -> the (ABEF, CDGH) pair that
  // sha256rnds2 takes. Lane names read from the high lane down.
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4)),
      0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    const __m128i abefSaved = abef;
    const __m128i cdghSaved = cdgh;
    // w[g & 3] holds schedule words 4g..4g+3 while step g runs.
    __m128i w[4];
#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byteSwap);
      } else {
        // w[4g..] = msg2(msg1(w[4g-16..], w[4g-12..]) + w[4g-7..4g-4],
        // w[4g-4..]); the middle term straddles two registers.
        const __m128i prev = w[(g + 3) & 3];
        const __m128i sum = _mm_add_epi32(
            _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]),
            _mm_alignr_epi8(prev, w[(g + 2) & 3], 4));
        w[g & 3] = _mm_sha256msg2_epu32(sum, prev);
      }
      __m128i wk = _mm_add_epi32(
          w[g & 3], _mm_load_si128(reinterpret_cast<const __m128i*>(
                        kRoundConstants.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0e);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abefSaved);
    cdgh = _mm_add_epi32(cdgh, cdghSaved);
  }

  // Back from (ABEF, CDGH) to ABCD | EFGH.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool cpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & bit_SHA) != 0;
  return sha && ssse3 && sse41;
}

#endif  // __x86_64__

// Chosen once, on first use; a function-local static, so hashing from
// another translation unit's static initializer is safe.
detail::Sha256Compress activeCompress() {
  static const detail::Sha256Compress compress = [] {
    const detail::Sha256Compress shaNi = detail::sha256CompressShaNi();
    return shaNi != nullptr ? shaNi : &detail::sha256CompressScalar;
  }();
  return compress;
}

}  // namespace

namespace detail {

void sha256CompressScalar(Sha256State& state, const std::uint8_t* data,
                          std::size_t blocks) {
  for (; blocks > 0; --blocks, data += kSha256BlockSize) {
    std::array<std::uint32_t, 64> w{};
    for (int i = 0; i < 16; ++i) {
      w[static_cast<std::size_t>(i)] =
          (static_cast<std::uint32_t>(data[4 * i]) << 24) |
          (static_cast<std::uint32_t>(data[4 * i + 1]) << 16) |
          (static_cast<std::uint32_t>(data[4 * i + 2]) << 8) |
          static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    auto [a, b, c, d, e, f, g, h] = state;
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Sha256Compress sha256CompressShaNi() {
#if defined(__x86_64__)
  if (cpuHasShaNi()) return &compressShaNi;
#endif
  return nullptr;
}

}  // namespace detail

const char* sha256Kernel() {
  return activeCompress() == &detail::sha256CompressScalar ? "portable"
                                                           : "sha-ni";
}

Sha256::Sha256() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

Sha256& Sha256::update(util::BytesView data) {
  if (finished_) throw util::CryptoError("Sha256: update after finish");
  // An empty view may carry a null pointer, which memcpy must not get.
  if (data.empty()) return *this;
  const detail::Sha256Compress compress = activeCompress();
  totalLen_ += data.size();
  std::size_t offset = 0;
  if (bufferLen_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - bufferLen_);
    std::memcpy(buffer_.data() + bufferLen_, data.data(), take);
    bufferLen_ += take;
    offset += take;
    if (bufferLen_ == buffer_.size()) {
      compress(state_, buffer_.data(), 1);
      bufferLen_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - offset) / kSha256BlockSize;
  if (blocks > 0) {
    compress(state_, data.data() + offset, blocks);
    offset += blocks * kSha256BlockSize;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    bufferLen_ = data.size() - offset;
  }
  return *this;
}

Digest Sha256::finish() {
  if (finished_) throw util::CryptoError("Sha256: finish called twice");
  const std::uint64_t bitLen = totalLen_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::array<std::uint8_t, 72> pad{};
  pad[0] = 0x80;
  const std::size_t padLen =
      (bufferLen_ < 56) ? (56 - bufferLen_) : (120 - bufferLen_);
  for (std::size_t i = 0; i < 8; ++i) {
    pad[padLen + i] = static_cast<std::uint8_t>(bitLen >> (8 * (7 - i)));
  }
  update(util::BytesView(pad.data(), padLen + 8));
  finished_ = true;

  Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest sha256(util::BytesView data) { return Sha256{}.update(data).finish(); }

util::Bytes sha256Bytes(util::BytesView data) {
  return digestToBytes(sha256(data));
}

util::Bytes digestToBytes(const Digest& d) {
  return util::Bytes(d.begin(), d.end());
}

}  // namespace dosn::crypto

// SHA-256 (FIPS 180-4), streaming and one-shot.
//
// Two block functions compute the same compression: a portable scalar one,
// and on x86-64 one built from the SHA-NI instructions (sha256rnds2,
// sha256msg1, sha256msg2). Sha256 picks the SHA-NI function when CPUID
// reports the SHA, SSSE3 and SSE4.1 extensions, decided once per process on
// first use (so static initializers may hash), and the scalar one otherwise.
// Nothing forces either path; the scalar function stays as the fallback and
// as the oracle the differential tests compare the SHA-NI function with.
//
// Simulation-grade crypto notice: this is a from-scratch reproduction
// implementation — unaudited and not constant-time. Do not protect real data
// with it. (Applies to every header in dosn/crypto and dosn/pkcrypto.)
#pragma once

#include <array>
#include <cstdint>

#include "dosn/util/bytes.hpp"

namespace dosn::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256();

  /// Absorbs more input.
  Sha256& update(util::BytesView data);

  /// Finalizes and returns the digest. The object must not be reused after.
  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kSha256BlockSize> buffer_{};
  std::size_t bufferLen_ = 0;
  std::uint64_t totalLen_ = 0;
  bool finished_ = false;
};

/// One-shot convenience.
Digest sha256(util::BytesView data);

/// One-shot returning an owning buffer (handy for codec APIs).
util::Bytes sha256Bytes(util::BytesView data);

/// Digest -> Bytes conversion.
util::Bytes digestToBytes(const Digest& d);

/// The block function Sha256 runs in this process: "sha-ni" or "portable".
const char* sha256Kernel();

namespace detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// A block function: absorbs `blocks` consecutive 64-byte blocks at `data`
/// into `state`.
using Sha256Compress = void (*)(Sha256State& state, const std::uint8_t* data,
                                std::size_t blocks);

/// The portable scalar block function.
void sha256CompressScalar(Sha256State& state, const std::uint8_t* data,
                          std::size_t blocks);

/// The SHA-NI block function, or nullptr if the CPU lacks the SHA, SSSE3 or
/// SSE4.1 extensions or the build does not target x86-64.
Sha256Compress sha256CompressShaNi();

}  // namespace detail

}  // namespace dosn::crypto

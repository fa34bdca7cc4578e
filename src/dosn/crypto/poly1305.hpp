// Poly1305 one-time authenticator (RFC 8439).
#pragma once

#include <array>
#include <cstdint>

#include "dosn/util/bytes.hpp"

namespace dosn::crypto {

inline constexpr std::size_t kPolyKeySize = 32;
inline constexpr std::size_t kPolyTagSize = 16;

using PolyTag = std::array<std::uint8_t, kPolyTagSize>;

/// Streaming Poly1305: update() absorbs input in pieces of any size, and
/// finish() returns the tag poly1305() computes over their concatenation.
class Poly1305 {
 public:
  /// Throws CryptoError unless the one-time key is 32 bytes.
  explicit Poly1305(util::BytesView key);

  Poly1305& update(util::BytesView data);
  /// Pads the last partial block and returns the tag. Call once.
  PolyTag finish();

 private:
  /// Absorbs one 16-byte block; `hibit` is 1 << 24 for a full block and 0
  /// for the padded final one.
  void block(const std::uint8_t* data, std::uint32_t hibit);

  std::uint32_t r0_, r1_, r2_, r3_, r4_;
  std::uint32_t s1_, s2_, s3_, s4_;
  std::uint32_t h0_ = 0, h1_ = 0, h2_ = 0, h3_ = 0, h4_ = 0;
  std::array<std::uint8_t, 16> pad_;  // the key's second half, added last
  std::array<std::uint8_t, 16> buffer_{};
  std::size_t bufferLen_ = 0;
};

/// Computes the Poly1305 tag of `message` under a 32-byte one-time key.
PolyTag poly1305(util::BytesView key, util::BytesView message);

}  // namespace dosn::crypto

// ChaCha20 stream cipher (RFC 8439). The library's symmetric-key encryption
// primitive (paper §III-B): same key encrypts and decrypts.
#pragma once

#include <array>
#include <cstdint>

#include "dosn/util/bytes.hpp"

namespace dosn::crypto {

inline constexpr std::size_t kChaChaKeySize = 32;
inline constexpr std::size_t kChaChaNonceSize = 12;

/// XORs the keystream into `data` (encryption == decryption).
/// `counter` is the initial 32-bit block counter (RFC 8439 uses 1 for AEAD
/// payloads, 0 for the Poly1305 one-time key block).
util::Bytes chacha20Xor(util::BytesView key, util::BytesView nonce,
                        std::uint32_t counter, util::BytesView data);

/// chacha20Xor over `data` in place.
void chacha20XorInPlace(util::BytesView key, util::BytesView nonce,
                        std::uint32_t counter, std::span<std::uint8_t> data);

/// Produces one 64-byte keystream block (used to derive Poly1305 keys).
std::array<std::uint8_t, 64> chacha20Block(util::BytesView key,
                                           util::BytesView nonce,
                                           std::uint32_t counter);

}  // namespace dosn::crypto

#include "dosn/crypto/chacha20.hpp"

#include "dosn/util/error.hpp"

namespace dosn::crypto {

namespace {

std::uint32_t rotl(std::uint32_t x, int n) { return (x << n) | (x >> (32 - n)); }

void quarterRound(std::array<std::uint32_t, 16>& s, int a, int b, int c, int d) {
  s[a] += s[b];
  s[d] = rotl(s[d] ^ s[a], 16);
  s[c] += s[d];
  s[b] = rotl(s[b] ^ s[c], 12);
  s[a] += s[b];
  s[d] = rotl(s[d] ^ s[a], 8);
  s[c] += s[d];
  s[b] = rotl(s[b] ^ s[c], 7);
}

std::uint32_t load32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

std::array<std::uint8_t, 64> chacha20Block(util::BytesView key,
                                           util::BytesView nonce,
                                           std::uint32_t counter) {
  if (key.size() != kChaChaKeySize) {
    throw util::CryptoError("chacha20: key must be 32 bytes");
  }
  if (nonce.size() != kChaChaNonceSize) {
    throw util::CryptoError("chacha20: nonce must be 12 bytes");
  }
  std::array<std::uint32_t, 16> state = {
      0x61707865, 0x3320646e, 0x79622d32, 0x6b206574,
      load32(&key[0]),  load32(&key[4]),  load32(&key[8]),  load32(&key[12]),
      load32(&key[16]), load32(&key[20]), load32(&key[24]), load32(&key[28]),
      counter, load32(&nonce[0]), load32(&nonce[4]), load32(&nonce[8])};
  std::array<std::uint32_t, 16> working = state;
  for (int round = 0; round < 10; ++round) {
    quarterRound(working, 0, 4, 8, 12);
    quarterRound(working, 1, 5, 9, 13);
    quarterRound(working, 2, 6, 10, 14);
    quarterRound(working, 3, 7, 11, 15);
    quarterRound(working, 0, 5, 10, 15);
    quarterRound(working, 1, 6, 11, 12);
    quarterRound(working, 2, 7, 8, 13);
    quarterRound(working, 3, 4, 9, 14);
  }
  std::array<std::uint8_t, 64> out{};
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint32_t v = working[i] + state[i];
    out[4 * i + 0] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
  return out;
}

util::Bytes chacha20Xor(util::BytesView key, util::BytesView nonce,
                        std::uint32_t counter, util::BytesView data) {
  util::Bytes out(data.begin(), data.end());
  chacha20XorInPlace(key, nonce, counter, out);
  return out;
}

void chacha20XorInPlace(util::BytesView key, util::BytesView nonce,
                        std::uint32_t counter, std::span<std::uint8_t> data) {
  if (key.size() != kChaChaKeySize) {
    throw util::CryptoError("chacha20: key must be 32 bytes");
  }
  if (nonce.size() != kChaChaNonceSize) {
    throw util::CryptoError("chacha20: nonce must be 12 bytes");
  }
  std::size_t offset = 0;
  while (offset < data.size()) {
    const auto block = chacha20Block(key, nonce, counter++);
    const std::size_t take = std::min<std::size_t>(64, data.size() - offset);
    for (std::size_t i = 0; i < take; ++i) data[offset + i] ^= block[i];
    offset += take;
  }
}

}  // namespace dosn::crypto

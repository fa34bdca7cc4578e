#include "dosn/crypto/aead.hpp"

#include <algorithm>

#include "dosn/crypto/chacha20.hpp"
#include "dosn/crypto/poly1305.hpp"
#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::crypto {

namespace {

// The Poly1305 tag over aad || pad16 || ct || pad16 || len(aad) || len(ct)
// (RFC 8439), streamed piece by piece. The one-time key is the first half of
// keystream block 0.
PolyTag aeadTag(util::BytesView key, util::BytesView nonce,
                util::BytesView aad, util::BytesView ciphertext) {
  static constexpr std::uint8_t kZeros[16] = {};
  const auto pad16 = [](std::size_t n) {
    return util::BytesView(kZeros, (16 - n % 16) % 16);
  };
  const auto block = chacha20Block(key, nonce, 0);
  Poly1305 mac(util::BytesView(block.data(), kPolyKeySize));
  mac.update(aad).update(pad16(aad.size()));
  mac.update(ciphertext).update(pad16(ciphertext.size()));
  mac.update(util::encodeU64(aad.size()));
  mac.update(util::encodeU64(ciphertext.size()));
  return mac.finish();
}

// Writes ciphertext || tag into `out`, which is exactly that long.
void sealInto(std::span<std::uint8_t> out, util::BytesView key,
              util::BytesView nonce, util::BytesView plaintext,
              util::BytesView aad) {
  const std::span<std::uint8_t> ciphertext = out.first(plaintext.size());
  std::copy(plaintext.begin(), plaintext.end(), ciphertext.begin());
  chacha20XorInPlace(key, nonce, 1, ciphertext);
  const PolyTag tag = aeadTag(key, nonce, aad, ciphertext);
  std::copy(tag.begin(), tag.end(), out.begin() + plaintext.size());
}

}  // namespace

util::Bytes aeadSeal(util::BytesView key, util::BytesView nonce,
                     util::BytesView plaintext, util::BytesView aad) {
  util::Bytes sealed(plaintext.size() + kPolyTagSize);
  sealInto(sealed, key, nonce, plaintext, aad);
  return sealed;
}

std::optional<util::Bytes> aeadOpen(util::BytesView key, util::BytesView nonce,
                                    util::BytesView sealed,
                                    util::BytesView aad) {
  if (sealed.size() < kPolyTagSize) return std::nullopt;
  const util::BytesView ciphertext = sealed.first(sealed.size() - kPolyTagSize);
  const util::BytesView tag = sealed.last(kPolyTagSize);
  const PolyTag expected = aeadTag(key, nonce, aad, ciphertext);
  if (!util::constantTimeEqual(util::BytesView(expected), tag)) return std::nullopt;
  return chacha20Xor(key, nonce, 1, ciphertext);
}

util::Bytes sealWithNonce(util::BytesView key, util::BytesView plaintext,
                          util::Rng& rng, util::BytesView aad) {
  // nonce || ciphertext || tag, in one buffer.
  util::Bytes box(kChaChaNonceSize + plaintext.size() + kPolyTagSize);
  rng.fill(box.data(), kChaChaNonceSize);
  const std::span<std::uint8_t> all(box);
  sealInto(all.subspan(kChaChaNonceSize), key, all.first(kChaChaNonceSize),
           plaintext, aad);
  return box;
}

std::optional<util::Bytes> openWithNonce(util::BytesView key,
                                         util::BytesView box,
                                         util::BytesView aad) {
  if (box.size() < kChaChaNonceSize + kPolyTagSize) return std::nullopt;
  return aeadOpen(key, box.first(kChaChaNonceSize),
                  box.subspan(kChaChaNonceSize), aad);
}

}  // namespace dosn::crypto

#include "dosn/crypto/hmac.hpp"

#include <array>

namespace dosn::crypto {

HmacSha256::HmacSha256(util::BytesView key) {
  std::array<std::uint8_t, kSha256BlockSize> block{};
  if (key.size() > block.size()) {
    const Digest kd = sha256(key);
    std::copy(kd.begin(), kd.end(), block.begin());
  } else {
    std::copy(key.begin(), key.end(), block.begin());
  }

  std::array<std::uint8_t, kSha256BlockSize> ipad{};
  std::array<std::uint8_t, kSha256BlockSize> opad{};
  for (std::size_t i = 0; i < block.size(); ++i) {
    ipad[i] = block[i] ^ 0x36;
    opad[i] = block[i] ^ 0x5c;
  }
  inner_.update(util::BytesView(ipad));
  outer_.update(util::BytesView(opad));
}

HmacSha256& HmacSha256::update(util::BytesView data) {
  inner_.update(data);
  return *this;
}

Digest HmacSha256::finish() {
  const Digest inner = inner_.finish();
  return outer_.update(util::BytesView(inner)).finish();
}

Digest hmacSha256(util::BytesView key, util::BytesView message) {
  return HmacSha256(key).update(message).finish();
}

util::Bytes hmacSha256Bytes(util::BytesView key, util::BytesView message) {
  return digestToBytes(hmacSha256(key, message));
}

util::Bytes prf(util::BytesView secret, util::BytesView input) {
  return hmacSha256Bytes(secret, input);
}

bool verifyHmacSha256(util::BytesView key, util::BytesView message,
                      util::BytesView tag) {
  const Digest expected = hmacSha256(key, message);
  return util::constantTimeEqual(util::BytesView(expected), tag);
}

}  // namespace dosn::crypto

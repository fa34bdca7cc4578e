#include "dosn/crypto/hkdf.hpp"

#include "dosn/crypto/hmac.hpp"
#include "dosn/util/error.hpp"

namespace dosn::crypto {

util::Bytes hkdfExtract(util::BytesView salt, util::BytesView ikm) {
  return hmacSha256Bytes(salt, ikm);
}

util::Bytes hkdfExpand(util::BytesView prk, util::BytesView info,
                       std::size_t length) {
  if (length > 255 * kSha256DigestSize) {
    throw util::CryptoError("hkdfExpand: length too large");
  }
  util::Bytes okm;
  okm.reserve(length);
  // T(i) = HMAC(prk, T(i-1) || info || i), each from a copy of one keyed
  // HMAC; T(0) is empty.
  const HmacSha256 keyed(prk);
  Digest previous{};
  for (std::uint8_t counter = 1; okm.size() < length; ++counter) {
    HmacSha256 mac = keyed;
    if (counter > 1) mac.update(util::BytesView(previous));
    previous = mac.update(info).update({&counter, 1}).finish();
    const std::size_t take = std::min(previous.size(), length - okm.size());
    okm.insert(okm.end(), previous.begin(),
               previous.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return okm;
}

util::Bytes hkdf(util::BytesView ikm, util::BytesView salt,
                 util::BytesView info, std::size_t length) {
  // deriveKey extracts with an empty salt on every call: key that HMAC once
  // and copy it, as hkdfExpand copies its keyed HMAC per block.
  static const HmacSha256 emptySalt{util::BytesView{}};
  HmacSha256 extract = salt.empty() ? emptySalt : HmacSha256(salt);
  const Digest prk = extract.update(ikm).finish();
  return hkdfExpand(util::BytesView(prk), info, length);
}

util::Bytes deriveKey(util::BytesView secret, std::string_view label) {
  return hkdf(secret, {}, util::asBytes(label), 32);
}

}  // namespace dosn::crypto

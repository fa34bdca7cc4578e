// HMAC-SHA256 (RFC 2104) and the PRF abstraction the paper's §III-F uses:
// Hummingbird derives message keys by applying "a combination of a PRF and a
// hash function" to a message part — prf() here is that PRF family f_s(x).
#pragma once

#include "dosn/crypto/sha256.hpp"
#include "dosn/util/bytes.hpp"

namespace dosn::crypto {

/// Streaming HMAC-SHA256: update() absorbs the message in pieces. A keyed
/// instance may be copied before any update to MAC several messages under
/// one key without redoing the key schedule: both padded-key blocks are
/// absorbed at construction.
class HmacSha256 {
 public:
  explicit HmacSha256(util::BytesView key);

  HmacSha256& update(util::BytesView data);
  /// HMAC of everything absorbed. Call once.
  Digest finish();

 private:
  Sha256 inner_;  // keyed with ipad, then the message
  Sha256 outer_;  // keyed with opad
};

/// HMAC-SHA256 over the message with the given key (any key length).
Digest hmacSha256(util::BytesView key, util::BytesView message);

/// Convenience returning an owning buffer.
util::Bytes hmacSha256Bytes(util::BytesView key, util::BytesView message);

/// The PRF family f_s(x) used throughout the library (instantiated as
/// HMAC-SHA256). `secret` is s, `input` is x.
util::Bytes prf(util::BytesView secret, util::BytesView input);

/// Verifies a MAC in constant time.
bool verifyHmacSha256(util::BytesView key, util::BytesView message,
                      util::BytesView tag);

}  // namespace dosn::crypto

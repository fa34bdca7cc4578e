// Hybrid encryption ACL (paper §III-F): "combines the convenience of a
// public-key encryption with the high speed of a symmetric-key encryption" —
// the payload is sealed once under a fresh symmetric data key, and only that
// 32-byte key is wrapped asymmetrically for the audience. The wrap layer is
// pluggable, mirroring the survey's examples: per-member public keys
// (Frientegrity/Hummingbird style), CP-ABE (Persona/Cachet), or IBBE.
#pragma once

#include <array>
#include <cstring>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dosn/abe/cpabe.hpp"
#include "dosn/crypto/sha256.hpp"
#include "dosn/ibbe/ibbe.hpp"
#include "dosn/privacy/access_controller.hpp"
#include "dosn/privacy/publickey_acl.hpp"

namespace dosn::privacy {

enum class WrapScheme {
  kPublicKey,  // wrap per member under ElGamal
  kCpAbe,      // wrap once under the group attribute
  kIbbe,       // wrap per member via identity keys
};

std::string wrapSchemeName(WrapScheme scheme);

class HybridAcl final : public GroupAccessController {
 public:
  HybridAcl(const pkcrypto::DlogGroup& group, util::Rng& rng, WrapScheme wrap);

  std::string schemeName() const override {
    return "hybrid+" + wrapSchemeName(wrap_);
  }

  /// Issues the user's ElGamal key pair, whatever the wrap, then adds them.
  void addMember(const GroupId& id, const UserId& user) override;
  RevocationReport removeMember(const GroupId& id,
                                const UserId& user) override;

  Envelope encrypt(const GroupId& id, util::BytesView plaintext,
                   util::Rng& rng) override;
  std::optional<util::Bytes> decrypt(const UserId& reader,
                                     const Envelope& envelope) override;

 private:
  using DataKey = std::array<std::uint8_t, 32>;

  // What the owner keeps beside each retained envelope, in history order.
  struct Kept {
    DataKey dataKey;  // its own key to the payload
    // SHA-256 of the wrapped key: the unwrap memo's key (pk and IBBE wraps;
    // zero for CP-ABE, which is not memoized).
    crypto::Digest wrapDigest;
  };

  // A payload sealed under a fresh data key wrapped for the group.
  struct Sealed {
    util::Bytes blob;  // bytes(wrapped key) || bytes(sealed payload)
    Kept kept;
  };

  struct DigestHash {
    std::size_t operator()(const crypto::Digest& d) const {
      std::size_t h;
      std::memcpy(&h, d.data(), sizeof h);  // a digest is already uniform
      return h;
    }
  };
  using Unwraps = std::vector<std::pair<UserId, std::optional<util::Bytes>>>;

  /// Wraps the data key for the group's current membership.
  util::Bytes wrapKey(const GroupId& id, const Group& g,
                      util::BytesView dataKey, util::Rng& rng);
  /// Draws a data key, wraps it for the group and seals `plaintext` under it.
  Sealed seal(const GroupId& id, const Group& g, util::BytesView plaintext,
              util::Rng& rng);
  /// Unwraps as `reader`; std::nullopt if not addressed. Memoized for the
  /// pk and IBBE wraps (see unwrapMemo_) under the SHA-256 of `wrapped`:
  /// `keptDigest` when the caller kept it, else hashed here.
  std::optional<util::Bytes> unwrapKey(const UserId& reader,
                                       const GroupId& id,
                                       util::BytesView wrapped,
                                       const crypto::Digest* keptDigest);
  std::optional<util::Bytes> unwrapUncached(const UserId& reader,
                                            const GroupId& id,
                                            util::BytesView wrapped);

  const pkcrypto::DlogGroup& dlog_;
  util::Rng& rng_;
  WrapScheme wrap_;
  abe::CpAbeAuthority abeAuthority_;
  ibbe::Pkg pkg_;
  ibbe::Directory directory_;  // IBBE wraps; built from pkg_
  MemberKeys memberKeys_;      // pk wraps
  // SHA-256 of a wrapped key -> each reader's unwrapKey result. A pk or IBBE
  // unwrap depends only on those bytes and the reader's fixed key material;
  // a CP-ABE unwrap also depends on membership and the epoch, so it is never
  // memoized. removeMember forgets every wrap it rewrites, one erase each.
  std::unordered_map<crypto::Digest, Unwraps, DigestHash> unwrapMemo_;
  // Each group's kept keys and wrap digests, parallel to its retained
  // history: the owner's own key to every retained payload, so a revocation
  // reopens its history whoever the remaining members are, and the digest a
  // decrypt of a retained serial looks its unwrap up by without hashing.
  // encrypt appends; a rewrap replaces.
  std::map<GroupId, std::vector<Kept>> kept_;
};

}  // namespace dosn::privacy

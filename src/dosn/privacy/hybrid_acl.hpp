// Hybrid encryption ACL (paper §III-F): "combines the convenience of a
// public-key encryption with the high speed of a symmetric-key encryption" —
// the payload is sealed once under a fresh symmetric data key, and only that
// 32-byte key is wrapped asymmetrically for the audience. The wrap layer is
// pluggable, mirroring the survey's examples: per-member public keys
// (Frientegrity/Hummingbird style), CP-ABE (Persona/Cachet), or IBBE.
#pragma once

#include <array>
#include <map>
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
  /// Wraps the data key for the group's current membership.
  util::Bytes wrapKey(const GroupId& id, const Group& g,
                      util::BytesView dataKey, util::Rng& rng);
  /// Unwraps as `reader`; std::nullopt if not addressed. Memoized for the
  /// pk and IBBE wraps (see unwrapMemo_).
  std::optional<util::Bytes> unwrapKey(const UserId& reader,
                                       const GroupId& id,
                                       util::BytesView wrapped);
  std::optional<util::Bytes> unwrapUncached(const UserId& reader,
                                            const GroupId& id,
                                            util::BytesView wrapped);
  /// Drops every memoized unwrap of `wrapped` (it is being rewritten).
  void forgetUnwraps(util::BytesView wrapped);

  using DataKey = std::array<std::uint8_t, 32>;

  const pkcrypto::DlogGroup& dlog_;
  util::Rng& rng_;
  WrapScheme wrap_;
  abe::CpAbeAuthority abeAuthority_;
  ibbe::Pkg pkg_;
  ibbe::Directory directory_;  // IBBE wraps; built from pkg_
  MemberKeys memberKeys_;      // pk wraps
  // (SHA-256 of the wrapped key, reader) -> unwrapKey's result. A pk or IBBE
  // unwrap depends only on those bytes and the reader's fixed key material;
  // a CP-ABE unwrap also depends on membership and the epoch, so it is never
  // memoized. removeMember forgets every wrap it rewrites.
  std::map<std::pair<crypto::Digest, UserId>, std::optional<util::Bytes>>
      unwrapMemo_;
  // Each group's data keys, parallel to its retained history: the owner's own
  // key to every retained payload, so a revocation reopens its history
  // whoever the remaining members are. encrypt appends; a rewrap replaces.
  std::map<GroupId, std::vector<DataKey>> dataKeys_;
};

}  // namespace dosn::privacy

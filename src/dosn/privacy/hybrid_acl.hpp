// Hybrid encryption ACL (paper §III-F): "combines the convenience of a
// public-key encryption with the high speed of a symmetric-key encryption" —
// the payload is sealed once under a fresh symmetric data key, and only that
// 32-byte key is wrapped asymmetrically for the audience. The wrap layer is
// pluggable, mirroring the survey's examples: per-member public keys
// (Frientegrity/Hummingbird style), CP-ABE (Persona/Cachet), or IBBE.
#pragma once

#include <map>
#include <set>

#include "dosn/abe/cpabe.hpp"
#include "dosn/crypto/sha256.hpp"
#include "dosn/ibbe/ibbe.hpp"
#include "dosn/pkcrypto/elgamal.hpp"
#include "dosn/privacy/access_controller.hpp"

namespace dosn::privacy {

enum class WrapScheme {
  kPublicKey,  // wrap per member under ElGamal
  kCpAbe,      // wrap once under the group attribute
  kIbbe,       // wrap per member via identity keys
};

std::string wrapSchemeName(WrapScheme scheme);

class HybridAcl final : public AccessController {
 public:
  HybridAcl(const pkcrypto::DlogGroup& group, util::Rng& rng, WrapScheme wrap);

  std::string schemeName() const override {
    return "hybrid+" + wrapSchemeName(wrap_);
  }

  void createGroup(const GroupId& group) override;
  void addMember(const GroupId& group, const UserId& user) override;
  RevocationReport removeMember(const GroupId& group,
                                const UserId& user) override;
  std::vector<UserId> members(const GroupId& group) const override;
  bool isMember(const GroupId& group, const UserId& user) const override;

  Envelope encrypt(const GroupId& group, util::BytesView plaintext,
                   util::Rng& rng) override;
  std::optional<util::Bytes> decrypt(const UserId& reader,
                                     const Envelope& envelope) override;
  std::vector<Envelope> history(const GroupId& group) const override;

 private:
  struct GroupState {
    std::uint64_t epoch = 0;  // CP-ABE attribute epoch
    std::set<UserId> members;
    std::vector<Envelope> history;
  };

  GroupState& groupRef(const GroupId& group);
  const GroupState& groupRef(const GroupId& group) const;
  const pkcrypto::ElGamalPrivateKey& userKey(const UserId& user);
  std::string epochAttribute(const GroupId& group) const;

  /// Wraps the data key for the group's current membership.
  util::Bytes wrapKey(const GroupId& group, util::BytesView dataKey,
                      util::Rng& rng);
  /// Unwraps as `reader`; std::nullopt if not addressed. Memoized for the
  /// pk and IBBE wraps (see unwrapMemo_).
  std::optional<util::Bytes> unwrapKey(const UserId& reader,
                                       const GroupId& group,
                                       util::BytesView wrapped);
  std::optional<util::Bytes> unwrapUncached(const UserId& reader,
                                            const GroupId& group,
                                            util::BytesView wrapped);
  /// Drops every memoized unwrap of `wrapped` (it is being rewritten).
  void forgetUnwraps(util::BytesView wrapped);

  const pkcrypto::DlogGroup& dlog_;
  util::Rng& rng_;
  WrapScheme wrap_;
  abe::CpAbeAuthority abeAuthority_;
  ibbe::Pkg pkg_;
  ibbe::Directory directory_;  // IBBE wraps; built from pkg_
  std::map<UserId, pkcrypto::ElGamalPrivateKey> userKeys_;
  std::map<GroupId, GroupState> groups_;
  std::uint64_t nextSerial_ = 1;
  // (SHA-256 of the wrapped key, reader) -> unwrapKey's result. A pk or IBBE
  // unwrap depends only on those bytes and the reader's fixed key material;
  // a CP-ABE unwrap also depends on membership and the epoch, so it is never
  // memoized. removeMember forgets every wrap it rewrites.
  std::map<std::pair<crypto::Digest, UserId>, std::optional<util::Bytes>>
      unwrapMemo_;
};

}  // namespace dosn::privacy

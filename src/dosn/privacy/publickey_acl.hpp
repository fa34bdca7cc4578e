// Public-key per-member ACL (paper §III-C, Flybynight/PeerSoN style): data is
// "encrypted under the public keys of all group's members"; leaving the group
// just deletes the member's public key from the list (no history rewrite —
// future envelopes simply exclude them).
#pragma once

#include <map>
#include <set>

#include "dosn/pkcrypto/elgamal.hpp"
#include "dosn/privacy/access_controller.hpp"

namespace dosn::privacy {

/// Per-member public-key encryption, shared by PublicKeyAcl and HybridAcl's
/// pk wrap: one ElGamal key pair per user, and the recipient list
/// `u32 count | (str member | bytes ciphertext)*` with one ciphertext per
/// member.
class MemberKeys {
 public:
  MemberKeys(const pkcrypto::DlogGroup& group, util::Rng& rng);

  /// Draws the user's key pair on their first membership.
  void issue(const UserId& user);
  /// The recipient list: `plaintext` encrypted to each member's key. Every
  /// member must hold a key.
  util::Bytes encrypt(const std::set<UserId>& members,
                      util::BytesView plaintext, util::Rng& rng) const;
  /// Opens the reader's entry of a recipient list; std::nullopt if the
  /// reader holds no key, is not listed, or the list is malformed.
  std::optional<util::Bytes> decrypt(const UserId& reader,
                                     util::BytesView list) const;

 private:
  const pkcrypto::DlogGroup& dlog_;
  util::Rng& rng_;
  std::map<UserId, pkcrypto::ElGamalPrivateKey> keys_;
};

class PublicKeyAcl final : public GroupAccessController {
 public:
  PublicKeyAcl(const pkcrypto::DlogGroup& group, util::Rng& rng);

  std::string schemeName() const override { return "public-key"; }

  /// Issues the user's key pair once the group is known.
  void addMember(const GroupId& id, const UserId& user) override;
  RevocationReport removeMember(const GroupId& id,
                                const UserId& user) override;

  Envelope encrypt(const GroupId& id, util::BytesView plaintext,
                   util::Rng& rng) override;
  std::optional<util::Bytes> decrypt(const UserId& reader,
                                     const Envelope& envelope) override;

 private:
  MemberKeys memberKeys_;
};

}  // namespace dosn::privacy

// CP-ABE-based ACL (paper §III-D, Persona/Cachet style): each group is an
// attribute; one encryption serves the whole group ("it is enough to do a
// single encryption operation to construct a new group"); revocation uses
// "frequent re-keying": the attribute is rotated to a new epoch, every
// remaining member gets a fresh key, and the retained history is re-encrypted
// under the new attribute ("previous data ... must be encrypted and stored
// again").
//
// Policy-based encryption across groups is exposed via encryptWithPolicy.
#pragma once

#include "dosn/abe/cpabe.hpp"
#include "dosn/privacy/access_controller.hpp"

namespace dosn::privacy {

class AbeAcl final : public GroupAccessController {
 public:
  AbeAcl(const pkcrypto::DlogGroup& group, util::Rng& rng);

  std::string schemeName() const override { return "cp-abe"; }

  RevocationReport removeMember(const GroupId& id,
                                const UserId& user) override;

  Envelope encrypt(const GroupId& id, util::BytesView plaintext,
                   util::Rng& rng) override;
  std::optional<util::Bytes> decrypt(const UserId& reader,
                                     const Envelope& envelope) override;

  /// Free-form policy over group names, e.g. "(family AND doctors) OR vips".
  /// The envelope is not retained in any group history.
  Envelope encryptWithPolicy(const policy::Policy& accessPolicy,
                             util::BytesView plaintext, util::Rng& rng);

  /// Current attribute epoch of a group.
  std::uint64_t attributeEpoch(const GroupId& id) const;

 private:
  /// (Re)issues the reader's user key for all their current memberships.
  abe::CpAbeUserKey readerKey(const UserId& reader) const;

  const pkcrypto::DlogGroup& dlog_;
  util::Rng& rng_;
  abe::CpAbeAuthority authority_;
};

}  // namespace dosn::privacy

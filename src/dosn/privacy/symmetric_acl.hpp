// Symmetric-key group ACL (paper §III-B): one shared key per group; adding a
// member shares the key; revocation creates a new key and re-encrypts the
// whole retained history ("for the revocation, we need to create a new key
// and re-encrypt the whole data").
#pragma once

#include <map>

#include "dosn/privacy/access_controller.hpp"

namespace dosn::privacy {

class SymmetricAcl final : public GroupAccessController {
 public:
  explicit SymmetricAcl(util::Rng& rng);

  std::string schemeName() const override { return "symmetric"; }

  /// Draws the group's first key.
  void createGroup(const GroupId& id) override;
  RevocationReport removeMember(const GroupId& id,
                                const UserId& user) override;

  Envelope encrypt(const GroupId& id, util::BytesView plaintext,
                   util::Rng& rng) override;
  std::optional<util::Bytes> decrypt(const UserId& reader,
                                     const Envelope& envelope) override;

  /// Current key epoch of a group (bumped by every revocation).
  std::uint64_t keyEpoch(const GroupId& id) const;

 private:
  util::Rng& rng_;
  std::map<GroupId, util::Bytes> keys_;  // each group's current key
};

}  // namespace dosn::privacy

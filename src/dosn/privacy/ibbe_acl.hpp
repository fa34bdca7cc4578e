// IBBE-based ACL (paper §III-E): member usernames are their public keys; the
// broadcaster encrypts to the current recipient list, and "removing a
// recipient from the list would then have no extra cost" — revocation is a
// list edit, no re-keying, no history rewrite.
#pragma once

#include "dosn/ibbe/ibbe.hpp"
#include "dosn/privacy/access_controller.hpp"

namespace dosn::privacy {

class IbbeAcl final : public GroupAccessController {
 public:
  IbbeAcl(const pkcrypto::DlogGroup& group, util::Rng& rng);

  std::string schemeName() const override { return "ibbe"; }

  RevocationReport removeMember(const GroupId& id,
                                const UserId& user) override;

  Envelope encrypt(const GroupId& id, util::BytesView plaintext,
                   util::Rng& rng) override;
  std::optional<util::Bytes> decrypt(const UserId& reader,
                                     const Envelope& envelope) override;

  const ibbe::Pkg& pkg() const { return pkg_; }

 private:
  const pkcrypto::DlogGroup& dlog_;
  ibbe::Pkg pkg_;
  ibbe::Directory directory_;  // built from pkg_
};

}  // namespace dosn::privacy

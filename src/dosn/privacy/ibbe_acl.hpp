// IBBE-based ACL (paper §III-E): member usernames are their public keys; the
// broadcaster encrypts to the current recipient list, and "removing a
// recipient from the list would then have no extra cost" — revocation is a
// list edit, no re-keying, no history rewrite.
#pragma once

#include <map>
#include <set>

#include "dosn/ibbe/ibbe.hpp"
#include "dosn/privacy/access_controller.hpp"

namespace dosn::privacy {

class IbbeAcl final : public AccessController {
 public:
  IbbeAcl(const pkcrypto::DlogGroup& group, util::Rng& rng);

  std::string schemeName() const override { return "ibbe"; }

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

  const ibbe::Pkg& pkg() const { return pkg_; }

 private:
  struct GroupState {
    std::set<UserId> members;
    std::vector<Envelope> history;
  };

  const pkcrypto::DlogGroup& dlog_;
  ibbe::Pkg pkg_;
  ibbe::Directory directory_;  // built from pkg_
  std::map<GroupId, GroupState> groups_;
  std::uint64_t nextSerial_ = 1;
};

}  // namespace dosn::privacy

#include "dosn/privacy/ibbe_acl.hpp"

#include "dosn/util/error.hpp"

namespace dosn::privacy {

IbbeAcl::IbbeAcl(const pkcrypto::DlogGroup& group, util::Rng& rng)
    : dlog_(group), pkg_(group, rng), directory_(pkg_) {}

void IbbeAcl::createGroup(const GroupId& group) {
  if (groups_.count(group)) throw util::DosnError("IbbeAcl: group exists");
  groups_.emplace(group, GroupState{});
}

void IbbeAcl::addMember(const GroupId& group, const UserId& user) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) throw util::DosnError("IbbeAcl: unknown group");
  it->second.members.insert(user);
}

RevocationReport IbbeAcl::removeMember(const GroupId& group,
                                       const UserId& user) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) throw util::DosnError("IbbeAcl: unknown group");
  it->second.members.erase(user);
  // No re-keying, no re-encryption: the next broadcast just omits them.
  return RevocationReport{0, 0, 0};
}

std::vector<UserId> IbbeAcl::members(const GroupId& group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) throw util::DosnError("IbbeAcl: unknown group");
  return std::vector<UserId>(it->second.members.begin(),
                             it->second.members.end());
}

bool IbbeAcl::isMember(const GroupId& group, const UserId& user) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.members.count(user) > 0;
}

Envelope IbbeAcl::encrypt(const GroupId& group, util::BytesView plaintext,
                          util::Rng& rng) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) throw util::DosnError("IbbeAcl: unknown group");
  std::vector<std::string> recipients(it->second.members.begin(),
                                      it->second.members.end());
  if (recipients.empty()) throw util::DosnError("IbbeAcl: empty group");
  Envelope env;
  env.scheme = schemeName();
  env.group = group;
  env.serial = nextSerial_++;
  env.blob = ibbe::ibbeEncrypt(dlog_, directory_, recipients, plaintext, rng)
                 .serialize();
  it->second.history.push_back(env);
  return env;
}

std::optional<util::Bytes> IbbeAcl::decrypt(const UserId& reader,
                                            const Envelope& envelope) {
  const auto ct = ibbe::IbbeCiphertext::deserialize(envelope.blob);
  if (!ct) return std::nullopt;
  return ibbe::ibbeDecrypt(dlog_, pkg_.extract(reader), *ct);
}

std::vector<Envelope> IbbeAcl::history(const GroupId& group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) throw util::DosnError("IbbeAcl: unknown group");
  return it->second.history;
}

}  // namespace dosn::privacy

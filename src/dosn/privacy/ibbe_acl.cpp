#include "dosn/privacy/ibbe_acl.hpp"

#include "dosn/util/error.hpp"

namespace dosn::privacy {

IbbeAcl::IbbeAcl(const pkcrypto::DlogGroup& group, util::Rng& rng)
    : dlog_(group), pkg_(group, rng), directory_(pkg_) {}

RevocationReport IbbeAcl::removeMember(const GroupId& id,
                                       const UserId& user) {
  group(id).members.erase(user);
  // No re-keying, no re-encryption: the next broadcast just omits them.
  return RevocationReport{0, 0, 0};
}

Envelope IbbeAcl::encrypt(const GroupId& id, util::BytesView plaintext,
                          util::Rng& rng) {
  Group& g = group(id);
  if (g.members.empty()) throw util::DosnError("IbbeAcl: empty group");
  const std::vector<std::string> recipients(g.members.begin(),
                                            g.members.end());
  return retain(id, g,
                ibbe::ibbeEncrypt(dlog_, directory_, recipients, plaintext, rng)
                    .serialize());
}

std::optional<util::Bytes> IbbeAcl::decrypt(const UserId& reader,
                                            const Envelope& envelope) {
  const auto ct = ibbe::IbbeCiphertext::deserialize(envelope.blob);
  if (!ct) return std::nullopt;
  return ibbe::ibbeDecrypt(dlog_, pkg_.extract(reader), *ct);
}

}  // namespace dosn::privacy

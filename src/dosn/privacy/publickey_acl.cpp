#include "dosn/privacy/publickey_acl.hpp"

#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::privacy {

MemberKeys::MemberKeys(const pkcrypto::DlogGroup& group, util::Rng& rng)
    : dlog_(group), rng_(rng) {}

void MemberKeys::issue(const UserId& user) {
  if (!keys_.count(user)) {
    keys_.emplace(user, pkcrypto::elgamalGenerate(dlog_, rng_));
  }
}

util::Bytes MemberKeys::encrypt(const std::set<UserId>& members,
                                util::BytesView plaintext,
                                util::Rng& rng) const {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(members.size()));
  for (const UserId& member : members) {
    w.str(member);
    w.bytes(pkcrypto::elgamalEncrypt(dlog_, keys_.at(member).pub, plaintext,
                                     rng));
  }
  return w.take();
}

std::optional<util::Bytes> MemberKeys::decrypt(const UserId& reader,
                                               util::BytesView list) const {
  const auto keyIt = keys_.find(reader);
  if (keyIt == keys_.end()) return std::nullopt;
  try {
    util::Reader r(list);
    const std::uint32_t count = r.u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::string member = r.str();
      const util::Bytes ciphertext = r.bytes();
      if (member == reader) {
        return pkcrypto::elgamalDecrypt(dlog_, keyIt->second, ciphertext);
      }
    }
    return std::nullopt;  // reader was not a recipient
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

PublicKeyAcl::PublicKeyAcl(const pkcrypto::DlogGroup& group, util::Rng& rng)
    : memberKeys_(group, rng) {}

void PublicKeyAcl::addMember(const GroupId& id, const UserId& user) {
  GroupAccessController::addMember(id, user);
  memberKeys_.issue(user);
}

RevocationReport PublicKeyAcl::removeMember(const GroupId& id,
                                            const UserId& user) {
  group(id).members.erase(user);
  // "His public key will be deleted from the list of group members": future
  // envelopes exclude them; history is untouched (already-decryptable data
  // cannot be revoked — paper §III-B caveat applies to every scheme).
  return RevocationReport{0, 0, 1};
}

Envelope PublicKeyAcl::encrypt(const GroupId& id, util::BytesView plaintext,
                               util::Rng& rng) {
  Group& g = group(id);
  // Naive per-member encryption: one full public-key ciphertext per member
  // (the §III-C baseline the hybrid scheme of §III-F improves on).
  return retain(id, g, memberKeys_.encrypt(g.members, plaintext, rng));
}

std::optional<util::Bytes> PublicKeyAcl::decrypt(const UserId& reader,
                                                 const Envelope& envelope) {
  return memberKeys_.decrypt(reader, envelope.blob);
}

}  // namespace dosn::privacy

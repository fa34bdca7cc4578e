#include "dosn/privacy/abe_acl.hpp"

#include "dosn/util/error.hpp"

namespace dosn::privacy {

AbeAcl::AbeAcl(const pkcrypto::DlogGroup& group, util::Rng& rng)
    : dlog_(group), rng_(rng), authority_(group, rng) {}

abe::CpAbeUserKey AbeAcl::readerKey(const UserId& reader) const {
  std::set<std::string> attrs;
  for (const auto& [id, g] : groups()) {
    if (g.members.count(reader)) attrs.insert(epochAttribute(id, g));
  }
  return authority_.keyGen(attrs);
}

RevocationReport AbeAcl::removeMember(const GroupId& id, const UserId& user) {
  Group& g = group(id);
  g.members.erase(user);

  // Re-keying: rotate the attribute epoch; every remaining member needs a
  // fresh key component for the new attribute.
  ++g.epoch;
  RevocationReport report;
  report.keyOperations = g.members.size();

  // Re-encrypt the retained history under the new epoch attribute.
  const policy::Policy newPolicy =
      policy::Policy::attribute(epochAttribute(id, g));
  const auto pubKeys = authority_.publicKeysFor(newPolicy);
  // The authority (as re-encryption proxy) can always open history: it
  // regenerates a key for the *previous* epoch attribute.
  for (Envelope& env : g.history) {
    const auto ct = abe::CpAbeCiphertext::deserialize(env.blob);
    if (!ct) throw util::DosnError("AbeAcl: corrupt history");
    const auto oldAttrs = ct->accessPolicy.attributes();
    const auto oldKey =
        authority_.keyGen(std::set<std::string>(oldAttrs.begin(), oldAttrs.end()));
    const auto plain = abe::cpabeDecrypt(dlog_, oldKey, *ct);
    if (!plain) throw util::DosnError("AbeAcl: history decrypt failed");
    env.blob =
        abe::cpabeEncrypt(dlog_, pubKeys, newPolicy, *plain, rng_).serialize();
    ++report.reencryptedEnvelopes;
    report.rewrittenBytes += env.blob.size();
  }
  return report;
}

Envelope AbeAcl::encrypt(const GroupId& id, util::BytesView plaintext,
                         util::Rng& rng) {
  Group& g = group(id);
  const policy::Policy p = policy::Policy::attribute(epochAttribute(id, g));
  const auto pubKeys = authority_.publicKeysFor(p);
  return retain(id, g,
                abe::cpabeEncrypt(dlog_, pubKeys, p, plaintext, rng).serialize());
}

Envelope AbeAcl::encryptWithPolicy(const policy::Policy& accessPolicy,
                                   util::BytesView plaintext, util::Rng& rng) {
  // Each leaf names a group; it is qualified with that group's epoch.
  const policy::Policy qualified =
      accessPolicy.mapAttributes([this](const std::string& name) {
        return epochAttribute(name, group(name));
      });
  const auto pubKeys = authority_.publicKeysFor(qualified);
  // An empty group id marks a cross-group policy envelope.
  return issue("", abe::cpabeEncrypt(dlog_, pubKeys, qualified, plaintext, rng)
                       .serialize());
}

std::optional<util::Bytes> AbeAcl::decrypt(const UserId& reader,
                                           const Envelope& envelope) {
  // Readers fetch the current ciphertext for the serial where history is
  // retained (it may have been re-encrypted since).
  const util::Bytes* blob = &envelope.blob;
  if (!envelope.group.empty()) {
    const Group* g = findGroup(envelope.group);
    if (g == nullptr) return std::nullopt;
    if (const util::Bytes* stored = g->retained(envelope.serial)) blob = stored;
  }
  const auto ct = abe::CpAbeCiphertext::deserialize(*blob);
  if (!ct) return std::nullopt;
  return abe::cpabeDecrypt(dlog_, readerKey(reader), *ct);
}

std::uint64_t AbeAcl::attributeEpoch(const GroupId& id) const {
  return group(id).epoch;
}

}  // namespace dosn::privacy

#include "dosn/privacy/symmetric_acl.hpp"

#include "dosn/crypto/aead.hpp"
#include "dosn/util/error.hpp"

namespace dosn::privacy {

SymmetricAcl::SymmetricAcl(util::Rng& rng) : rng_(rng) {}

void SymmetricAcl::createGroup(const GroupId& id) {
  GroupAccessController::createGroup(id);
  keys_[id] = rng_.bytes(32);
}

RevocationReport SymmetricAcl::removeMember(const GroupId& id,
                                            const UserId& user) {
  Group& g = group(id);
  g.members.erase(user);
  // New key + full history re-encryption.
  util::Bytes& key = keys_.at(id);
  const util::Bytes oldKey = key;
  key = rng_.bytes(32);
  ++g.epoch;
  RevocationReport report;
  // Every remaining member must receive the new key.
  report.keyOperations = g.members.size();
  for (Envelope& env : g.history) {
    const auto plain = crypto::openWithNonce(oldKey, env.blob);
    if (!plain) throw util::DosnError("SymmetricAcl: corrupt history");
    env.blob = crypto::sealWithNonce(key, *plain, rng_);
    ++report.reencryptedEnvelopes;
    report.rewrittenBytes += env.blob.size();
  }
  return report;
}

Envelope SymmetricAcl::encrypt(const GroupId& id, util::BytesView plaintext,
                               util::Rng& rng) {
  Group& g = group(id);
  return retain(id, g, crypto::sealWithNonce(keys_.at(id), plaintext, rng));
}

std::optional<util::Bytes> SymmetricAcl::decrypt(const UserId& reader,
                                                 const Envelope& envelope) {
  const Group* g = findGroup(envelope.group);
  // Only current members hold the current key.
  if (g == nullptr || !g->members.count(reader)) return std::nullopt;
  // Readers fetch the *current* ciphertext for this serial (the stored copy
  // may have been re-encrypted since the caller's Envelope was issued).
  const util::Bytes* blob = g->retained(envelope.serial);
  if (blob == nullptr) return std::nullopt;
  return crypto::openWithNonce(keys_.at(envelope.group), *blob);
}

std::uint64_t SymmetricAcl::keyEpoch(const GroupId& id) const {
  return group(id).epoch;
}

}  // namespace dosn::privacy

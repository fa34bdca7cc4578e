#include "dosn/privacy/symmetric_acl.hpp"

#include "dosn/crypto/aead.hpp"
#include "dosn/util/error.hpp"

namespace dosn::privacy {

SymmetricAcl::SymmetricAcl(util::Rng& rng) : rng_(rng) {}

SymmetricAcl::Group& SymmetricAcl::groupRef(const GroupId& group) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) throw util::DosnError("SymmetricAcl: unknown group");
  return it->second;
}

const SymmetricAcl::Group& SymmetricAcl::groupRef(const GroupId& group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) throw util::DosnError("SymmetricAcl: unknown group");
  return it->second;
}

void SymmetricAcl::createGroup(const GroupId& group) {
  if (groups_.count(group)) throw util::DosnError("SymmetricAcl: group exists");
  Group g;
  g.key = rng_.bytes(32);
  groups_.emplace(group, std::move(g));
}

void SymmetricAcl::addMember(const GroupId& group, const UserId& user) {
  // Adding a user = sharing the current group key with them.
  groupRef(group).members.insert(user);
}

RevocationReport SymmetricAcl::removeMember(const GroupId& group,
                                            const UserId& user) {
  Group& g = groupRef(group);
  g.members.erase(user);
  // New key + full history re-encryption.
  const util::Bytes oldKey = g.key;
  g.key = rng_.bytes(32);
  ++g.epoch;
  RevocationReport report;
  // Every remaining member must receive the new key.
  report.keyOperations = g.members.size();
  for (Envelope& env : g.history) {
    const auto plain = crypto::openWithNonce(oldKey, env.blob);
    if (!plain) throw util::DosnError("SymmetricAcl: corrupt history");
    env.blob = crypto::sealWithNonce(g.key, *plain, rng_);
    ++report.reencryptedEnvelopes;
    report.rewrittenBytes += env.blob.size();
  }
  return report;
}

std::vector<UserId> SymmetricAcl::members(const GroupId& group) const {
  const Group& g = groupRef(group);
  return std::vector<UserId>(g.members.begin(), g.members.end());
}

bool SymmetricAcl::isMember(const GroupId& group, const UserId& user) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.members.count(user) > 0;
}

Envelope SymmetricAcl::encrypt(const GroupId& group, util::BytesView plaintext,
                               util::Rng& rng) {
  Group& g = groupRef(group);
  Envelope env;
  env.scheme = schemeName();
  env.group = group;
  env.serial = nextSerial_++;
  env.blob = crypto::sealWithNonce(g.key, plaintext, rng);
  g.history.push_back(env);
  return env;
}

std::optional<util::Bytes> SymmetricAcl::decrypt(const UserId& reader,
                                                 const Envelope& envelope) {
  const auto it = groups_.find(envelope.group);
  if (it == groups_.end()) return std::nullopt;
  const Group& g = it->second;
  // Only current members hold the current key.
  if (!g.members.count(reader)) return std::nullopt;
  // Readers fetch the *current* ciphertext for this serial (the stored copy
  // may have been re-encrypted since the caller's Envelope was issued).
  for (const Envelope& stored : g.history) {
    if (stored.serial == envelope.serial) {
      return crypto::openWithNonce(g.key, stored.blob);
    }
  }
  return std::nullopt;
}

std::vector<Envelope> SymmetricAcl::history(const GroupId& group) const {
  return groupRef(group).history;
}

std::uint64_t SymmetricAcl::keyEpoch(const GroupId& group) const {
  return groupRef(group).epoch;
}

}  // namespace dosn::privacy

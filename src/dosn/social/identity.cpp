#include "dosn/social/identity.hpp"

namespace dosn::social {

Keyring createKeyring(const pkcrypto::DlogGroup& group, UserId user,
                      util::Rng& rng) {
  Keyring keyring;
  keyring.user = std::move(user);
  keyring.signing = pkcrypto::schnorrGenerate(group, rng);
  keyring.encryption = pkcrypto::elgamalGenerate(group, rng);
  keyring.masterSymmetric = rng.bytes(32);
  return keyring;
}

PublicIdentity publicIdentity(const Keyring& keyring) {
  return PublicIdentity{keyring.user, keyring.signing.pub,
                        keyring.encryption.pub};
}

void IdentityRegistry::registerIdentity(PublicIdentity identity) {
  verifyingKeys_.erase(identity.user);
  identities_[identity.user] = std::move(identity);
}

std::optional<PublicIdentity> IdentityRegistry::lookup(const UserId& user) const {
  const auto it = identities_.find(user);
  if (it == identities_.end()) return std::nullopt;
  return it->second;
}

bool IdentityRegistry::contains(const UserId& user) const {
  return identities_.count(user) > 0;
}

std::shared_ptr<const pkcrypto::SchnorrVerifyingKey>
IdentityRegistry::verifyingKey(const UserId& user,
                               const pkcrypto::DlogGroup& group) const {
  const auto identity = identities_.find(user);
  if (identity == identities_.end()) return nullptr;
  auto& key = verifyingKeys_[user];
  if (!key || key->group().p() != group.p() || key->group().q() != group.q() ||
      key->group().g() != group.g()) {
    key = std::make_shared<const pkcrypto::SchnorrVerifyingKey>(
        group, identity->second.signingKey);
  }
  return key;
}

}  // namespace dosn::social

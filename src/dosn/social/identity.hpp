// User identities and keyrings. Verification keys are distributed
// "out-of-band" (paper §IV-A: physical meeting / e-mail) — modeled by the
// IdentityRegistry, a trusted directory of verified public keys that also
// hands out each author's signing key prepared for repeated verification.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "dosn/pkcrypto/elgamal.hpp"
#include "dosn/pkcrypto/schnorr.hpp"
#include "dosn/util/bytes.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::social {

using UserId = std::string;

/// Everything a user keeps private.
struct Keyring {
  UserId user;
  pkcrypto::SchnorrPrivateKey signing;     // post/message signatures
  pkcrypto::ElGamalPrivateKey encryption;  // inbound encrypted messages
  util::Bytes masterSymmetric;             // local-data encryption root
};

/// The public half other users see.
struct PublicIdentity {
  UserId user;
  pkcrypto::SchnorrPublicKey signingKey;
  pkcrypto::ElGamalPublicKey encryptionKey;
};

Keyring createKeyring(const pkcrypto::DlogGroup& group, UserId user,
                      util::Rng& rng);
PublicIdentity publicIdentity(const Keyring& keyring);

/// Out-of-band verified key directory (paper §IV-A's "distributing proper
/// keys out-of-band").
class IdentityRegistry {
 public:
  /// Registers or replaces `identity`, dropping any prepared key of its user.
  void registerIdentity(PublicIdentity identity);
  std::optional<PublicIdentity> lookup(const UserId& user) const;
  bool contains(const UserId& user) const;
  std::size_t size() const { return identities_.size(); }

  /// The user's registered signing key prepared for `group`
  /// (pkcrypto::SchnorrVerifyingKey), or nullptr for an unregistered user.
  /// Every check of a registered author's signature goes through it. Built on
  /// the first call, never at registration; later calls with the same group
  /// return the same key, and a call with another group prepares a new one.
  std::shared_ptr<const pkcrypto::SchnorrVerifyingKey> verifyingKey(
      const UserId& user, const pkcrypto::DlogGroup& group) const;

 private:
  std::map<UserId, PublicIdentity> identities_;
  // user -> signing key prepared for one group: a memo of a pure function
  // of (the registered key, the group). Shared, so a caller holding a key
  // keeps it across a re-registration.
  mutable std::map<UserId,
                   std::shared_ptr<const pkcrypto::SchnorrVerifyingKey>>
      verifyingKeys_;
};

}  // namespace dosn::social

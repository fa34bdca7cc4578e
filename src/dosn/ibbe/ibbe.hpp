// Identity-Based Broadcast Encryption (paper §III-E): any identifier string
// (username, e-mail) serves as a public key; a trusted Private Key Generator
// (PKG) issues the matching private keys; a broadcaster encrypts one message
// to a list of identities, and removing a recipient from future broadcasts
// has no extra cost (no re-keying of the others).
//
// Construction (simulation-grade; see DESIGN.md §3.1): the PKG derives a
// scalar k_id per identity from its master secret and exposes the public
// directory Y_id = g^{k_id}; broadcast encryption wraps a session key to each
// listed identity under a shared ephemeral k, keyed by Y_id^k. The
// broadcaster's Directory holds each Y_id as a fixed-base power table, so
// after an identity's first broadcast its wrap costs one table
// exponentiation (multiplies only, no squarings; DESIGN.md §3b).
// Real IBBE (Delerablée) achieves constant-size ciphertexts via pairings; our
// header is linear in |S|. The paper's claims reproduced here are about
// flexibility (string identities, per-recipient addressing) and O(1)
// removal — both preserved. Ciphertext-size shape is reported honestly in
// EXPERIMENTS.md.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dosn/bignum/montgomery.hpp"
#include "dosn/pkcrypto/group.hpp"
#include "dosn/util/bytes.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::ibbe {

using bignum::BigUint;
using pkcrypto::DlogGroup;

/// A recipient's private key, issued by the PKG.
struct IbbeUserKey {
  std::string identity;
  BigUint secret;  // k_id
};

struct IbbeCiphertext {
  BigUint c1;  // g^k
  std::vector<std::pair<std::string, util::Bytes>> wraps;  // id -> wrap
  util::Bytes payloadBox;

  util::Bytes serialize() const;
  static std::optional<IbbeCiphertext> deserialize(util::BytesView data);
};

/// The Private Key Generator (trusted third party of §III-E).
class Pkg {
 public:
  Pkg(const DlogGroup& group, util::Rng& rng);

  /// Public key Y_id = g^{k_id}; any string is an identity. Encryption reads
  /// it through a Directory, which asks once per identity.
  BigUint identityPublicKey(const std::string& identity) const;

  /// Extracts the private key for an identity (PKG-only operation).
  IbbeUserKey extract(const std::string& identity) const;

  const DlogGroup& group() const { return group_; }

 private:
  /// k_id, derived from the master secret on the identity's first use.
  const BigUint& identitySecret(const std::string& identity) const;

  const DlogGroup& group_;
  util::Bytes masterSecret_;
  // identity -> k_id: a memo of a pure function of (masterSecret_, identity).
  mutable std::map<std::string, BigUint> secrets_;
};

/// The identity directory a broadcaster encrypts against. On an identity's
/// first lookup it takes Y_id from the PKG and builds Y_id's fixed-base power
/// table (about three exponentiations' work, 30 KiB at 256 bits); later
/// lookups return the same table. It keeps its own copy of the PKG, so a
/// copied directory, or a copied owner of one, never refers back to the
/// original.
class Directory {
 public:
  explicit Directory(Pkg pkg);

  /// Y_id's table (base() is Pkg::identityPublicKey(identity)), valid for
  /// the directory's lifetime. Any string resolves.
  const bignum::FixedBasePowerTable& lookup(const std::string& identity);

 private:
  Pkg pkg_;
  std::map<std::string, bignum::FixedBasePowerTable> tables_;
};

/// Encrypts to a recipient list; each recipient's wrap key comes from its
/// directory table, one fixed-base exponentiation per recipient, computed
/// with g^k in one FixedBasePowerTable::powMany batch.
IbbeCiphertext ibbeEncrypt(const DlogGroup& group, Directory& directory,
                           const std::vector<std::string>& recipients,
                           util::BytesView plaintext, util::Rng& rng);

/// Decrypts if the key's identity is in the recipient list.
std::optional<util::Bytes> ibbeDecrypt(const DlogGroup& group,
                                       const IbbeUserKey& key,
                                       const IbbeCiphertext& ct);

}  // namespace dosn::ibbe

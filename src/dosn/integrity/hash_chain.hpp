// Historical integrity via hash chaining (paper §IV-B, Fethr-style): every
// signed entry embeds the hash of its predecessor, yielding "a provable
// partial ordering" of one publisher's posts. Tampering, reordering, or
// dropping interior entries breaks the chain. Readers verify a publisher's
// entries under that publisher's prepared key (pkcrypto::SchnorrVerifyingKey,
// from the IdentityRegistry) and resume from a cursor.
#pragma once

#include <optional>
#include <vector>

#include "dosn/crypto/sha256.hpp"
#include "dosn/pkcrypto/schnorr.hpp"
#include "dosn/social/identity.hpp"

namespace dosn::integrity {

struct ChainEntry {
  std::uint64_t seq = 0;
  crypto::Digest prev{};          // hash of the previous entry (zeros for first)
  util::Bytes payload;            // application bytes (e.g. a serialized Post)
  pkcrypto::SchnorrSignature signature;

  /// The bytes the signature covers (seq || prev || payload).
  util::Bytes signedBytes() const;
  /// This entry's chain hash: H(signedBytes || signature).
  crypto::Digest entryHash() const;

  util::Bytes serialize() const;
  static std::optional<ChainEntry> deserialize(util::BytesView data);
};

/// A single publisher's hash-chained timeline.
class Timeline {
 public:
  Timeline(const pkcrypto::DlogGroup& group, const social::Keyring& keyring);

  /// Signs and appends a new entry.
  const ChainEntry& append(util::BytesView payload, util::Rng& rng);

  const std::vector<ChainEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }
  /// Hash of the latest entry (zeros when empty) — what other publishers
  /// entangle with.
  crypto::Digest head() const;

 private:
  const pkcrypto::DlogGroup& group_;
  const social::Keyring& keyring_;
  std::vector<ChainEntry> entries_;
};

/// What one reader has already verified of one publisher's chain: entries
/// [0, length) passed verifyChain under `key`, and entry length-1 hashed to
/// `head`. Only verifyChain moves a cursor; a default cursor vouches for
/// nothing.
struct ChainCursor {
  pkcrypto::SchnorrPublicKey key;
  std::uint64_t length = 0;
  crypto::Digest head{};
};

/// Full-chain verification with the publisher's registered key: signatures,
/// sequence numbers and predecessor hashes must all line up. One-shot: it
/// prepares the key for this call only.
bool verifyChain(const pkcrypto::DlogGroup& group,
                 const pkcrypto::SchnorrPublicKey& publisherKey,
                 const std::vector<ChainEntry>& entries);

/// Same verdict as the three-argument form under the prepared key, resuming
/// from `cursor`. The structural pass still covers every entry; signatures
/// are checked, as one SchnorrVerifyingKey::verifyAll page, only past the
/// prefix whose entry cursor.length-1 hashes to cursor.head under the same
/// key (its prev links pin every earlier entry, signatures included). On
/// success the cursor moves to `entries` unless that chain is shorter than
/// the one it vouches for under this key; on failure it is left as it was.
bool verifyChain(const pkcrypto::SchnorrVerifyingKey& publisherKey,
                 const std::vector<ChainEntry>& entries, ChainCursor& cursor);

/// True if `entries[i]` provably precedes `entries[j]`: i < j and every prev
/// link from j back to i names the hash of the entry before it, so j's
/// chain hash commits to i. Checks the links only, not the signatures.
bool provablyPrecedes(const std::vector<ChainEntry>& entries, std::size_t i,
                      std::size_t j);

}  // namespace dosn::integrity

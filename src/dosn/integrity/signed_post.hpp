// Integrity of the data owner and the data content (paper §IV-A): hash-then-
// sign over the post's canonical encoding. Verification keys come from the
// out-of-band IdentityRegistry (§IV-A's key-distribution assumption), which
// prepares each author's key once for all of that author's posts.
#pragma once

#include <optional>

#include "dosn/pkcrypto/schnorr.hpp"
#include "dosn/social/content.hpp"
#include "dosn/social/identity.hpp"

namespace dosn::integrity {

using social::Post;

struct SignedPost {
  Post post;
  pkcrypto::SchnorrSignature signature;

  util::Bytes serialize() const;
  static std::optional<SignedPost> deserialize(util::BytesView data);
};

/// Signs a post with its author's key. Throws if keyring.user != post.author
/// (you cannot honestly sign someone else's post).
SignedPost signPost(const pkcrypto::DlogGroup& group,
                    const social::Keyring& keyring, Post post, util::Rng& rng);

/// Verifies owner + content integrity: the signature must verify under the
/// registered key of the post's claimed author (its prepared key,
/// IdentityRegistry::verifyingKey).
bool verifyPost(const pkcrypto::DlogGroup& group,
                const social::IdentityRegistry& registry,
                const SignedPost& signedPost);

}  // namespace dosn::integrity

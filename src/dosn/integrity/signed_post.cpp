#include "dosn/integrity/signed_post.hpp"

#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::integrity {

util::Bytes SignedPost::serialize() const {
  util::Writer w;
  w.bytes(post.serialize());
  w.bytes(signature.serialize());
  return w.take();
}

std::optional<SignedPost> SignedPost::deserialize(util::BytesView data) {
  try {
    util::Reader r(data);
    SignedPost sp;
    const auto post = Post::deserialize(r.bytes());
    if (!post) return std::nullopt;
    sp.post = *post;
    const auto sig = pkcrypto::SchnorrSignature::deserialize(r.bytes());
    if (!sig) return std::nullopt;
    sp.signature = *sig;
    r.expectEnd();
    return sp;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

SignedPost signPost(const pkcrypto::DlogGroup& group,
                    const social::Keyring& keyring, Post post, util::Rng& rng) {
  if (keyring.user != post.author) {
    throw util::DosnError("signPost: signer is not the author");
  }
  SignedPost sp;
  sp.signature = pkcrypto::schnorrSign(group, keyring.signing,
                                       post.serialize(), rng);
  sp.post = std::move(post);
  return sp;
}

bool verifyPost(const pkcrypto::DlogGroup& group,
                const social::IdentityRegistry& registry,
                const SignedPost& signedPost) {
  const auto key = registry.verifyingKey(signedPost.post.author, group);
  return key && key->verify(signedPost.post.serialize(), signedPost.signature);
}

}  // namespace dosn::integrity

// Schnorr signatures (Fiat-Shamir), verified one-shot or through a key
// prepared once per signer, and the interactive Schnorr identification
// protocol — the zero-knowledge proof of the paper's §V-B: proving knowledge
// of the secret behind a pseudonym without revealing it.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "dosn/pkcrypto/group.hpp"
#include "dosn/util/bytes.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::pkcrypto {

struct SchnorrPublicKey {
  BigUint y;  // g^x
  util::Bytes serialize() const;
};

struct SchnorrPrivateKey {
  SchnorrPublicKey pub;
  BigUint x;
};

SchnorrPrivateKey schnorrGenerate(const DlogGroup& group, util::Rng& rng);

struct SchnorrSignature {
  BigUint e;  // challenge = H(r || y || m) mod q
  BigUint s;  // response  = k + x*e mod q

  util::Bytes serialize() const;
  /// Streams serialize()'s bytes into `h` without building them.
  void hashInto(crypto::Sha256& h) const;
  static std::optional<SchnorrSignature> deserialize(util::BytesView data);
};

SchnorrSignature schnorrSign(const DlogGroup& group,
                             const SchnorrPrivateKey& key,
                             util::BytesView message, util::Rng& rng);

/// One-shot verification: decides y's subgroup membership and runs a
/// variable-base exponentiation on every call. Callers that check many
/// signatures under one key prepare it (SchnorrVerifyingKey) instead.
bool schnorrVerify(const DlogGroup& group, const SchnorrPublicKey& key,
                   util::BytesView message, const SchnorrSignature& sig);

/// One message and its signature, for SchnorrVerifyingKey::verifyAll. Both
/// must outlive the call.
struct SignedMessage {
  util::BytesView message;
  const SchnorrSignature* signature;
};

/// A Schnorr public key prepared once for repeated verification (DESIGN.md
/// §3g): the shape of a registered author whose every post, chain entry and
/// head record is checked against the same key. Construction decides whether
/// y lies in the order-q subgroup, once, and for a member builds y's
/// FixedBasePowerTable over q's width (30 KiB at 256 bits, about three
/// one-shot verifications' work). verify() then costs two table
/// exponentiations, one multiply and the challenge hash, against
/// schnorrVerify's Jacobi symbol plus a variable-base exponentiation per
/// call, and accepts exactly the same set. verifyAll() checks a page of
/// signatures with every exponentiation of the page in one
/// FixedBasePowerTable::powMany batch.
///
/// The group is held by value: copies share its Montgomery contexts and
/// generator table, so a key never refers back to the caller's group. p must
/// be odd, as in every group the library ships.
class SchnorrVerifyingKey {
 public:
  SchnorrVerifyingKey(const DlogGroup& group, SchnorrPublicKey key);

  const DlogGroup& group() const { return group_; }
  const SchnorrPublicKey& publicKey() const { return key_; }

  /// Same verdict as schnorrVerify(group(), publicKey(), message, sig).
  bool verify(util::BytesView message, const SchnorrSignature& sig) const;
  /// True iff verify() accepts every item (so an empty page is accepted).
  /// Range-checks every (e, s), computes g^s and y^(q-e) of every item in
  /// one powMany batch, then checks the challenges in order.
  bool verifyAll(std::span<const SignedMessage> page) const;

 private:
  DlogGroup group_;
  SchnorrPublicKey key_;
  // y's power table; empty when y is outside the order-q subgroup, and then
  // every signature rejects.
  std::optional<bignum::FixedBasePowerTable> yTable_;
};

/// Interactive Schnorr identification (honest-verifier ZKP).
///
///   Prover                         Verifier
///   k <- Zq, r = g^k   --r-->
///                      <--c--      c <- Zq
///   s = k + x*c        --s-->      accept iff g^s == r * y^c
class SchnorrProver {
 public:
  SchnorrProver(const DlogGroup& group, const SchnorrPrivateKey& key,
                util::Rng& rng);

  const BigUint& commitment() const { return r_; }
  BigUint respond(const BigUint& challenge) const;

 private:
  const DlogGroup& group_;
  const SchnorrPrivateKey& key_;
  BigUint k_;
  BigUint r_;
};

class SchnorrVerifier {
 public:
  SchnorrVerifier(const DlogGroup& group, SchnorrPublicKey key,
                  const BigUint& commitment, util::Rng& rng);

  const BigUint& challenge() const { return c_; }
  bool check(const BigUint& response) const;

 private:
  const DlogGroup& group_;
  SchnorrPublicKey key_;
  BigUint r_;
  BigUint c_;
};

/// Non-interactive proof of knowledge of x for y = g^x, bound to a context
/// string (Fiat-Shamir transform of the identification protocol).
struct SchnorrProof {
  BigUint r;
  BigUint s;
  util::Bytes serialize() const;
  static std::optional<SchnorrProof> deserialize(util::BytesView data);
};

SchnorrProof schnorrProve(const DlogGroup& group, const SchnorrPrivateKey& key,
                          util::BytesView context, util::Rng& rng);

bool schnorrProofVerify(const DlogGroup& group, const SchnorrPublicKey& key,
                        util::BytesView context, const SchnorrProof& proof);

/// One (key, context, proof) triple of a batched proof verification.
struct SchnorrProofBatchItem {
  SchnorrPublicKey key;
  util::Bytes context;
  SchnorrProof proof;
};

/// Verifies a page of non-interactive proofs with random-linear-combination
/// batching: after per-item structural checks (r, y in the subgroup, s < q),
/// one combined equation
///
///   g^{sum z_i s_i mod q}  ==  prod r_i^{z_i} * prod y_i^{z_i c_i mod q}
///
/// is evaluated via multiPowMod, with 128-bit coefficients z_i derived
/// deterministically by hashing the whole batch (no RNG is consumed — seeded
/// simulation runs stay byte-identical). If the combined check fails, every
/// structurally-sound item is re-verified one-by-one to isolate the
/// offender(s), so a rejection is always attributed exactly. An invalid
/// batch passing the combined check requires a hash-targeted cancellation
/// across items (probability ~ n * 2^-128); see DESIGN.md §3g.
std::vector<bool> schnorrProofVerifyBatch(
    const DlogGroup& group, const std::vector<SchnorrProofBatchItem>& items);

}  // namespace dosn::pkcrypto

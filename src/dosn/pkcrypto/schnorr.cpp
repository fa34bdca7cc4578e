#include "dosn/pkcrypto/schnorr.hpp"

#include <array>
#include <map>
#include <optional>
#include <span>

#include "dosn/bignum/modmath.hpp"
#include "dosn/crypto/sha256.hpp"
#include "dosn/pkcrypto/multiexp.hpp"
#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::pkcrypto {

using bignum::addMod;
using bignum::mulMod;

util::Bytes SchnorrPublicKey::serialize() const {
  util::Writer w;
  w.bytes(y.toBytes());
  return w.take();
}

SchnorrPrivateKey schnorrGenerate(const DlogGroup& group, util::Rng& rng) {
  const BigUint x = group.randomScalar(rng);
  return SchnorrPrivateKey{SchnorrPublicKey{group.exp(x)}, x};
}

namespace {

// Streams a length-prefixed field (Writer::bytes) into h.
void hashField(crypto::Sha256& h, util::BytesView field) {
  h.update(util::encodeU32(static_cast<std::uint32_t>(field.size())));
  h.update(field);
}

// Streams Writer::bytes(x.toBytes()) into h; values of up to 2048 bits go
// through a stack buffer.
void hashScalar(crypto::Sha256& h, const BigUint& x) {
  std::array<std::uint8_t, 256> buffer{};
  const std::size_t size = x.byteLength();
  if (size > buffer.size()) {
    hashField(h, x.toBytes());
    return;
  }
  const std::span<std::uint8_t> bytes(buffer.data(), size);
  x.toBytesInto(bytes);
  hashField(h, bytes);
}

// H(bytes(r) || bytes(y) || bytes(message)), streamed field by field.
BigUint challengeHash(const DlogGroup& group, const BigUint& r,
                      const BigUint& y, util::BytesView message) {
  crypto::Sha256 h;
  hashScalar(h, r);
  hashScalar(h, y);
  hashField(h, message);
  return group.hashToScalar(h);
}

}  // namespace

util::Bytes SchnorrSignature::serialize() const {
  util::Writer w;
  w.reserve(8 + e.byteLength() + s.byteLength());
  w.bytes(e.toBytes());
  w.bytes(s.toBytes());
  return w.take();
}

void SchnorrSignature::hashInto(crypto::Sha256& h) const {
  hashScalar(h, e);
  hashScalar(h, s);
}

std::optional<SchnorrSignature> SchnorrSignature::deserialize(
    util::BytesView data) {
  try {
    util::Reader r(data);
    SchnorrSignature sig;
    sig.e = BigUint::fromBytes(r.bytesView());
    sig.s = BigUint::fromBytes(r.bytesView());
    r.expectEnd();
    return sig;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

SchnorrSignature schnorrSign(const DlogGroup& group,
                             const SchnorrPrivateKey& key,
                             util::BytesView message, util::Rng& rng) {
  const BigUint k = group.randomScalar(rng);
  const BigUint r = group.exp(k);
  const BigUint e = challengeHash(group, r, key.pub.y, message);
  const BigUint s = addMod(k, mulMod(key.x, e, group.q()), group.q());
  return SchnorrSignature{e, s};
}

bool schnorrVerify(const DlogGroup& group, const SchnorrPublicKey& key,
                   util::BytesView message, const SchnorrSignature& sig) {
  if (sig.s >= group.q() || sig.e >= group.q()) return false;
  if (!group.isElement(key.y)) return false;
  // r' = g^s * y^{-e}, with y^{-e} computed as y^{q-e}: the isElement check
  // just established y^q == 1, so the extended-Euclid inversion of the
  // historical path is unnecessary (e == 0 gives y^q == 1 == y^0 inverted).
  const BigUint gs = group.exp(sig.s);
  const BigUint ypow = group.exp(key.y, group.q() - sig.e);
  const BigUint r = group.mul(gs, ypow);
  return challengeHash(group, r, key.y, message) == sig.e;
}

SchnorrVerifyingKey::SchnorrVerifyingKey(const DlogGroup& group,
                                         SchnorrPublicKey key)
    : group_(group), key_(std::move(key)) {
  if (group_.isElement(key_.y)) {
    // Exponents are q - e <= q, so q's width covers every call.
    yTable_.emplace(key_.y, group_.p(), group_.q().bitLength());
  }
}

bool SchnorrVerifyingKey::verify(util::BytesView message,
                                 const SchnorrSignature& sig) const {
  const SignedMessage item{message, &sig};
  return verifyAll(std::span<const SignedMessage>(&item, 1));
}

bool SchnorrVerifyingKey::verifyAll(
    std::span<const SignedMessage> page) const {
  if (page.empty()) return true;
  const BigUint& q = group_.q();
  for (const SignedMessage& item : page) {
    if (item.signature->s >= q || item.signature->e >= q) return false;
  }
  if (!yTable_) return false;
  // schnorrVerify's r' = g^s * y^{q-e} per item, with both powers read from
  // tables, all in one batch.
  std::vector<BigUint> negE;
  negE.reserve(page.size());
  std::vector<bignum::FixedBasePowerTable::Job> jobs;
  jobs.reserve(2 * page.size());
  for (const SignedMessage& item : page) {
    negE.push_back(q - item.signature->e);
    jobs.push_back({&group_.generatorTable(), &item.signature->s});
    jobs.push_back({&*yTable_, &negE.back()});
  }
  std::vector<BigUint> powers(jobs.size());
  bignum::FixedBasePowerTable::powMany(jobs, powers);
  for (std::size_t i = 0; i < page.size(); ++i) {
    const BigUint r = group_.mul(powers[2 * i], powers[2 * i + 1]);
    if (challengeHash(group_, r, key_.y, page[i].message) !=
        page[i].signature->e) {
      return false;
    }
  }
  return true;
}

SchnorrProver::SchnorrProver(const DlogGroup& group,
                             const SchnorrPrivateKey& key, util::Rng& rng)
    : group_(group), key_(key), k_(group.randomScalar(rng)), r_(group.exp(k_)) {}

BigUint SchnorrProver::respond(const BigUint& challenge) const {
  return addMod(k_, mulMod(key_.x, challenge, group_.q()), group_.q());
}

SchnorrVerifier::SchnorrVerifier(const DlogGroup& group, SchnorrPublicKey key,
                                 const BigUint& commitment, util::Rng& rng)
    : group_(group),
      key_(std::move(key)),
      r_(commitment),
      c_(group.randomScalar(rng)) {}

bool SchnorrVerifier::check(const BigUint& response) const {
  if (!group_.isElement(r_)) return false;
  const BigUint lhs = group_.exp(response);
  const BigUint rhs = group_.mul(r_, group_.exp(key_.y, c_));
  return lhs == rhs;
}

util::Bytes SchnorrProof::serialize() const {
  util::Writer w;
  w.bytes(r.toBytes());
  w.bytes(s.toBytes());
  return w.take();
}

std::optional<SchnorrProof> SchnorrProof::deserialize(util::BytesView data) {
  try {
    util::Reader rd(data);
    SchnorrProof p;
    p.r = BigUint::fromBytes(rd.bytes());
    p.s = BigUint::fromBytes(rd.bytes());
    rd.expectEnd();
    return p;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

SchnorrProof schnorrProve(const DlogGroup& group, const SchnorrPrivateKey& key,
                          util::BytesView context, util::Rng& rng) {
  const BigUint k = group.randomScalar(rng);
  const BigUint r = group.exp(k);
  const BigUint c = challengeHash(group, r, key.pub.y, context);
  const BigUint s = addMod(k, mulMod(key.x, c, group.q()), group.q());
  return SchnorrProof{r, s};
}

bool schnorrProofVerify(const DlogGroup& group, const SchnorrPublicKey& key,
                        util::BytesView context, const SchnorrProof& proof) {
  // A full isElement(r) is unnecessary: with r in canonical range, y in the
  // subgroup and the equation g^s == r * y^c holding, r equals the subgroup
  // element g^s * y^{-c} — so r's membership is implied, and when the
  // equation fails we reject regardless. Accept set is identical to the
  // historical explicit-check version, one q-bit exponentiation cheaper.
  if (proof.r.isZero() || proof.r >= group.p()) return false;
  if (!group.isElement(key.y)) return false;
  if (proof.s >= group.q()) return false;
  const BigUint c = challengeHash(group, proof.r, key.y, context);
  const BigUint lhs = group.exp(proof.s);
  const BigUint rhs = group.mul(proof.r, group.exp(key.y, c));
  return lhs == rhs;
}

std::vector<bool> schnorrProofVerifyBatch(
    const DlogGroup& group, const std::vector<SchnorrProofBatchItem>& items) {
  std::vector<bool> out(items.size(), false);
  if (items.empty()) return out;
  if (items.size() == 1) {
    out[0] = schnorrProofVerify(group, items[0].key, items[0].context,
                                items[0].proof);
    return out;
  }

  // Structural pass: s < q per item, y in the subgroup once per distinct
  // key, and r in the subgroup per item. r's membership must be EXPLICIT
  // here (unlike the single path): the combined equation only constrains the
  // product of the r_i^{z_i}, so an order-2 component on one r_i could
  // vanish under an even z_i instead of forcing a rejection.
  std::map<BigUint, bool> keyOk;
  std::vector<std::size_t> live;
  std::vector<BigUint> challenges(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const auto [it, inserted] = keyOk.try_emplace(items[i].key.y, false);
    if (inserted) it->second = group.isElement(items[i].key.y);
    if (!it->second) continue;
    if (items[i].proof.s >= group.q()) continue;
    if (!group.isElement(items[i].proof.r)) continue;
    challenges[i] =
        challengeHash(group, items[i].proof.r, items[i].key.y, items[i].context);
    live.push_back(i);
  }
  if (live.empty()) return out;

  // 128-bit coefficients z_i from a hash over the whole batch: deterministic
  // (no RNG consumed — seeded simulations stay byte-identical) and fixed
  // only after every item is, so no item can be chosen against its z.
  util::Writer seedW;
  for (const std::size_t i : live) {
    seedW.bytes(items[i].key.y.toBytes());
    seedW.bytes(items[i].context);
    seedW.bytes(items[i].proof.r.toBytes());
    seedW.bytes(items[i].proof.s.toBytes());
  }
  const auto seed = crypto::sha256(seedW.buffer());

  BigUint sSum{};
  std::vector<PowTerm> terms;
  terms.reserve(live.size() + keyOk.size());
  // The r_i are distinct per proof, but keys repeat across an access page
  // (one pseudonym opening an album); since y^q == 1 held above, all of one
  // key's terms fold into a single y^{sum z_i c_i mod q}, leaving only the
  // short 128-bit z_i exponents on the per-item side.
  std::map<BigUint, BigUint> keyExponent;
  for (std::size_t k = 0; k < live.size(); ++k) {
    const std::size_t i = live[k];
    util::Writer zw;
    zw.raw(util::BytesView(seed.data(), seed.size()));
    zw.u64(static_cast<std::uint64_t>(k));
    const auto digest = crypto::sha256(zw.buffer());
    BigUint z = BigUint::fromBytes(util::BytesView(digest.data(), 16));
    if (z.isZero()) z = BigUint(1);
    sSum = addMod(sSum, mulMod(z, items[i].proof.s, group.q()), group.q());
    terms.push_back(PowTerm{items[i].proof.r, z});
    BigUint& acc = keyExponent[items[i].key.y];
    acc = addMod(acc, mulMod(z, challenges[i], group.q()), group.q());
  }
  for (const auto& [y, e] : keyExponent) terms.push_back(PowTerm{y, e});

  // g^{sum z_i s_i} == prod r_i^{z_i} * prod_y y^{sum z_i c_i}: all variable
  // bases share one squaring chain (multiPowMod), and the g side rides the
  // cached fixed-base table.
  const BigUint lhs = group.exp(sSum);
  const BigUint rhs = multiPowMod(*group.montContext(), terms);
  if (lhs == rhs) {
    for (const std::size_t i : live) out[i] = true;
    return out;
  }
  // Fallback contract: a failed combined check isolates the offender(s) by
  // re-verifying every structurally-sound item one-by-one.
  for (const std::size_t i : live) {
    out[i] = schnorrProofVerify(group, items[i].key, items[i].context,
                                items[i].proof);
  }
  return out;
}

}  // namespace dosn::pkcrypto

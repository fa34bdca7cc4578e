#include "dosn/ibbe/ibbe.hpp"

#include "dosn/crypto/aead.hpp"
#include "dosn/crypto/hkdf.hpp"
#include "dosn/crypto/hmac.hpp"
#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::ibbe {

namespace {

util::Bytes wrapKey(const DlogGroup& group, const BigUint& shared,
                    const std::string& identity) {
  // padded(shared) || identity
  const std::size_t width = group.elementBytes();
  util::Bytes material(width + identity.size());
  shared.toBytesInto(std::span<std::uint8_t>(material.data(), width));
  std::copy(identity.begin(), identity.end(), material.begin() + width);
  return crypto::deriveKey(material, "ibbe-wrap");
}

}  // namespace

util::Bytes IbbeCiphertext::serialize() const {
  util::Writer w;
  w.bytes(c1.toBytes());
  w.u32(static_cast<std::uint32_t>(wraps.size()));
  for (const auto& [id, box] : wraps) {
    w.str(id);
    w.bytes(box);
  }
  w.bytes(payloadBox);
  return w.take();
}

std::optional<IbbeCiphertext> IbbeCiphertext::deserialize(util::BytesView data) {
  try {
    util::Reader r(data);
    IbbeCiphertext ct;
    ct.c1 = BigUint::fromBytes(r.bytesView());
    const std::uint32_t count = r.count(8);  // a wrap: two u32 lengths
    ct.wraps.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string id = r.str();
      ct.wraps.emplace_back(std::move(id), r.bytes());
    }
    ct.payloadBox = r.bytes();
    r.expectEnd();
    return ct;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

Pkg::Pkg(const DlogGroup& group, util::Rng& rng)
    : group_(group), masterSecret_(rng.bytes(32)) {}

const BigUint& Pkg::identitySecret(const std::string& identity) const {
  auto it = secrets_.find(identity);
  if (it == secrets_.end()) {
    const util::Bytes material =
        crypto::prf(masterSecret_, util::toBytes("id:" + identity));
    it = secrets_.emplace(identity, group_.hashToScalar(material)).first;
  }
  return it->second;
}

BigUint Pkg::identityPublicKey(const std::string& identity) const {
  return group_.exp(identitySecret(identity));
}

IbbeUserKey Pkg::extract(const std::string& identity) const {
  return IbbeUserKey{identity, identitySecret(identity)};
}

Directory::Directory(Pkg pkg) : pkg_(std::move(pkg)) {}

const bignum::FixedBasePowerTable& Directory::lookup(
    const std::string& identity) {
  auto it = tables_.find(identity);
  if (it == tables_.end()) {
    // Wrap exponents are scalars below q.
    const DlogGroup& group = pkg_.group();
    it = tables_
             .try_emplace(identity, pkg_.identityPublicKey(identity), group.p(),
                          group.q().bitLength())
             .first;
  }
  return it->second;
}

IbbeCiphertext ibbeEncrypt(const DlogGroup& group, Directory& directory,
                           const std::vector<std::string>& recipients,
                           util::BytesView plaintext, util::Rng& rng) {
  if (recipients.empty()) {
    throw util::CryptoError("ibbeEncrypt: empty recipient list");
  }
  IbbeCiphertext ct;
  const BigUint k = group.randomScalar(rng);
  // g^k and every Y_id^k share k: one batch of fixed-base powers. Powers
  // draw nothing from rng, so the draws keep their order.
  std::vector<bignum::FixedBasePowerTable::Job> jobs;
  jobs.reserve(recipients.size() + 1);
  jobs.push_back({&group.generatorTable(), &k});
  for (const auto& id : recipients) jobs.push_back({&directory.lookup(id), &k});
  std::vector<BigUint> powers(jobs.size());
  bignum::FixedBasePowerTable::powMany(jobs, powers);
  ct.c1 = std::move(powers[0]);
  const util::Bytes sessionKey = rng.bytes(32);
  ct.wraps.reserve(recipients.size());
  for (std::size_t i = 0; i < recipients.size(); ++i) {
    const std::string& id = recipients[i];
    ct.wraps.emplace_back(
        id, crypto::sealWithNonce(wrapKey(group, powers[i + 1], id),
                                  sessionKey, rng));
  }
  ct.payloadBox = crypto::sealWithNonce(
      crypto::deriveKey(sessionKey, "ibbe-payload"), plaintext, rng);
  return ct;
}

std::optional<util::Bytes> ibbeDecrypt(const DlogGroup& group,
                                       const IbbeUserKey& key,
                                       const IbbeCiphertext& ct) {
  for (const auto& [id, box] : ct.wraps) {
    if (id != key.identity) continue;
    const BigUint shared = group.exp(ct.c1, key.secret);
    const auto session = crypto::openWithNonce(wrapKey(group, shared, id), box);
    if (!session) return std::nullopt;
    return crypto::openWithNonce(crypto::deriveKey(*session, "ibbe-payload"),
                                 ct.payloadBox);
  }
  return std::nullopt;
}

}  // namespace dosn::ibbe

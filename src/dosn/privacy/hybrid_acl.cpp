#include "dosn/privacy/hybrid_acl.hpp"

#include "dosn/crypto/aead.hpp"
#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::privacy {

std::string wrapSchemeName(WrapScheme scheme) {
  switch (scheme) {
    case WrapScheme::kPublicKey: return "pk";
    case WrapScheme::kCpAbe: return "cp-abe";
    case WrapScheme::kIbbe: return "ibbe";
  }
  throw util::DosnError("wrapSchemeName: bad scheme");
}

HybridAcl::HybridAcl(const pkcrypto::DlogGroup& group, util::Rng& rng,
                     WrapScheme wrap)
    : dlog_(group),
      rng_(rng),
      wrap_(wrap),
      abeAuthority_(group, rng),
      pkg_(group, rng),
      directory_(pkg_),
      memberKeys_(group, rng) {}

void HybridAcl::addMember(const GroupId& id, const UserId& user) {
  memberKeys_.issue(user);
  GroupAccessController::addMember(id, user);
}

RevocationReport HybridAcl::removeMember(const GroupId& id,
                                         const UserId& user) {
  Group& g = group(id);
  g.members.erase(user);
  RevocationReport report;
  if (wrap_ == WrapScheme::kCpAbe) {
    report.keyOperations = g.members.size();
  } else if (wrap_ == WrapScheme::kPublicKey) {
    report.keyOperations = 1;  // list edit
  }
  // Forward security for retained data: fresh data keys + re-wrap. The
  // asymmetric work is bounded by the 32-byte key, not the payload — the
  // hybrid advantage the paper describes. The owner reopens each retained
  // payload with the data key it kept, so no member's key is needed; the
  // CP-ABE epoch moves on before the new wraps are made for it.
  if (wrap_ == WrapScheme::kCpAbe) ++g.epoch;  // attribute re-keying
  if (g.members.empty()) return report;  // nobody to wrap for; stays sealed
  std::vector<DataKey>& keys = dataKeys_[id];
  for (std::size_t i = 0; i < g.history.size(); ++i) {
    Envelope& env = g.history[i];
    util::Reader r(env.blob);
    forgetUnwraps(r.bytesView());
    const auto plain = crypto::openWithNonce(keys[i], r.bytesView());
    if (!plain) throw util::DosnError("HybridAcl: corrupt history");
    const util::Bytes newKey = rng_.bytes(32);
    util::Writer w;
    w.bytes(wrapKey(id, g, newKey, rng_));
    w.bytes(crypto::sealWithNonce(newKey, *plain, rng_));
    env.blob = w.take();
    std::copy(newKey.begin(), newKey.end(), keys[i].begin());
    ++report.reencryptedEnvelopes;
    report.rewrittenBytes += env.blob.size();
  }
  return report;
}

util::Bytes HybridAcl::wrapKey(const GroupId& id, const Group& g,
                               util::BytesView dataKey, util::Rng& rng) {
  util::Writer w;
  switch (wrap_) {
    case WrapScheme::kPublicKey:
      w.raw(memberKeys_.encrypt(g.members, dataKey, rng));
      break;
    case WrapScheme::kCpAbe: {
      const policy::Policy p = policy::Policy::attribute(epochAttribute(id, g));
      w.bytes(abe::cpabeEncrypt(dlog_, abeAuthority_.publicKeysFor(p), p,
                                dataKey, rng)
                  .serialize());
      break;
    }
    case WrapScheme::kIbbe: {
      const std::vector<std::string> recipients(g.members.begin(),
                                                g.members.end());
      w.bytes(ibbe::ibbeEncrypt(dlog_, directory_, recipients, dataKey, rng)
                  .serialize());
      break;
    }
  }
  return w.take();
}

std::optional<util::Bytes> HybridAcl::unwrapKey(const UserId& reader,
                                                const GroupId& id,
                                                util::BytesView wrapped) {
  if (wrap_ == WrapScheme::kCpAbe) return unwrapUncached(reader, id, wrapped);
  auto key = std::make_pair(crypto::sha256(wrapped), reader);
  const auto it = unwrapMemo_.find(key);
  if (it != unwrapMemo_.end()) return it->second;
  auto dataKey = unwrapUncached(reader, id, wrapped);
  unwrapMemo_.emplace(std::move(key), dataKey);
  return dataKey;
}

void HybridAcl::forgetUnwraps(util::BytesView wrapped) {
  const crypto::Digest digest = crypto::sha256(wrapped);
  auto it = unwrapMemo_.lower_bound({digest, UserId{}});
  while (it != unwrapMemo_.end() && it->first.first == digest) {
    it = unwrapMemo_.erase(it);
  }
}

std::optional<util::Bytes> HybridAcl::unwrapUncached(const UserId& reader,
                                                     const GroupId& id,
                                                     util::BytesView wrapped) {
  if (wrap_ == WrapScheme::kPublicKey) {
    return memberKeys_.decrypt(reader, wrapped);
  }
  try {
    util::Reader r(wrapped);
    if (wrap_ == WrapScheme::kCpAbe) {
      const auto ct = abe::CpAbeCiphertext::deserialize(r.bytesView());
      if (!ct) return std::nullopt;
      const Group& g = group(id);
      if (!g.members.count(reader)) return std::nullopt;
      const auto key = abeAuthority_.keyGen({epochAttribute(id, g)});
      return abe::cpabeDecrypt(dlog_, key, *ct);
    }
    const auto ct = ibbe::IbbeCiphertext::deserialize(r.bytesView());
    if (!ct) return std::nullopt;
    return ibbe::ibbeDecrypt(dlog_, pkg_.extract(reader), *ct);
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

Envelope HybridAcl::encrypt(const GroupId& id, util::BytesView plaintext,
                            util::Rng& rng) {
  Group& g = group(id);
  const util::Bytes dataKey = rng.bytes(32);
  util::Writer w;
  w.bytes(wrapKey(id, g, dataKey, rng));
  w.bytes(crypto::sealWithNonce(dataKey, plaintext, rng));
  Envelope env = retain(id, g, w.take());
  DataKey& kept = dataKeys_[id].emplace_back();
  std::copy(dataKey.begin(), dataKey.end(), kept.begin());
  return env;
}

std::optional<util::Bytes> HybridAcl::decrypt(const UserId& reader,
                                              const Envelope& envelope) {
  const Group* g = findGroup(envelope.group);
  if (g == nullptr) return std::nullopt;
  // Fetch the current ciphertext for the serial (revocation may have
  // rewritten it).
  const util::Bytes* blob = g->retained(envelope.serial);
  if (blob == nullptr) blob = &envelope.blob;
  try {
    util::Reader r(*blob);
    const util::BytesView wrapped = r.bytesView();
    const util::BytesView payloadBox = r.bytesView();
    const auto dataKey = unwrapKey(reader, envelope.group, wrapped);
    if (!dataKey) return std::nullopt;
    return crypto::openWithNonce(*dataKey, payloadBox);
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

}  // namespace dosn::privacy

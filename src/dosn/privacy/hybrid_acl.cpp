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
  std::vector<Kept>& kept = kept_[id];
  for (std::size_t i = 0; i < g.history.size(); ++i) {
    Envelope& env = g.history[i];
    util::Reader r(env.blob);
    (void)r.bytesView();  // the old wrap: its unwraps are forgotten below
    const auto plain = crypto::openWithNonce(kept[i].dataKey, r.bytesView());
    if (!plain) throw util::DosnError("HybridAcl: corrupt history");
    unwrapMemo_.erase(kept[i].wrapDigest);
    Sealed sealed = seal(id, g, *plain, rng_);
    env.blob = std::move(sealed.blob);
    kept[i] = sealed.kept;
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

HybridAcl::Sealed HybridAcl::seal(const GroupId& id, const Group& g,
                                  util::BytesView plaintext, util::Rng& rng) {
  const util::Bytes dataKey = rng.bytes(32);
  const util::Bytes wrapped = wrapKey(id, g, dataKey, rng);
  util::Writer w;
  w.bytes(wrapped);
  w.bytes(crypto::sealWithNonce(dataKey, plaintext, rng));
  Sealed sealed{w.take(), Kept{}};
  std::copy(dataKey.begin(), dataKey.end(), sealed.kept.dataKey.begin());
  if (wrap_ != WrapScheme::kCpAbe) {
    sealed.kept.wrapDigest = crypto::sha256(wrapped);
  }
  return sealed;
}

std::optional<util::Bytes> HybridAcl::unwrapKey(
    const UserId& reader, const GroupId& id, util::BytesView wrapped,
    const crypto::Digest* keptDigest) {
  if (wrap_ == WrapScheme::kCpAbe) return unwrapUncached(reader, id, wrapped);
  Unwraps& unwraps =
      unwrapMemo_[keptDigest ? *keptDigest : crypto::sha256(wrapped)];
  for (const auto& [who, result] : unwraps) {
    if (who == reader) return result;
  }
  auto dataKey = unwrapUncached(reader, id, wrapped);
  unwraps.emplace_back(reader, dataKey);
  return dataKey;
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
  Sealed sealed = seal(id, g, plaintext, rng);
  Envelope env = retain(id, g, std::move(sealed.blob));
  kept_[id].push_back(sealed.kept);
  return env;
}

std::optional<util::Bytes> HybridAcl::decrypt(const UserId& reader,
                                              const Envelope& envelope) {
  const Group* g = findGroup(envelope.group);
  if (g == nullptr) return std::nullopt;
  // Fetch the current ciphertext for the serial (revocation may have
  // rewritten it); its wrap digest was kept beside it. A foreign envelope's
  // wrap is hashed.
  const auto index = g->retainedIndex(envelope.serial);
  const util::Bytes& blob = index ? g->history[*index].blob : envelope.blob;
  const crypto::Digest* keptDigest =
      index ? &kept_.at(envelope.group)[*index].wrapDigest : nullptr;
  try {
    util::Reader r(blob);
    const util::BytesView wrapped = r.bytesView();
    const util::BytesView payloadBox = r.bytesView();
    const auto dataKey = unwrapKey(reader, envelope.group, wrapped, keptDigest);
    if (!dataKey) return std::nullopt;
    return crypto::openWithNonce(*dataKey, payloadBox);
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

}  // namespace dosn::privacy

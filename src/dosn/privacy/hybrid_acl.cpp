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
      directory_(pkg_) {}

HybridAcl::GroupState& HybridAcl::groupRef(const GroupId& group) {
  const auto it = groups_.find(group);
  if (it == groups_.end()) throw util::DosnError("HybridAcl: unknown group");
  return it->second;
}

const HybridAcl::GroupState& HybridAcl::groupRef(const GroupId& group) const {
  const auto it = groups_.find(group);
  if (it == groups_.end()) throw util::DosnError("HybridAcl: unknown group");
  return it->second;
}

const pkcrypto::ElGamalPrivateKey& HybridAcl::userKey(const UserId& user) {
  const auto it = userKeys_.find(user);
  if (it != userKeys_.end()) return it->second;
  return userKeys_.emplace(user, pkcrypto::elgamalGenerate(dlog_, rng_))
      .first->second;
}

std::string HybridAcl::epochAttribute(const GroupId& group) const {
  return group + "#" + std::to_string(groupRef(group).epoch);
}

void HybridAcl::createGroup(const GroupId& group) {
  if (groups_.count(group)) throw util::DosnError("HybridAcl: group exists");
  groups_.emplace(group, GroupState{});
}

void HybridAcl::addMember(const GroupId& group, const UserId& user) {
  userKey(user);
  groupRef(group).members.insert(user);
}

RevocationReport HybridAcl::removeMember(const GroupId& group,
                                         const UserId& user) {
  GroupState& state = groupRef(group);
  state.members.erase(user);
  RevocationReport report;
  if (wrap_ == WrapScheme::kCpAbe) {
    report.keyOperations = state.members.size();
  } else if (wrap_ == WrapScheme::kPublicKey) {
    report.keyOperations = 1;  // list edit
  }
  // Forward security for retained data: fresh data keys + re-wrap. The
  // asymmetric work is bounded by the 32-byte key, not the payload — the
  // hybrid advantage the paper describes. Every retained payload is opened
  // before the CP-ABE epoch moves on: its wrap opens only under the epoch
  // it was made for.
  std::vector<util::Bytes> plains;
  for (const Envelope& env : state.history) {
    util::Reader r(env.blob);
    const util::Bytes wrapped = r.bytes();
    const util::Bytes payloadBox = r.bytes();
    // The group owner (who runs revocation) can always unwrap its own data.
    std::optional<util::Bytes> dataKey;
    for (const UserId& member : state.members) {
      dataKey = unwrapKey(member, group, wrapped);
      if (dataKey) break;
    }
    if (!dataKey && !state.members.empty()) {
      throw util::DosnError("HybridAcl: cannot unwrap own history");
    }
    if (!dataKey) break;  // no members left; history stays sealed
    auto plain = crypto::openWithNonce(*dataKey, payloadBox);
    if (!plain) throw util::DosnError("HybridAcl: corrupt history");
    plains.push_back(std::move(*plain));
  }
  if (wrap_ == WrapScheme::kCpAbe) ++state.epoch;  // attribute re-keying
  for (std::size_t i = 0; i < plains.size(); ++i) {
    Envelope& env = state.history[i];
    util::Reader r(env.blob);
    forgetUnwraps(r.bytes());
    const util::Bytes newKey = rng_.bytes(32);
    util::Writer w;
    w.bytes(wrapKey(group, newKey, rng_));
    w.bytes(crypto::sealWithNonce(newKey, plains[i], rng_));
    env.blob = w.take();
    ++report.reencryptedEnvelopes;
    report.rewrittenBytes += env.blob.size();
  }
  return report;
}

std::vector<UserId> HybridAcl::members(const GroupId& group) const {
  const GroupState& state = groupRef(group);
  return std::vector<UserId>(state.members.begin(), state.members.end());
}

bool HybridAcl::isMember(const GroupId& group, const UserId& user) const {
  const auto it = groups_.find(group);
  return it != groups_.end() && it->second.members.count(user) > 0;
}

util::Bytes HybridAcl::wrapKey(const GroupId& group, util::BytesView dataKey,
                               util::Rng& rng) {
  const GroupState& state = groupRef(group);
  util::Writer w;
  switch (wrap_) {
    case WrapScheme::kPublicKey: {
      w.u32(static_cast<std::uint32_t>(state.members.size()));
      for (const UserId& member : state.members) {
        w.str(member);
        w.bytes(pkcrypto::elgamalEncrypt(dlog_, userKey(member).pub, dataKey, rng));
      }
      break;
    }
    case WrapScheme::kCpAbe: {
      const policy::Policy p = policy::Policy::attribute(epochAttribute(group));
      w.bytes(abe::cpabeEncrypt(dlog_, abeAuthority_.publicKeysFor(p), p,
                                dataKey, rng)
                  .serialize());
      break;
    }
    case WrapScheme::kIbbe: {
      std::vector<std::string> recipients(state.members.begin(),
                                          state.members.end());
      w.bytes(ibbe::ibbeEncrypt(dlog_, directory_, recipients, dataKey, rng)
                  .serialize());
      break;
    }
  }
  return w.take();
}

std::optional<util::Bytes> HybridAcl::unwrapKey(const UserId& reader,
                                                const GroupId& group,
                                                util::BytesView wrapped) {
  if (wrap_ == WrapScheme::kCpAbe) return unwrapUncached(reader, group, wrapped);
  auto key = std::make_pair(crypto::sha256(wrapped), reader);
  const auto it = unwrapMemo_.find(key);
  if (it != unwrapMemo_.end()) return it->second;
  auto dataKey = unwrapUncached(reader, group, wrapped);
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
                                                     const GroupId& group,
                                                     util::BytesView wrapped) {
  try {
    util::Reader r(wrapped);
    switch (wrap_) {
      case WrapScheme::kPublicKey: {
        const auto keyIt = userKeys_.find(reader);
        if (keyIt == userKeys_.end()) return std::nullopt;
        const std::uint32_t count = r.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
          const std::string member = r.str();
          util::Bytes ct = r.bytes();
          if (member == reader) {
            return pkcrypto::elgamalDecrypt(dlog_, keyIt->second, ct);
          }
        }
        return std::nullopt;
      }
      case WrapScheme::kCpAbe: {
        const auto ct = abe::CpAbeCiphertext::deserialize(r.bytes());
        if (!ct) return std::nullopt;
        const GroupState& state = groupRef(group);
        if (!state.members.count(reader)) return std::nullopt;
        const auto key = abeAuthority_.keyGen({epochAttribute(group)});
        return abe::cpabeDecrypt(dlog_, key, *ct);
      }
      case WrapScheme::kIbbe: {
        const auto ct = ibbe::IbbeCiphertext::deserialize(r.bytes());
        if (!ct) return std::nullopt;
        return ibbe::ibbeDecrypt(dlog_, pkg_.extract(reader), *ct);
      }
    }
    return std::nullopt;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

Envelope HybridAcl::encrypt(const GroupId& group, util::BytesView plaintext,
                            util::Rng& rng) {
  GroupState& state = groupRef(group);
  const util::Bytes dataKey = rng.bytes(32);
  util::Writer w;
  w.bytes(wrapKey(group, dataKey, rng));
  w.bytes(crypto::sealWithNonce(dataKey, plaintext, rng));
  Envelope env;
  env.scheme = schemeName();
  env.group = group;
  env.serial = nextSerial_++;
  env.blob = w.take();
  state.history.push_back(env);
  return env;
}

std::optional<util::Bytes> HybridAcl::decrypt(const UserId& reader,
                                              const Envelope& envelope) {
  const auto it = groups_.find(envelope.group);
  if (it == groups_.end()) return std::nullopt;
  // Fetch the current ciphertext for the serial (revocation may have
  // rewritten it).
  const util::Bytes* blob = &envelope.blob;
  for (const Envelope& stored : it->second.history) {
    if (stored.serial == envelope.serial) {
      blob = &stored.blob;
      break;
    }
  }
  try {
    util::Reader r(*blob);
    const util::Bytes wrapped = r.bytes();
    const util::Bytes payloadBox = r.bytes();
    const auto dataKey = unwrapKey(reader, envelope.group, wrapped);
    if (!dataKey) return std::nullopt;
    return crypto::openWithNonce(*dataKey, payloadBox);
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

std::vector<Envelope> HybridAcl::history(const GroupId& group) const {
  return groupRef(group).history;
}

}  // namespace dosn::privacy

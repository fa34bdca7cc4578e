#include "dosn/privacy/app_capability.hpp"

#include "dosn/util/codec.hpp"

namespace dosn::privacy {

util::Bytes CapabilityToken::signedBytes() const {
  util::Writer w;
  w.u64(id);
  w.str(owner);
  w.str(app);
  w.str(scope);
  w.u8(static_cast<std::uint8_t>(rights));
  w.u64(expiresAt);
  return w.take();
}

util::Bytes CapabilityToken::serialize() const {
  util::Writer w;
  w.raw(signedBytes());
  w.bytes(signature.serialize());
  return w.take();
}

std::optional<CapabilityToken> CapabilityToken::deserialize(
    util::BytesView data) {
  try {
    util::Reader r(data);
    CapabilityToken t;
    t.id = r.u64();
    t.owner = r.str();
    t.app = r.str();
    t.scope = r.str();
    const std::uint8_t rights = r.u8();
    if (rights < 1 || rights > 3) return std::nullopt;
    t.rights = static_cast<AppRight>(rights);
    t.expiresAt = r.u64();
    const auto sig = pkcrypto::SchnorrSignature::deserialize(r.bytes());
    if (!sig) return std::nullopt;
    t.signature = *sig;
    r.expectEnd();
    return t;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

CapabilityToken CapabilityIssuer::issue(const std::string& app,
                                        const std::string& scope,
                                        AppRight rights,
                                        std::uint64_t expiresAt,
                                        util::Rng& rng) {
  CapabilityToken token;
  token.id = nextId_++;
  token.owner = owner_.user;
  token.app = app;
  token.scope = scope;
  token.rights = rights;
  token.expiresAt = expiresAt;
  token.signature = pkcrypto::schnorrSign(group_, owner_.signing,
                                          token.signedBytes(), rng);
  return token;
}

namespace {

bool scopeCovers(const std::string& scope, const std::string& resource) {
  if (resource == scope) return true;
  // Prefix match on path-segment boundary.
  return resource.size() > scope.size() &&
         resource.compare(0, scope.size(), scope) == 0 &&
         resource[scope.size()] == '/';
}

bool rightsCover(AppRight granted, AppRight needed) {
  return (static_cast<std::uint8_t>(granted) &
          static_cast<std::uint8_t>(needed)) ==
         static_cast<std::uint8_t>(needed);
}

}  // namespace

bool checkCapability(const pkcrypto::DlogGroup& group,
                     const social::IdentityRegistry& registry,
                     const CapabilityToken& token,
                     const std::set<std::uint64_t>& revocationList,
                     const std::string& app, const std::string& resource,
                     AppRight needed, std::uint64_t now) {
  if (token.app != app) return false;
  if (revocationList.count(token.id)) return false;
  if (token.expiresAt != 0 && now > token.expiresAt) return false;
  if (!scopeCovers(token.scope, resource)) return false;
  if (!rightsCover(token.rights, needed)) return false;
  const auto key = registry.verifyingKey(token.owner, group);
  return key && key->verify(token.signedBytes(), token.signature);
}

}  // namespace dosn::privacy

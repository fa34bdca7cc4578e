#include "dosn/overlay/node_id.hpp"

#include "dosn/crypto/sha256.hpp"

namespace dosn::overlay {

OverlayId OverlayId::random(util::Rng& rng) {
  OverlayId id;
  rng.fill(id.bytes.data(), id.bytes.size());
  return id;
}

OverlayId OverlayId::hash(util::BytesView data) {
  crypto::Sha256 h;
  h.update(data);
  return hash(h);
}

OverlayId OverlayId::hash(std::string_view text) {
  return hash(util::asBytes(text));
}

OverlayId OverlayId::hash(crypto::Sha256& absorbed) {
  const crypto::Digest digest = absorbed.finish();
  OverlayId id;
  std::copy(digest.begin(), digest.begin() + kIdBytes, id.bytes.begin());
  return id;
}

std::string OverlayId::toHex() const {
  return util::toHex(util::BytesView(bytes));
}

OverlayId xorDistance(const OverlayId& a, const OverlayId& b) {
  OverlayId out;
  for (std::size_t i = 0; i < kIdBytes; ++i) out.bytes[i] = a.bytes[i] ^ b.bytes[i];
  return out;
}

}  // namespace dosn::overlay

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

int bucketIndex(const OverlayId& a, const OverlayId& b) {
  for (std::size_t i = 0; i < kIdBytes; ++i) {
    const std::uint8_t d = a.bytes[i] ^ b.bytes[i];
    if (d != 0) {
      // Highest set bit within this byte.
      int bit = 7;
      while (((d >> bit) & 1) == 0) --bit;
      return static_cast<int>((kIdBytes - 1 - i) * 8) + bit;
    }
  }
  return -1;
}

bool closerTo(const OverlayId& target, const OverlayId& a, const OverlayId& b) {
  for (std::size_t i = 0; i < kIdBytes; ++i) {
    const std::uint8_t da = a.bytes[i] ^ target.bytes[i];
    const std::uint8_t db = b.bytes[i] ^ target.bytes[i];
    if (da != db) return da < db;
  }
  return false;
}

}  // namespace dosn::overlay

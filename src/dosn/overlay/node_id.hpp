// 160-bit overlay identifiers with XOR distance (Kademlia-style), used by the
// structured control overlay of §II-B.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

#include "dosn/crypto/sha256.hpp"
#include "dosn/util/bytes.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::overlay {

inline constexpr std::size_t kIdBytes = 20;
inline constexpr std::size_t kIdBits = kIdBytes * 8;

struct OverlayId {
  std::array<std::uint8_t, kIdBytes> bytes{};

  auto operator<=>(const OverlayId&) const = default;

  static OverlayId random(util::Rng& rng);
  /// SHA-256-derived id for arbitrary content (keys, usernames).
  static OverlayId hash(util::BytesView data);
  static OverlayId hash(std::string_view text);
  /// The id of the input streamed into `absorbed` (which it finishes): the
  /// same id as hash() of that input in one piece.
  static OverlayId hash(crypto::Sha256& absorbed);

  std::string toHex() const;
};

/// XOR distance.
OverlayId xorDistance(const OverlayId& a, const OverlayId& b);

/// Index of the highest set bit of the XOR distance, in [0, 160); -1 if equal.
/// This is the k-bucket index for `b` in `a`'s routing table.
int bucketIndex(const OverlayId& a, const OverlayId& b);

/// True if distance(a, target) < distance(b, target).
bool closerTo(const OverlayId& target, const OverlayId& a, const OverlayId& b);

}  // namespace dosn::overlay

// 160-bit overlay identifiers with XOR distance (Kademlia-style), used by the
// structured control overlay of §II-B.
//
// Every comparison on the routing and store hot paths (ordering, equality,
// bucket index, "closer to") reads an id as three big-endian words: bytes
// 0-7, bytes 8-15 and bytes 16-19. A big-endian word orders exactly as its
// bytes do lexicographically, so each word-wise operation equals its
// byte-at-a-time definition (OverlayId.WordOrderMatchesBytewise pins this)
// while costing three loads instead of up to twenty byte compares.
#pragma once

#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>

#include "dosn/crypto/sha256.hpp"
#include "dosn/util/bytes.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::overlay {

inline constexpr std::size_t kIdBytes = 20;
inline constexpr std::size_t kIdBits = kIdBytes * 8;

namespace detail {

inline std::uint64_t loadBigEndian64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline std::uint32_t loadBigEndian32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace detail

struct OverlayId {
  std::array<std::uint8_t, kIdBytes> bytes{};

  /// The id's bytes 0-7, 8-15 and 16-19 as big-endian words.
  std::uint64_t high() const { return detail::loadBigEndian64(bytes.data()); }
  std::uint64_t middle() const {
    return detail::loadBigEndian64(bytes.data() + 8);
  }
  std::uint32_t low() const { return detail::loadBigEndian32(bytes.data() + 16); }

  /// Lexicographic byte order, compared word by word.
  friend std::strong_ordering operator<=>(const OverlayId& a,
                                          const OverlayId& b) {
    if (const std::uint64_t x = a.high(), y = b.high(); x != y) return x <=> y;
    if (const std::uint64_t x = a.middle(), y = b.middle(); x != y) {
      return x <=> y;
    }
    return a.low() <=> b.low();
  }
  friend bool operator==(const OverlayId& a, const OverlayId& b) {
    return ((a.high() ^ b.high()) | (a.middle() ^ b.middle()) |
            (a.low() ^ b.low())) == 0;
  }

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

/// The XOR distance of two ids as its three big-endian words: keys order
/// exactly as the distances' bytes do, so a sort by key is a sort by
/// distance, with each distance computed once.
struct DistanceKey {
  std::uint64_t high = 0;
  std::uint64_t middle = 0;
  std::uint32_t low = 0;

  friend auto operator<=>(const DistanceKey&, const DistanceKey&) = default;
};

inline DistanceKey distanceKey(const OverlayId& a, const OverlayId& b) {
  return DistanceKey{a.high() ^ b.high(), a.middle() ^ b.middle(),
                     a.low() ^ b.low()};
}

/// Index of the highest set bit of the XOR distance, in [0, 160); -1 if equal.
/// This is the k-bucket index for `b` in `a`'s routing table.
inline int bucketIndex(const OverlayId& a, const OverlayId& b) {
  const DistanceKey d = distanceKey(a, b);
  if (d.high != 0) return 159 - std::countl_zero(d.high);
  if (d.middle != 0) return 95 - std::countl_zero(d.middle);
  if (d.low != 0) return 31 - std::countl_zero(d.low);
  return -1;
}

/// True if distance(a, target) < distance(b, target).
inline bool closerTo(const OverlayId& target, const OverlayId& a,
                     const OverlayId& b) {
  return distanceKey(a, target) < distanceKey(b, target);
}

}  // namespace dosn::overlay

// Byte-buffer helpers shared by every module: hex/base64 transcoding,
// constant-time comparison, concatenation and conversions to/from text.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace dosn::util {

/// The library-wide owning byte buffer.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning view over bytes; every hashing/encryption API takes this.
using BytesView = std::span<const std::uint8_t>;

/// Copies a string's characters into a byte buffer (no encoding change).
Bytes toBytes(std::string_view text);

/// A string's characters as bytes, without a copy (no encoding change).
inline BytesView asBytes(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

/// Interprets a byte buffer as text (no validation; callers own semantics).
std::string toString(BytesView data);

/// Lower-case hex encoding ("deadbeef").
std::string toHex(BytesView data);

/// Parses hex produced by toHex (case-insensitive). Returns std::nullopt on
/// odd length or non-hex characters.
std::optional<Bytes> fromHex(std::string_view hex);

/// Standard base64 (RFC 4648, with padding).
std::string toBase64(BytesView data);

/// Parses base64 with or without padding; std::nullopt on invalid input.
std::optional<Bytes> fromBase64(std::string_view b64);

/// Comparison that does not short-circuit on the first mismatching byte.
/// Still compares lengths up front (length is considered public).
bool constantTimeEqual(BytesView a, BytesView b);

/// a || b.
Bytes concat(BytesView a, BytesView b);
Bytes concat(BytesView a, BytesView b, BytesView c);

/// Byte-wise XOR; both inputs must have the same size.
Bytes xorBytes(BytesView a, BytesView b);

}  // namespace dosn::util

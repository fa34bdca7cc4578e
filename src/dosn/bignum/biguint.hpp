// Arbitrary-precision unsigned integers — the substrate for all public-key
// cryptography in this repository (RSA, ElGamal, Schnorr, DH, OPRF).
//
// Representation: little-endian vector of 64-bit limbs with no trailing zero
// limbs (zero is the empty vector) — the same limb vector MontgomeryContext
// computes on, so entering and leaving the Montgomery domain only pads and
// trims. Limb products and carries go through unsigned __int128.
// Multiplication is schoolbook below 16 limbs (1024 bits) and Karatsuba above
// (the crossover where the extra additions pay for themselves at these
// operand shapes); division is Knuth Algorithm D. schoolbookMul() retains the
// quadratic path as the differential-testing reference for the Karatsuba
// split.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dosn/util/bytes.hpp"

namespace dosn::bignum {

class BigUint;

/// Quotient/remainder pair returned by BigUint::divmod.
struct DivMod;

class BigUint {
 public:
  /// Little-endian 64-bit limbs.
  using Limbs = std::vector<std::uint64_t>;

  BigUint() = default;
  BigUint(std::uint64_t value);  // NOLINT(google-explicit-constructor)
  /// Adopts little-endian limbs; trailing zero limbs are trimmed.
  explicit BigUint(Limbs limbs);

  /// Parses lower/upper-case hex (no prefix). std::nullopt on bad input.
  static std::optional<BigUint> fromHex(std::string_view hex);
  /// Parses a base-10 string.
  static std::optional<BigUint> fromDecimal(std::string_view dec);
  /// Big-endian byte import (leading zeros fine).
  static BigUint fromBytes(util::BytesView data);

  bool isZero() const { return limbs_.empty(); }
  bool isOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool isEven() const { return !isOdd(); }

  /// Number of significant bits (0 for zero).
  std::size_t bitLength() const;
  /// Value of bit i (LSB = bit 0).
  bool bit(std::size_t i) const;

  /// Fits-in-u64 accessor; throws if the value is wider.
  std::uint64_t toUint64() const;

  std::string toHex() const;
  std::string toDecimal() const;
  /// Length of toBytes(): the minimal big-endian byte count.
  std::size_t byteLength() const { return (bitLength() + 7) / 8; }
  /// Big-endian bytes, minimal length (empty for zero).
  util::Bytes toBytes() const;
  /// Big-endian bytes right-aligned in `out`, zero-filled on the left;
  /// throws if the value needs more than out.size() bytes.
  void toBytesInto(std::span<std::uint8_t> out) const;
  /// Big-endian bytes left-padded to exactly `width` bytes; throws if the
  /// value doesn't fit.
  util::Bytes toBytesPadded(std::size_t width) const;

  // Comparison.
  int compare(const BigUint& other) const;
  bool operator==(const BigUint& o) const { return compare(o) == 0; }
  bool operator!=(const BigUint& o) const { return compare(o) != 0; }
  bool operator<(const BigUint& o) const { return compare(o) < 0; }
  bool operator<=(const BigUint& o) const { return compare(o) <= 0; }
  bool operator>(const BigUint& o) const { return compare(o) > 0; }
  bool operator>=(const BigUint& o) const { return compare(o) >= 0; }

  // Arithmetic. Subtraction requires *this >= other (throws otherwise).
  BigUint operator+(const BigUint& o) const;
  BigUint operator-(const BigUint& o) const;
  BigUint operator*(const BigUint& o) const;
  /// Quotient and remainder; divisor must be nonzero.
  DivMod divmod(const BigUint& divisor) const;
  BigUint operator/(const BigUint& o) const;
  BigUint operator%(const BigUint& o) const;

  BigUint operator<<(std::size_t bits) const;
  BigUint operator>>(std::size_t bits) const;

  BigUint& operator+=(const BigUint& o) { return *this = *this + o; }
  BigUint& operator-=(const BigUint& o) { return *this = *this - o; }
  BigUint& operator*=(const BigUint& o) { return *this = *this * o; }

  /// The trimmed limbs (empty for zero).
  const Limbs& limbs() const { return limbs_; }

 private:
  Limbs limbs_;
};

/// The quadratic multiply, regardless of operand size — the retained simple
/// path operator* is differential-tested against (operator* switches to
/// Karatsuba at 16 limbs = 1024 bits).
BigUint schoolbookMul(const BigUint& a, const BigUint& b);

struct DivMod {
  BigUint quotient;
  BigUint remainder;
};

}  // namespace dosn::bignum

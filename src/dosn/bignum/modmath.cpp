#include "dosn/bignum/modmath.hpp"

#include <array>

#include "dosn/bignum/montgomery.hpp"
#include "dosn/util/error.hpp"

namespace dosn::bignum {

BigUint addMod(const BigUint& a, const BigUint& b, const BigUint& m) {
  return (a + b) % m;
}

BigUint subMod(const BigUint& a, const BigUint& b, const BigUint& m) {
  const BigUint ar = a % m;
  const BigUint br = b % m;
  if (ar >= br) return ar - br;
  return m - (br - ar);
}

BigUint mulMod(const BigUint& a, const BigUint& b, const BigUint& m) {
  return (a * b) % m;
}

BigUint powMod(const BigUint& base, const BigUint& exponent, const BigUint& m) {
  if (m.isZero()) throw util::DosnError("powMod: zero modulus");
  if (m == BigUint(1)) return BigUint{};
  if (m.isOdd()) return MontgomeryContext(m).powMod(base, exponent);
  return powModSimple(base, exponent, m);
}

BigUint powModSimple(const BigUint& base, const BigUint& exponent,
                     const BigUint& m) {
  if (m.isZero()) throw util::DosnError("powMod: zero modulus");
  if (m == BigUint(1)) return BigUint{};
  const std::size_t bits = exponent.bitLength();
  if (bits == 0) return BigUint(1);

  // Precompute base^0..base^15 mod m for a 4-bit window.
  std::array<BigUint, 16> table;
  table[0] = BigUint(1);
  table[1] = base % m;
  for (std::size_t i = 2; i < table.size(); ++i) {
    table[i] = mulMod(table[i - 1], table[1], m);
  }

  BigUint result(1);
  // Process the exponent MSB-first in 4-bit windows.
  const std::size_t windows = (bits + 3) / 4;
  for (std::size_t w = windows; w-- > 0;) {
    if (w + 1 != windows) {
      for (int i = 0; i < 4; ++i) result = mulMod(result, result, m);
    }
    std::uint32_t window = 0;
    for (int i = 3; i >= 0; --i) {
      window = (window << 1) |
               static_cast<std::uint32_t>(exponent.bit(w * 4 + static_cast<std::size_t>(i)));
    }
    if (window != 0) result = mulMod(result, table[window], m);
  }
  return result;
}

BigUint gcd(BigUint a, BigUint b) {
  while (!b.isZero()) {
    BigUint r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

int jacobi(BigUint a, BigUint n) {
  if (!n.isOdd()) throw util::DosnError("jacobi: modulus must be odd");
  a = a % n;
  int result = 1;
  while (!a.isZero()) {
    while (a.isEven()) {
      a = a >> 1;
      // (2/n) = -1 iff n ≡ 3 or 5 (mod 8).
      const std::uint64_t n8 = n.limbs()[0] & 7;
      if (n8 == 3 || n8 == 5) result = -result;
    }
    // Reciprocity: both operands are odd here; the swap flips the sign iff
    // both are ≡ 3 (mod 4).
    std::swap(a, n);
    if ((a.limbs()[0] & 3) == 3 && (n.limbs()[0] & 3) == 3) result = -result;
    a = a % n;
  }
  return n == BigUint(1) ? result : 0;
}

std::optional<BigUint> invMod(const BigUint& a, const BigUint& m) {
  if (m.isZero()) throw util::DosnError("invMod: zero modulus");
  // Extended Euclid with coefficients tracked as (value, isNegative).
  BigUint r0 = m;
  BigUint r1 = a % m;
  BigUint t0{};     // coefficient of m
  BigUint t1(1);    // coefficient of a
  bool t0Neg = false;
  bool t1Neg = false;

  while (!r1.isZero()) {
    const auto [q, r2] = r0.divmod(r1);
    // t2 = t0 - q*t1 with sign tracking.
    const BigUint qt1 = q * t1;
    BigUint t2;
    bool t2Neg;
    if (t0Neg == t1Neg) {
      // Same sign: t0 - q*t1 may flip sign.
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2Neg = t0Neg;
      } else {
        t2 = qt1 - t0;
        t2Neg = !t0Neg;
      }
    } else {
      // Opposite signs: magnitudes add; sign follows t0.
      t2 = t0 + qt1;
      t2Neg = t0Neg;
    }
    r0 = std::move(r1);
    r1 = r2;
    t0 = std::move(t1);
    t0Neg = t1Neg;
    t1 = std::move(t2);
    t1Neg = t2Neg;
  }

  if (r0 != BigUint(1)) return std::nullopt;  // not coprime
  BigUint inv = t0 % m;
  if (t0Neg && !inv.isZero()) inv = m - inv;
  return inv;
}

BigUint randomBelow(const BigUint& bound, util::Rng& rng) {
  if (bound.isZero()) throw util::DosnError("randomBelow: zero bound");
  const std::size_t bits = bound.bitLength();
  const std::size_t bytes = (bits + 7) / 8;
  const std::size_t extraBits = bytes * 8 - bits;
  while (true) {
    util::Bytes buf = rng.bytes(bytes);
    if (!buf.empty()) {
      buf[0] &= static_cast<std::uint8_t>(0xff >> extraBits);
    }
    BigUint candidate = BigUint::fromBytes(buf);
    if (candidate < bound) return candidate;
  }
}

BigUint randomUnit(const BigUint& bound, util::Rng& rng) {
  if (bound < BigUint(4)) throw util::DosnError("randomUnit: bound too small");
  while (true) {
    BigUint candidate = randomBelow(bound, rng);
    if (candidate >= BigUint(2) && candidate < bound - BigUint(1)) {
      return candidate;
    }
  }
}

BigUint randomBits(std::size_t bits, util::Rng& rng) {
  if (bits == 0) return BigUint{};
  const std::size_t bytes = (bits + 7) / 8;
  util::Bytes buf = rng.bytes(bytes);
  const std::size_t extraBits = bytes * 8 - bits;
  buf[0] &= static_cast<std::uint8_t>(0xff >> extraBits);
  buf[0] |= static_cast<std::uint8_t>(0x80 >> extraBits);
  return BigUint::fromBytes(buf);
}

}  // namespace dosn::bignum

#include "dosn/bignum/biguint.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "dosn/util/error.hpp"

namespace dosn::bignum {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;
using Limbs = BigUint::Limbs;

int hexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// a - b - borrow; borrow is 0 or 1 on entry and is set to the borrow out.
u64 subBorrow(u64 a, u64 b, u64& borrow) {
  const u64 d = a - b;
  const u64 out = d - borrow;
  borrow = static_cast<u64>(a < b) | static_cast<u64>(d < borrow);
  return out;
}

// Below this many limbs per operand (16 limbs = 1024 bits) the quadratic
// multiply wins; above it Karatsuba's three half-size products beat four.
constexpr std::size_t kKaratsubaLimbs = 16;

// Schoolbook product of two raw limb spans; result has an + bn limbs (may
// carry trailing zeros — callers trim).
Limbs mulSchoolbookSpans(const u64* a, std::size_t an, const u64* b,
                         std::size_t bn) {
  Limbs out(an + bn, 0);
  for (std::size_t i = 0; i < an; ++i) {
    u64 carry = 0;
    const u64 ai = a[i];
    for (std::size_t j = 0; j < bn; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    out[i + bn] = carry;
  }
  return out;
}

// Plain limb-span addition (little-endian, carry kept).
Limbs addSpans(const u64* a, std::size_t an, const u64* b, std::size_t bn) {
  const std::size_t n = std::max(an, bn);
  Limbs out;
  out.reserve(n + 1);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    u128 sum = carry;
    if (i < an) sum += a[i];
    if (i < bn) sum += b[i];
    out.push_back(static_cast<u64>(sum));
    carry = static_cast<u64>(sum >> 64);
  }
  if (carry) out.push_back(carry);
  return out;
}

// a -= b in place; requires a >= b (operator- checks it, and the Karatsuba
// identity z1 = (a0+a1)(b0+b1) - z0 - z2 >= 0 guarantees it).
void subInPlace(Limbs& a, const Limbs& b) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = subBorrow(a[i], i < b.size() ? b[i] : 0, borrow);
  }
}

void trimTrailingZeroLimbs(Limbs& v) {
  while (!v.empty() && v.back() == 0) v.pop_back();
}

// acc[off..] += v with carry propagation. acc is sized for the full product
// and callers trim v to its value length first, so any limb of v that would
// land past acc.size() is provably zero — the bound check makes running off
// the end impossible even for degenerate inputs.
void addInto(Limbs& acc, std::size_t off, const Limbs& v) {
  u64 carry = 0;
  std::size_t k = off;
  for (std::size_t i = 0; i < v.size() && k < acc.size(); ++i, ++k) {
    const u128 sum = static_cast<u128>(acc[k]) + v[i] + carry;
    acc[k] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> 64);
  }
  for (; carry && k < acc.size(); ++k) {
    acc[k] += carry;
    carry = acc[k] == 0;
  }
}

// Karatsuba on raw spans: split both operands at limb m, recurse on the three
// half-size products, recombine as z0 + z1*B^m + z2*B^2m.
Limbs mulKaratsubaSpans(const u64* a, std::size_t an, const u64* b,
                        std::size_t bn) {
  if (an == 0 || bn == 0) return {};
  if (std::min(an, bn) < kKaratsubaLimbs) {
    return mulSchoolbookSpans(a, an, b, bn);
  }
  const std::size_t m = (std::max(an, bn) + 1) / 2;
  const std::size_t a0n = std::min(an, m);
  const std::size_t b0n = std::min(bn, m);
  const u64* a1 = a + a0n;
  const u64* b1 = b + b0n;
  const std::size_t a1n = an - a0n;
  const std::size_t b1n = bn - b0n;

  Limbs z0 = mulKaratsubaSpans(a, a0n, b, b0n);
  Limbs z2 = mulKaratsubaSpans(a1, a1n, b1, b1n);
  const Limbs sa = addSpans(a, a0n, a1, a1n);
  const Limbs sb = addSpans(b, b0n, b1, b1n);
  Limbs z1 = mulKaratsubaSpans(sa.data(), sa.size(), sb.data(), sb.size());
  subInPlace(z1, z0);
  subInPlace(z1, z2);

  // Trim each partial product to its value length before recombination. For
  // asymmetric splits (e.g. an=16, bn=31 makes a1 empty) z1's vector keeps
  // the full (a0+a1)(b0+b1) product length even though the subtractions shrink
  // its value, so off + z1.size() can exceed the an+bn output allocation —
  // trimming restores the invariant m + size(z1) <= an + bn that the
  // recombination relies on.
  trimTrailingZeroLimbs(z0);
  trimTrailingZeroLimbs(z1);
  trimTrailingZeroLimbs(z2);

  Limbs out(an + bn, 0);
  addInto(out, 0, z0);
  addInto(out, m, z1);
  if (!z2.empty()) addInto(out, 2 * m, z2);
  return out;
}

}  // namespace

BigUint::BigUint(std::uint64_t value) {
  if (value != 0) limbs_.push_back(value);
}

BigUint::BigUint(Limbs limbs) : limbs_(std::move(limbs)) {
  trimTrailingZeroLimbs(limbs_);
}

std::optional<BigUint> BigUint::fromHex(std::string_view hex) {
  if (hex.empty()) return std::nullopt;
  Limbs limbs;
  // Parse from the least-significant end, 16 hex digits per limb.
  std::size_t end = hex.size();
  while (end > 0) {
    const std::size_t begin = end >= 16 ? end - 16 : 0;
    u64 limb = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const int v = hexNibble(hex[i]);
      if (v < 0) return std::nullopt;
      limb = (limb << 4) | static_cast<u64>(v);
    }
    limbs.push_back(limb);
    end = begin;
  }
  return BigUint(std::move(limbs));
}

std::optional<BigUint> BigUint::fromDecimal(std::string_view dec) {
  if (dec.empty()) return std::nullopt;
  BigUint out;
  for (char c : dec) {
    if (c < '0' || c > '9') return std::nullopt;
    out = out * BigUint(10) + BigUint(static_cast<std::uint64_t>(c - '0'));
  }
  return out;
}

BigUint BigUint::fromBytes(util::BytesView data) {
  // Byte i from the end lands in limb i/8 at bit 8*(i%8): one pass, no
  // intermediate values.
  Limbs limbs((data.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    limbs[i / 8] |= static_cast<u64>(data[data.size() - 1 - i]) << (8 * (i % 8));
  }
  return BigUint(std::move(limbs));
}

std::size_t BigUint::bitLength() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * 64 +
         static_cast<std::size_t>(std::bit_width(limbs_.back()));
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::uint64_t BigUint::toUint64() const {
  if (limbs_.size() > 1) throw util::DosnError("BigUint::toUint64: too wide");
  return limbs_.empty() ? 0 : limbs_[0];
}

std::string BigUint::toHex() const {
  if (limbs_.empty()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(limbs_[i] >> shift) & 0xf]);
    }
  }
  const std::size_t firstNonZero = out.find_first_not_of('0');
  return out.substr(firstNonZero);
}

std::string BigUint::toDecimal() const {
  if (limbs_.empty()) return "0";
  std::string out;
  BigUint value = *this;
  const BigUint ten(10);
  while (!value.isZero()) {
    auto [q, r] = value.divmod(ten);
    out.push_back(static_cast<char>('0' + r.toUint64()));
    value = std::move(q);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

util::Bytes BigUint::toBytes() const {
  util::Bytes out(byteLength());
  toBytesInto(out);
  return out;
}

void BigUint::toBytesInto(std::span<std::uint8_t> out) const {
  const std::size_t bytes = byteLength();
  if (bytes > out.size()) {
    throw util::DosnError("BigUint::toBytesInto: value too wide");
  }
  const std::size_t pad = out.size() - bytes;
  std::fill_n(out.begin(), pad, 0);
  for (std::size_t i = bytes; i-- > 0;) {
    out[pad + bytes - 1 - i] =
        static_cast<std::uint8_t>(limbs_[i / 8] >> ((i % 8) * 8));
  }
}

util::Bytes BigUint::toBytesPadded(std::size_t width) const {
  util::Bytes out(width);
  toBytesInto(out);
  return out;
}

int BigUint::compare(const BigUint& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint BigUint::operator+(const BigUint& o) const {
  return BigUint(
      addSpans(limbs_.data(), limbs_.size(), o.limbs_.data(), o.limbs_.size()));
}

BigUint BigUint::operator-(const BigUint& o) const {
  if (*this < o) throw util::DosnError("BigUint: negative subtraction");
  Limbs out = limbs_;
  subInPlace(out, o.limbs_);
  return BigUint(std::move(out));
}

BigUint BigUint::operator*(const BigUint& o) const {
  if (isZero() || o.isZero()) return BigUint{};
  if (std::min(limbs_.size(), o.limbs_.size()) >= kKaratsubaLimbs) {
    return BigUint(mulKaratsubaSpans(limbs_.data(), limbs_.size(),
                                     o.limbs_.data(), o.limbs_.size()));
  }
  return schoolbookMul(*this, o);
}

BigUint schoolbookMul(const BigUint& a, const BigUint& b) {
  if (a.isZero() || b.isZero()) return BigUint{};
  return BigUint(mulSchoolbookSpans(a.limbs().data(), a.limbs().size(),
                                    b.limbs().data(), b.limbs().size()));
}

BigUint BigUint::operator<<(std::size_t bits) const {
  if (isZero() || bits == 0) return *this;
  const std::size_t limbShift = bits / 64;
  const std::size_t bitShift = bits % 64;
  Limbs out(limbs_.size() + limbShift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out[i + limbShift] |= limbs_[i] << bitShift;
    if (bitShift != 0) out[i + limbShift + 1] = limbs_[i] >> (64 - bitShift);
  }
  return BigUint(std::move(out));
}

BigUint BigUint::operator>>(std::size_t bits) const {
  if (isZero() || bits == 0) return *this;
  const std::size_t limbShift = bits / 64;
  const std::size_t bitShift = bits % 64;
  if (limbShift >= limbs_.size()) return BigUint{};
  Limbs out(limbs_.size() - limbShift, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = limbs_[i + limbShift] >> bitShift;
    if (bitShift != 0 && i + limbShift + 1 < limbs_.size()) {
      out[i] |= limbs_[i + limbShift + 1] << (64 - bitShift);
    }
  }
  return BigUint(std::move(out));
}

BigUint BigUint::operator/(const BigUint& o) const { return divmod(o).quotient; }

BigUint BigUint::operator%(const BigUint& o) const { return divmod(o).remainder; }

DivMod BigUint::divmod(const BigUint& divisor) const {
  if (divisor.isZero()) throw util::DosnError("BigUint: division by zero");
  if (*this < divisor) return {BigUint{}, *this};
  if (divisor.limbs_.size() == 1) {
    // Fast path: single-limb divisor. rem < d, so each quotient limb fits.
    const u64 d = divisor.limbs_[0];
    Limbs q(limbs_.size(), 0);
    u64 rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const u128 cur = (static_cast<u128>(rem) << 64) | limbs_[i];
      q[i] = static_cast<u64>(cur / d);
      rem = static_cast<u64>(cur - static_cast<u128>(q[i]) * d);
    }
    return {BigUint(std::move(q)), BigUint(rem)};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set.
  const std::size_t n = divisor.limbs_.size();
  const std::size_t shift =
      static_cast<std::size_t>(std::countl_zero(divisor.limbs_.back()));
  const BigUint u = *this << shift;
  const BigUint v = divisor << shift;
  const std::size_t m = u.limbs_.size() - n;

  Limbs un(u.limbs_);
  un.push_back(0);  // extra headroom limb
  const Limbs& vn = v.limbs_;

  Limbs q(m + 1, 0);
  constexpr u128 kBase = static_cast<u128>(1) << 64;
  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (un[j+n]*b + un[j+n-1]) / vn[n-1], at most b + 1 for
    // a normalized divisor; the test below brings it under b and to within
    // one of the true quotient digit.
    const u128 numerator = (static_cast<u128>(un[j + n]) << 64) | un[j + n - 1];
    u128 qhat = numerator / vn[n - 1];
    u128 rhat = numerator - qhat * vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 64) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }
    u64 qdigit = static_cast<u64>(qhat);  // the test above leaves q_hat < b

    // Multiply-subtract: un[j..j+n] -= qdigit * vn.
    u64 borrow = 0;
    u64 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const u128 product = static_cast<u128>(qdigit) * vn[i] + carry;
      carry = static_cast<u64>(product >> 64);
      un[i + j] = subBorrow(un[i + j], static_cast<u64>(product), borrow);
    }
    un[j + n] = subBorrow(un[j + n], carry, borrow);
    if (borrow) {
      // q_hat was one too large: add back (the carry out of the top limb
      // cancels the borrow).
      --qdigit;
      u64 addCarry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const u128 sum = static_cast<u128>(un[i + j]) + vn[i] + addCarry;
        un[i + j] = static_cast<u64>(sum);
        addCarry = static_cast<u64>(sum >> 64);
      }
      un[j + n] += addCarry;
    }
    q[j] = qdigit;
  }

  un.resize(n);
  return {BigUint(std::move(q)), BigUint(std::move(un)) >> shift};
}

}  // namespace dosn::bignum

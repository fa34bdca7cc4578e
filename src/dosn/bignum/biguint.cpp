#include "dosn/bignum/biguint.hpp"

#include <algorithm>
#include <stdexcept>

#include "dosn/util/error.hpp"

namespace dosn::bignum {

namespace {

int hexNibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

using LimbVec = std::vector<std::uint32_t>;

// Below this many limbs per operand (32 limbs = 1024 bits) the quadratic
// multiply wins; above it Karatsuba's three half-size products beat four.
constexpr std::size_t kKaratsubaLimbs = 32;

// Schoolbook product of two raw limb spans; result has an + bn limbs (may
// carry trailing zeros — callers trim).
LimbVec mulSchoolbookSpans(const std::uint32_t* a, std::size_t an,
                           const std::uint32_t* b, std::size_t bn) {
  LimbVec out(an + bn, 0);
  for (std::size_t i = 0; i < an; ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = a[i];
    for (std::size_t j = 0; j < bn; ++j) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(out[i + j]) + ai * b[j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    out[i + bn] = static_cast<std::uint32_t>(carry);
  }
  return out;
}

// Plain limb-span addition (little-endian, carry kept).
LimbVec addSpans(const std::uint32_t* a, std::size_t an,
                 const std::uint32_t* b, std::size_t bn) {
  const std::size_t n = std::max(an, bn);
  LimbVec out;
  out.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < an) sum += a[i];
    if (i < bn) sum += b[i];
    out.push_back(static_cast<std::uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry) out.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

// a -= b in place; requires a >= b (guaranteed by the Karatsuba identity
// z1 = (a0+a1)(b0+b1) - z0 - z2 >= 0).
void subInPlace(LimbVec& a, const LimbVec& b) {
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow;
    if (i < b.size()) diff -= b[i];
    if (diff < 0) {
      diff += (std::int64_t{1} << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    a[i] = static_cast<std::uint32_t>(diff);
  }
}

void trimTrailingZeroLimbs(LimbVec& v) {
  while (!v.empty() && v.back() == 0) v.pop_back();
}

// acc[off..] += v with carry propagation. acc is sized for the full product
// and callers trim v to its value length first, so any limb of v that would
// land past acc.size() is provably zero — the bound check makes running off
// the end impossible even for degenerate inputs.
void addInto(LimbVec& acc, std::size_t off, const LimbVec& v) {
  std::uint64_t carry = 0;
  std::size_t k = off;
  for (std::size_t i = 0; i < v.size() && k < acc.size(); ++i, ++k) {
    const std::uint64_t sum = static_cast<std::uint64_t>(acc[k]) + v[i] + carry;
    acc[k] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  while (carry && k < acc.size()) {
    const std::uint64_t sum = static_cast<std::uint64_t>(acc[k]) + carry;
    acc[k] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
    ++k;
  }
}

// Karatsuba on raw spans: split both operands at limb m, recurse on the three
// half-size products, recombine as z0 + z1*B^m + z2*B^2m.
LimbVec mulKaratsubaSpans(const std::uint32_t* a, std::size_t an,
                          const std::uint32_t* b, std::size_t bn) {
  if (an == 0 || bn == 0) return {};
  if (std::min(an, bn) < kKaratsubaLimbs) {
    return mulSchoolbookSpans(a, an, b, bn);
  }
  const std::size_t m = (std::max(an, bn) + 1) / 2;
  const std::size_t a0n = std::min(an, m);
  const std::size_t b0n = std::min(bn, m);
  const std::uint32_t* a1 = a + a0n;
  const std::uint32_t* b1 = b + b0n;
  const std::size_t a1n = an - a0n;
  const std::size_t b1n = bn - b0n;

  LimbVec z0 = mulKaratsubaSpans(a, a0n, b, b0n);
  LimbVec z2 = mulKaratsubaSpans(a1, a1n, b1, b1n);
  const LimbVec sa = addSpans(a, a0n, a1, a1n);
  const LimbVec sb = addSpans(b, b0n, b1, b1n);
  LimbVec z1 = mulKaratsubaSpans(sa.data(), sa.size(), sb.data(), sb.size());
  subInPlace(z1, z0);
  subInPlace(z1, z2);

  // Trim each partial product to its value length before recombination. For
  // asymmetric splits (e.g. an=32, bn=63 makes a1 empty) z1's vector keeps
  // the full (a0+a1)(b0+b1) product length even though the subtractions shrink
  // its value, so off + z1.size() can exceed the an+bn output allocation —
  // trimming restores the invariant m + size(z1) <= an + bn that the
  // recombination relies on.
  trimTrailingZeroLimbs(z0);
  trimTrailingZeroLimbs(z1);
  trimTrailingZeroLimbs(z2);

  LimbVec out(an + bn, 0);
  addInto(out, 0, z0);
  addInto(out, m, z1);
  if (!z2.empty()) addInto(out, 2 * m, z2);
  return out;
}

}  // namespace

BigUint::BigUint(std::uint64_t value) {
  if (value != 0) limbs_.push_back(static_cast<std::uint32_t>(value));
  if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

std::optional<BigUint> BigUint::fromHex(std::string_view hex) {
  if (hex.empty()) return std::nullopt;
  BigUint out;
  // Parse from the least-significant end, 8 hex digits per limb.
  std::size_t end = hex.size();
  while (end > 0) {
    const std::size_t begin = end >= 8 ? end - 8 : 0;
    std::uint32_t limb = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const int v = hexNibble(hex[i]);
      if (v < 0) return std::nullopt;
      limb = (limb << 4) | static_cast<std::uint32_t>(v);
    }
    out.limbs_.push_back(limb);
    end = begin;
  }
  out.trim();
  return out;
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
  // Byte i from the end lands in limb i/4 at bit 8*(i%4): one pass, no
  // intermediate values.
  BigUint out;
  out.limbs_.assign((data.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    out.limbs_[i / 4] |= static_cast<std::uint32_t>(data[data.size() - 1 - i])
                         << (8 * (i % 4));
  }
  out.trim();
  return out;
}

BigUint BigUint::fromWords64(const std::vector<std::uint64_t>& words) {
  BigUint out;
  out.limbs_.reserve(words.size() * 2);
  for (const std::uint64_t w : words) {
    out.limbs_.push_back(static_cast<std::uint32_t>(w));
    out.limbs_.push_back(static_cast<std::uint32_t>(w >> 32));
  }
  out.trim();
  return out;
}

std::vector<std::uint64_t> BigUint::words64(std::size_t count) const {
  if (limbs_.size() > count * 2) {
    throw util::DosnError("BigUint::words64: value too wide");
  }
  std::vector<std::uint64_t> out(count, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(limbs_[i]) << ((i % 2) * 32);
  }
  return out;
}

std::size_t BigUint::bitLength() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::uint64_t BigUint::toUint64() const {
  if (limbs_.size() > 2) throw util::DosnError("BigUint::toUint64: too wide");
  std::uint64_t v = 0;
  if (limbs_.size() > 1) v = static_cast<std::uint64_t>(limbs_[1]) << 32;
  if (!limbs_.empty()) v |= limbs_[0];
  return v;
}

std::string BigUint::toHex() const {
  if (limbs_.empty()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
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
  util::Bytes out;
  const std::size_t bytes = (bitLength() + 7) / 8;
  out.reserve(bytes);
  for (std::size_t i = bytes; i-- > 0;) {
    const std::size_t limb = i / 4;
    const std::size_t shift = (i % 4) * 8;
    out.push_back(static_cast<std::uint8_t>(limbs_[limb] >> shift));
  }
  return out;
}

util::Bytes BigUint::toBytesPadded(std::size_t width) const {
  util::Bytes minimal = toBytes();
  if (minimal.size() > width) {
    throw util::DosnError("BigUint::toBytesPadded: value too wide");
  }
  util::Bytes out(width - minimal.size(), 0);
  out.insert(out.end(), minimal.begin(), minimal.end());
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
  BigUint out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < o.limbs_.size()) sum += o.limbs_[i];
    out.limbs_.push_back(static_cast<std::uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigUint BigUint::operator-(const BigUint& o) const {
  if (*this < o) throw util::DosnError("BigUint: negative subtraction");
  BigUint out;
  out.limbs_.reserve(limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < o.limbs_.size()) diff -= o.limbs_[i];
    if (diff < 0) {
      diff += (std::int64_t{1} << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_.push_back(static_cast<std::uint32_t>(diff));
  }
  out.trim();
  return out;
}

BigUint BigUint::operator*(const BigUint& o) const {
  if (isZero() || o.isZero()) return BigUint{};
  BigUint out;
  if (std::min(limbs_.size(), o.limbs_.size()) >= kKaratsubaLimbs) {
    out.limbs_ = mulKaratsubaSpans(limbs_.data(), limbs_.size(),
                                   o.limbs_.data(), o.limbs_.size());
  } else {
    out.limbs_ = mulSchoolbookSpans(limbs_.data(), limbs_.size(),
                                    o.limbs_.data(), o.limbs_.size());
  }
  out.trim();
  return out;
}

BigUint schoolbookMul(const BigUint& a, const BigUint& b) {
  if (a.isZero() || b.isZero()) return BigUint{};
  BigUint out;
  out.limbs_ = mulSchoolbookSpans(a.limbs_.data(), a.limbs_.size(),
                                  b.limbs_.data(), b.limbs_.size());
  out.trim();
  return out;
}

BigUint BigUint::operator<<(std::size_t bits) const {
  if (isZero() || bits == 0) return *this;
  const std::size_t limbShift = bits / 32;
  const std::size_t bitShift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limbShift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limbShift] |= limbs_[i] << bitShift;
    if (bitShift != 0) {
      out.limbs_[i + limbShift + 1] |=
          static_cast<std::uint32_t>(static_cast<std::uint64_t>(limbs_[i]) >> (32 - bitShift));
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::operator>>(std::size_t bits) const {
  if (isZero() || bits == 0) return *this;
  const std::size_t limbShift = bits / 32;
  const std::size_t bitShift = bits % 32;
  if (limbShift >= limbs_.size()) return BigUint{};
  BigUint out;
  out.limbs_.assign(limbs_.size() - limbShift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = limbs_[i + limbShift] >> bitShift;
    if (bitShift != 0 && i + limbShift + 1 < limbs_.size()) {
      out.limbs_[i] |= static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(limbs_[i + limbShift + 1]) << (32 - bitShift));
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::operator/(const BigUint& o) const { return divmod(o).quotient; }

BigUint BigUint::operator%(const BigUint& o) const { return divmod(o).remainder; }

DivMod BigUint::divmod(const BigUint& divisor) const {
  if (divisor.isZero()) throw util::DosnError("BigUint: division by zero");
  if (*this < divisor) return {BigUint{}, *this};
  if (divisor.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    const std::uint64_t d = divisor.limbs_[0];
    BigUint q;
    q.limbs_.assign(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {std::move(q), BigUint(rem)};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set.
  const std::size_t n = divisor.limbs_.size();
  std::size_t shift = 0;
  {
    std::uint32_t top = divisor.limbs_.back();
    while ((top & 0x80000000u) == 0) {
      top <<= 1;
      ++shift;
    }
  }
  const BigUint u = *this << shift;
  const BigUint v = divisor << shift;
  const std::size_t m = u.limbs_.size() - n;

  std::vector<std::uint32_t> un(u.limbs_);
  un.push_back(0);  // extra headroom limb
  const std::vector<std::uint32_t>& vn = v.limbs_;

  BigUint q;
  q.limbs_.assign(m + 1, 0);

  const std::uint64_t base = std::uint64_t{1} << 32;
  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate q_hat = (un[j+n]*b + un[j+n-1]) / vn[n-1].
    const std::uint64_t numerator =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t qhat = numerator / vn[n - 1];
    std::uint64_t rhat = numerator % vn[n - 1];
    while (qhat >= base ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= base) break;
    }

    // Multiply-subtract: un[j..j+n] -= qhat * vn.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = qhat * vn[i] + carry;
      carry = product >> 32;
      std::int64_t diff = static_cast<std::int64_t>(un[i + j]) -
                          static_cast<std::int64_t>(product & 0xffffffffu) - borrow;
      if (diff < 0) {
        diff += static_cast<std::int64_t>(base);
        borrow = 1;
      } else {
        borrow = 0;
      }
      un[i + j] = static_cast<std::uint32_t>(diff);
    }
    std::int64_t topDiff = static_cast<std::int64_t>(un[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
    if (topDiff < 0) {
      // q_hat was one too large: add back.
      topDiff += static_cast<std::int64_t>(base);
      --qhat;
      std::uint64_t addCarry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + addCarry;
        un[i + j] = static_cast<std::uint32_t>(sum);
        addCarry = sum >> 32;
      }
      topDiff += static_cast<std::int64_t>(addCarry);
      topDiff &= static_cast<std::int64_t>(base - 1);
    }
    un[j + n] = static_cast<std::uint32_t>(topDiff);
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }
  q.trim();

  BigUint r;
  r.limbs_.assign(un.begin(), un.begin() + static_cast<std::ptrdiff_t>(n));
  r.trim();
  return {std::move(q), r >> shift};
}

}  // namespace dosn::bignum

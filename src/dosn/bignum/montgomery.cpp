#include "dosn/bignum/montgomery.hpp"

#include <algorithm>
#include <array>

#include "dosn/util/error.hpp"

namespace dosn::bignum {

namespace {

using u128 = unsigned __int128;

// n0^{-1} mod 2^64 by Newton iteration: x = n0 is correct mod 2^3 for odd
// n0, and each step doubles the number of valid low bits.
std::uint64_t invertWord(std::uint64_t n0) {
  std::uint64_t x = n0;
  for (int i = 0; i < 6; ++i) x *= 2 - n0 * x;
  return x;
}

}  // namespace

MontgomeryContext::MontgomeryContext(const BigUint& modulus)
    : modulus_(modulus) {
  if (modulus_.isEven() || modulus_ <= BigUint(1)) {
    throw util::DosnError("MontgomeryContext: modulus must be odd and > 1");
  }
  n_ = modulus_.limbs();
  const std::size_t k = n_.size();
  nInv_ = ~invertWord(n_[0]) + 1;  // -n^{-1} mod 2^64
  // R^2 mod n with R = 2^(64k), via one BigUint division at setup; every
  // later reduction is division-free.
  rr_ = ((BigUint(1) << (2 * 64 * k)) % modulus_).limbs();
  rr_.resize(k, 0);
  Limbs unit(k, 0);
  unit[0] = 1;
  one_ = montMul(unit, rr_);
}

MontgomeryContext::Limbs MontgomeryContext::montMul(LimbSpan a,
                                                    LimbSpan b) const {
  Limbs t(n_.size() + 2);
  montMulInto(a, b, t);
  t.resize(n_.size());
  return t;
}

namespace {

// CIOS: interleaves the schoolbook multiply with the Montgomery reduction
// one word at a time, writing a * b * R^{-1} mod n into t's low k limbs (t
// holds k + 2). K fixes the limb count at compile time so the word loops
// unroll; K = 0 takes it from `words` instead. Invariant (Koç et al.): t
// stays below 2n shifted, so t[k+1] is at most 1 and a single conditional
// subtraction finishes.
template <std::size_t K>
void cios(const std::uint64_t* a, const std::uint64_t* b,
          const std::uint64_t* n, std::uint64_t nInv, std::size_t words,
          std::uint64_t* t) {
  const std::size_t k = K != 0 ? K : words;
  std::fill(t, t + k + 2, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t ai = a[i];
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const u128 cur = static_cast<u128>(ai) * b[j] + t[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    const u128 top = static_cast<u128>(t[k]) + carry;
    t[k] = static_cast<std::uint64_t>(top);
    t[k + 1] = static_cast<std::uint64_t>(top >> 64);

    const std::uint64_t m = t[0] * nInv;
    // t[0] + m*n[0] is 0 mod 2^64 by choice of m; keep only its carry.
    carry =
        static_cast<std::uint64_t>((static_cast<u128>(m) * n[0] + t[0]) >> 64);
    for (std::size_t j = 1; j < k; ++j) {
      const u128 cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    const u128 tail = static_cast<u128>(t[k]) + carry;
    t[k - 1] = static_cast<std::uint64_t>(tail);
    t[k] = t[k + 1] + static_cast<std::uint64_t>(tail >> 64);
  }

  // Result is t[0..k] in [0, 2n); subtract n once if needed so the
  // representation stays canonical (< n).
  bool subtract = t[k] != 0;
  if (!subtract) {
    subtract = true;  // t == n also subtracts, down to zero
    for (std::size_t j = k; j-- > 0;) {
      if (t[j] != n[j]) {
        subtract = t[j] > n[j];
        break;
      }
    }
  }
  if (subtract) {
    std::uint64_t borrow = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const std::uint64_t d1 = t[j] - n[j];
      const std::uint64_t b1 = t[j] < n[j];
      const std::uint64_t d2 = d1 - borrow;
      const std::uint64_t b2 = d1 < borrow;
      t[j] = d2;
      borrow = b1 | b2;
    }
  }
}

}  // namespace

void MontgomeryContext::montMulInto(LimbSpan a, LimbSpan b,
                                    std::span<std::uint64_t> t) const {
  if (n_.size() == 4) {
    cios<4>(a.data(), b.data(), n_.data(), nInv_, 4, t.data());
  } else {
    cios<0>(a.data(), b.data(), n_.data(), nInv_, n_.size(), t.data());
  }
}

MontgomeryContext::Limbs MontgomeryContext::toMont(const BigUint& x) const {
  if (x >= modulus_) return toMont(x % modulus_);
  // A reduced value has at most words() limbs; zero-pad it to exactly that.
  Limbs padded(n_.size(), 0);
  std::copy(x.limbs().begin(), x.limbs().end(), padded.begin());
  return montMul(padded, rr_);
}

BigUint MontgomeryContext::fromMont(const Limbs& x) const {
  Limbs unit(n_.size(), 0);
  unit[0] = 1;
  return BigUint(montMul(x, unit));  // trims the padding
}

MontgomeryContext::Limbs MontgomeryContext::powMont(
    const Limbs& baseMont, const BigUint& exponent) const {
  const std::size_t bits = exponent.bitLength();
  if (bits == 0) return one_;
  const std::size_t k = n_.size();

  // Sliding-window recoding: only odd powers base^1, base^3, .. base^(2^w - 1)
  // are tabulated (half the table of a fixed window), and runs of zero bits
  // cost squarings only. Width by exponent size: ~bits/(w+1) multiplies after
  // the 2^(w-1)-entry table build.
  const std::size_t w = bits <= 128 ? 4 : (bits <= 768 ? 5 : 6);
  const std::size_t tableSize = std::size_t{1} << (w - 1);
  // Entry e is Mont(base^(2e + 1)) and occupies limbs [e * k, (e + 1) * k).
  Limbs table(tableSize * k);
  const auto entry = [&](std::size_t e) {
    return LimbSpan(table.data() + e * k, k);
  };
  // Two montMulInto buffers, swapped after each multiply, so neither the
  // table build nor the main loop allocates; the running value is acc's low
  // k limbs.
  Limbs acc(k + 2);
  Limbs next(k + 2);
  std::copy(baseMont.begin(), baseMont.end(), table.begin());
  if (tableSize > 1) {
    montMulInto(baseMont, baseMont, next);  // base^2
    const LimbSpan baseSq(next.data(), k);
    for (std::size_t e = 1; e < tableSize; ++e) {
      montMulInto(entry(e - 1), baseSq, acc);
      std::copy_n(acc.data(), k, table.data() + e * k);
    }
  }
  const auto accLimbs = [&] { return LimbSpan(acc.data(), k); };
  // acc <- acc * factor; factor may be accLimbs() itself, a squaring.
  const auto mulBy = [&](LimbSpan factor) {
    montMulInto(accLimbs(), factor, next);
    acc.swap(next);
  };

  bool started = false;
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(bits) - 1;
  while (i >= 0) {
    if (!exponent.bit(static_cast<std::size_t>(i))) {
      // started is always true here: the top bit of the exponent is set.
      mulBy(accLimbs());
      --i;
      continue;
    }
    // Greedy window [i..l] with both end bits set, at most w bits wide; the
    // window value is therefore odd and indexes the table directly.
    std::ptrdiff_t l =
        i >= static_cast<std::ptrdiff_t>(w) - 1 ? i - static_cast<std::ptrdiff_t>(w) + 1 : 0;
    while (!exponent.bit(static_cast<std::size_t>(l))) ++l;
    std::uint32_t window = 0;
    for (std::ptrdiff_t j = i; j >= l; --j) {
      window = (window << 1) |
               static_cast<std::uint32_t>(exponent.bit(static_cast<std::size_t>(j)));
    }
    if (started) {
      for (std::ptrdiff_t j = l; j <= i; ++j) mulBy(accLimbs());
      mulBy(entry((window - 1) >> 1));
    } else {
      const LimbSpan first = entry((window - 1) >> 1);
      std::copy(first.begin(), first.end(), acc.begin());
      started = true;
    }
    i = l - 1;
  }
  acc.resize(k);
  return acc;
}

BigUint MontgomeryContext::powMod(const BigUint& base,
                                  const BigUint& exponent) const {
  return fromMont(powMont(toMont(base), exponent));
}

BigUint MontgomeryContext::mulMod(const BigUint& a, const BigUint& b) const {
  return fromMont(montMul(toMont(a), toMont(b)));
}

FixedBasePowerTable::FixedBasePowerTable(const BigUint& base,
                                         const BigUint& modulus,
                                         std::size_t maxExponentBits)
    : ctx_(modulus),
      base_(base % modulus),
      windows_((std::max<std::size_t>(maxExponentBits, 1) + 3) / 4) {
  table_.reserve(windows_ * 15 * ctx_.words());
  MontgomeryContext::Limbs cur = ctx_.toMont(base_);
  for (std::size_t i = 0; i < windows_; ++i) {
    MontgomeryContext::Limbs power = cur;
    for (std::size_t j = 1; j <= 15; ++j) {
      table_.insert(table_.end(), power.begin(), power.end());
      power = ctx_.montMul(power, cur);
    }
    cur = std::move(power);  // cur^16: the next window's unit step
  }
}

BigUint FixedBasePowerTable::pow(const BigUint& exponent) const {
  const std::size_t bits = exponent.bitLength();
  if (bits > windows_ * 4) return ctx_.powMod(base_, exponent);
  const std::size_t k = ctx_.words();
  // Two montMulInto buffers, swapped after each multiply, so the loop does
  // not allocate; the running product is acc's low k limbs.
  MontgomeryContext::Limbs acc(k + 2);
  MontgomeryContext::Limbs next(k + 2);
  std::copy(ctx_.one().begin(), ctx_.one().end(), acc.begin());
  const BigUint::Limbs& e = exponent.limbs();
  const std::size_t windows = (bits + 3) / 4;
  for (std::size_t w = 0; w < windows; ++w) {
    // Sixteen 4-bit digits per 64-bit limb.
    const std::size_t digit = (e[w / 16] >> (4 * (w % 16))) & 0xf;
    if (digit == 0) continue;
    const std::size_t entry = w * 15 + digit - 1;
    ctx_.montMulInto(MontgomeryContext::LimbSpan(acc.data(), k),
                     MontgomeryContext::LimbSpan(table_.data() + entry * k, k),
                     next);
    acc.swap(next);
  }
  acc.resize(k);
  return ctx_.fromMont(acc);
}

}  // namespace dosn::bignum

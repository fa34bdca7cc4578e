#include "dosn/bignum/montgomery.hpp"

#include <algorithm>
#include <array>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include "dosn/util/error.hpp"

namespace dosn::bignum {

namespace {

using u128 = unsigned __int128;

// The working limbs of one operation: on the stack while `count` fits in N,
// on the heap beyond. N is sized so every modulus of up to 4 limbs fits.
template <std::size_t N>
class ScratchLimbs {
 public:
  explicit ScratchLimbs(std::size_t count) {
    if (count > N) {
      heap_.resize(count);
      data_ = heap_.data();
    }
  }
  ScratchLimbs(const ScratchLimbs&) = delete;
  ScratchLimbs& operator=(const ScratchLimbs&) = delete;

  std::uint64_t* data() { return data_; }

 private:
  std::array<std::uint64_t, N> stack_{};
  std::vector<std::uint64_t> heap_;
  std::uint64_t* data_ = stack_.data();
};

// A montMulInto output: words() + 2 limbs.
using ProductLimbs = ScratchLimbs<6>;

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

#if defined(__x86_64__)

// One CIOS word of the ADX kernel, as assembler text. The accumulator is six
// registers T0..T5 holding t[0..4] and a free register (zero on entry);
// rdx carries the multiplier and rax is zero. Each half adds a word product
// row with two interleaved carry chains: ADOX adds the low halves into t
// (carry in OF), ADCX adds the high halves one word up (carry in CF), and
// both chains end in T5. The reduction zeroes T0, so the next word runs on
// (T1, .., T5, T0): the shift of the portable CIOS is a register renaming.
#define DOSN_MONT_ROW(SRC, T0, T1, T2, T3, T4, T5)  \
  "xorl %%eax, %%eax\n\t"                           \
  "mulxq 0(%[" SRC "]), %[lo], %[hi]\n\t"           \
  "adoxq %[lo], %[t" T0 "]\n\t"                     \
  "adcxq %[hi], %[t" T1 "]\n\t"                     \
  "mulxq 8(%[" SRC "]), %[lo], %[hi]\n\t"           \
  "adoxq %[lo], %[t" T1 "]\n\t"                     \
  "adcxq %[hi], %[t" T2 "]\n\t"                     \
  "mulxq 16(%[" SRC "]), %[lo], %[hi]\n\t"          \
  "adoxq %[lo], %[t" T2 "]\n\t"                     \
  "adcxq %[hi], %[t" T3 "]\n\t"                     \
  "mulxq 24(%[" SRC "]), %[lo], %[hi]\n\t"          \
  "adoxq %[lo], %[t" T3 "]\n\t"                     \
  "adcxq %[hi], %[t" T4 "]\n\t"                     \
  "adoxq %%rax, %[t" T4 "]\n\t"                     \
  "adcxq %%rax, %[t" T5 "]\n\t"                     \
  "adoxq %%rax, %[t" T5 "]\n\t"

// t += a[i] * b, then t += m * n with m = t[0] * nInv, which zeroes T0.
#define DOSN_MONT_WORD(AOFF, T0, T1, T2, T3, T4, T5) \
  "movq " AOFF "(%[a]), %%rdx\n\t"                   \
  DOSN_MONT_ROW("b", T0, T1, T2, T3, T4, T5)         \
  "movq %[t" T0 "], %%rdx\n\t"                       \
  "imulq %[nInv], %%rdx\n\t"                         \
  DOSN_MONT_ROW("n", T0, T1, T2, T3, T4, T5)

// The CIOS of cios<4> with the accumulator in registers. Only this function
// uses MULX, ADCX and ADOX; it runs only after CPUID reported BMI2 and ADX.
void montMul4AdxKernel(const std::uint64_t* a, const std::uint64_t* b,
                       const std::uint64_t* n, std::uint64_t nInv,
                       std::uint64_t* t) {
  std::uint64_t t0, t1, t2, t3, t4, t5, lo, hi;
  __asm__(
      "xorl %k[t0], %k[t0]\n\t"
      "xorl %k[t1], %k[t1]\n\t"
      "xorl %k[t2], %k[t2]\n\t"
      "xorl %k[t3], %k[t3]\n\t"
      "xorl %k[t4], %k[t4]\n\t"
      "xorl %k[t5], %k[t5]\n\t"
      DOSN_MONT_WORD("0", "0", "1", "2", "3", "4", "5")
      DOSN_MONT_WORD("8", "1", "2", "3", "4", "5", "0")
      DOSN_MONT_WORD("16", "2", "3", "4", "5", "0", "1")
      DOSN_MONT_WORD("24", "3", "4", "5", "0", "1", "2")
      // The result (t4, t5, t0, t1) with top word t2 is below 2n. Subtract n
      // unless that borrows out of the top word.
      "movq %[t4], %%rax\n\t"
      "subq 0(%[n]), %%rax\n\t"
      "movq %[t5], %%rdx\n\t"
      "sbbq 8(%[n]), %%rdx\n\t"
      "movq %[t0], %[lo]\n\t"
      "sbbq 16(%[n]), %[lo]\n\t"
      "movq %[t1], %[hi]\n\t"
      "sbbq 24(%[n]), %[hi]\n\t"
      "sbbq $0, %[t2]\n\t"
      "cmovaeq %%rax, %[t4]\n\t"
      "cmovaeq %%rdx, %[t5]\n\t"
      "cmovaeq %[lo], %[t0]\n\t"
      "cmovaeq %[hi], %[t1]\n\t"
      : [t0] "=&r"(t0), [t1] "=&r"(t1), [t2] "=&r"(t2), [t3] "=&r"(t3),
        [t4] "=&r"(t4), [t5] "=&r"(t5), [lo] "=&r"(lo), [hi] "=&r"(hi)
      : [a] "r"(a), [b] "r"(b), [n] "r"(n), [nInv] "m"(nInv)
      : "rax", "rdx", "cc", "memory");
  t[0] = t4;
  t[1] = t5;
  t[2] = t0;
  t[3] = t1;
}

#undef DOSN_MONT_WORD
#undef DOSN_MONT_ROW

bool cpuHasBmi2Adx() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & bit_BMI2) != 0 && (ebx & bit_ADX) != 0;
}

#endif  // __x86_64__

// Chosen once, on first use; a function-local static, so exponentiating
// from another translation unit's static initializer is safe.
detail::MontMul4 activeMontMul4() {
  static const detail::MontMul4 kernel = [] {
    const detail::MontMul4 adx = detail::montMul4Adx();
    return adx != nullptr ? adx : &detail::montMul4Portable;
  }();
  return kernel;
}

}  // namespace

namespace detail {

void montMul4Portable(const std::uint64_t* a, const std::uint64_t* b,
                      const std::uint64_t* n, std::uint64_t nInv,
                      std::uint64_t* t) {
  cios<4>(a, b, n, nInv, 4, t);
}

MontMul4 montMul4Adx() {
#if defined(__x86_64__)
  if (cpuHasBmi2Adx()) return &montMul4AdxKernel;
#endif
  return nullptr;
}

}  // namespace detail

const char* montMulKernel() {
  return activeMontMul4() == &detail::montMul4Portable ? "portable" : "adx";
}

void MontgomeryContext::mulInto(const std::uint64_t* a, const std::uint64_t* b,
                                std::uint64_t* t) const {
  if (n_.size() == 4) {
    activeMontMul4()(a, b, n_.data(), nInv_, t);
  } else {
    cios<0>(a, b, n_.data(), nInv_, n_.size(), t);
  }
}

void MontgomeryContext::montMulInto(LimbSpan a, LimbSpan b,
                                    std::span<std::uint64_t> t) const {
  mulInto(a.data(), b.data(), t.data());
}

void MontgomeryContext::toMontInto(const BigUint& x, std::uint64_t* out) const {
  if (x >= modulus_) {
    toMontInto(x % modulus_, out);
    return;
  }
  // A reduced value has at most words() limbs; zero-pad it to exactly that.
  const std::size_t k = n_.size();
  ProductLimbs padded(k);
  std::fill_n(padded.data(), k, 0);
  std::copy(x.limbs().begin(), x.limbs().end(), padded.data());
  mulInto(padded.data(), rr_.data(), out);
}

MontgomeryContext::Limbs MontgomeryContext::toMont(const BigUint& x) const {
  const std::size_t k = n_.size();
  Limbs out(k + 2);
  toMontInto(x, out.data());
  out.resize(k);
  return out;
}

BigUint MontgomeryContext::fromMontLimbs(const std::uint64_t* x) const {
  const std::size_t k = n_.size();
  ProductLimbs unit(k);
  std::fill_n(unit.data(), k, 0);
  unit.data()[0] = 1;
  ProductLimbs t(k + 2);
  mulInto(x, unit.data(), t.data());
  return BigUint(Limbs(t.data(), t.data() + k));  // trims the padding
}

BigUint MontgomeryContext::fromMont(const Limbs& x) const {
  return fromMontLimbs(x.data());
}

MontgomeryContext::Limbs MontgomeryContext::powMont(
    const Limbs& baseMont, const BigUint& exponent) const {
  const std::size_t k = n_.size();
  Limbs out(k + 2);
  powInto(baseMont.data(), exponent, out.data());
  out.resize(k);
  return out;
}

void MontgomeryContext::powInto(const std::uint64_t* baseMont,
                                const BigUint& exponent,
                                std::uint64_t* out) const {
  const std::size_t k = n_.size();
  const std::size_t bits = exponent.bitLength();
  if (bits == 0) {
    std::copy(one_.begin(), one_.end(), out);
    return;
  }

  // Sliding-window recoding: only odd powers base^1, base^3, .. base^(2^w - 1)
  // are tabulated (half the table of a fixed window), and runs of zero bits
  // cost squarings only. Width by exponent size: ~bits/(w+1) multiplies after
  // the 2^(w-1)-entry table build.
  const std::size_t w = bits <= 128 ? 4 : (bits <= 768 ? 5 : 6);
  const std::size_t tableSize = std::size_t{1} << (w - 1);
  // Entry e is Mont(base^(2e + 1)) and occupies limbs [e * k, (e + 1) * k);
  // 32 entries of 4 limbs is the widest table a 4-limb modulus needs.
  ScratchLimbs<32 * 4> tableLimbs(tableSize * k);
  std::uint64_t* table = tableLimbs.data();
  const auto entry = [&](std::size_t e) { return table + e * k; };
  // Two montMulInto buffers, swapped after each multiply, so neither the
  // table build nor the main loop allocates; the running value is acc's low
  // k limbs.
  ProductLimbs accLimbs(k + 2);
  ProductLimbs nextLimbs(k + 2);
  std::uint64_t* acc = accLimbs.data();
  std::uint64_t* next = nextLimbs.data();
  std::copy_n(baseMont, k, table);
  if (tableSize > 1) {
    mulInto(baseMont, baseMont, next);  // base^2
    for (std::size_t e = 1; e < tableSize; ++e) {
      mulInto(entry(e - 1), next, acc);
      std::copy_n(acc, k, entry(e));
    }
  }
  // acc <- acc * factor; factor may be acc itself, a squaring.
  const auto mulBy = [&](const std::uint64_t* factor) {
    mulInto(acc, factor, next);
    std::swap(acc, next);
  };

  bool started = false;
  std::ptrdiff_t i = static_cast<std::ptrdiff_t>(bits) - 1;
  while (i >= 0) {
    if (!exponent.bit(static_cast<std::size_t>(i))) {
      // started is always true here: the top bit of the exponent is set.
      mulBy(acc);
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
      for (std::ptrdiff_t j = l; j <= i; ++j) mulBy(acc);
      mulBy(entry((window - 1) >> 1));
    } else {
      std::copy_n(entry((window - 1) >> 1), k, acc);
      started = true;
    }
    i = l - 1;
  }
  std::copy_n(acc, k, out);
}

BigUint MontgomeryContext::powMod(const BigUint& base,
                                  const BigUint& exponent) const {
  const std::size_t k = n_.size();
  ProductLimbs baseMont(k + 2);
  toMontInto(base, baseMont.data());
  ProductLimbs result(k + 2);
  powInto(baseMont.data(), exponent, result.data());
  return fromMontLimbs(result.data());
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
  ProductLimbs accLimbs(k + 2);
  ProductLimbs nextLimbs(k + 2);
  std::uint64_t* acc = accLimbs.data();
  std::uint64_t* next = nextLimbs.data();
  std::copy(ctx_.one().begin(), ctx_.one().end(), acc);
  const BigUint::Limbs& e = exponent.limbs();
  const std::size_t windows = (bits + 3) / 4;
  for (std::size_t w = 0; w < windows; ++w) {
    // Sixteen 4-bit digits per 64-bit limb.
    const std::size_t digit = (e[w / 16] >> (4 * (w % 16))) & 0xf;
    if (digit == 0) continue;
    const std::size_t entry = w * 15 + digit - 1;
    ctx_.mulInto(acc, table_.data() + entry * k, next);
    std::swap(acc, next);
  }
  return ctx_.fromMontLimbs(acc);
}

}  // namespace dosn::bignum

#include "dosn/bignum/montgomery.hpp"

#include <algorithm>
#include <array>
#include <cstdint>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
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
  if (ctx_.words() == 4) {
    laneCorrection_ = ((BigUint(1) << (4 * windows_)) % modulus).limbs();
    laneCorrection_.resize(4, 0);
  }
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

// ---- Fixed-base powers in AVX-512 IFMA lanes -----------------------------
//
// A lane holds one job's running product as five 52-bit digits, and zmm
// register i holds digit i of eight lanes. VPMADD52LUQ/HUQ add the low and
// high 52 bits of a 52x52-bit product into 64-bit accumulators, so a lane
// multiplies with a digit-serial almost-Montgomery multiplication (AMM) at
// R' = 2^260: inputs below 2n give an output below 2n, because 4n <= 2^258
// < R', and no conditional subtraction runs until the end.
//
// The tables keep pow's layout (64-bit limbs, Montgomery form at R = 2^256);
// each window gathers every lane's entry, or Mont(1) for a zero digit, and
// splits its limbs into digits. Starting from window 0's entry, W - 1 AMMs
// leave x * 2^(256W) * 2^(-260(W-1)) = x * 2^(260 - 4W) for the power x, so
// one AMM by 2^(4W) mod n gives x below 2n and one conditional subtraction
// gives the canonical value pow returns.

namespace {

#if defined(__x86_64__)

constexpr std::size_t kLaneGroup = 8;                   // lanes per zmm
constexpr std::size_t kLanesPerPass = 2 * kLaneGroup;   // two groups
constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << 52) - 1;

using Digits = std::array<std::uint64_t, 5>;

// 4 64-bit limbs -> 5 52-bit digits.
Digits digitsOf(const std::uint64_t* l) {
  return {l[0] & kDigitMask, ((l[0] >> 52) | (l[1] << 12)) & kDigitMask,
          ((l[1] >> 40) | (l[2] << 24)) & kDigitMask,
          ((l[2] >> 28) | (l[3] << 36)) & kDigitMask, l[3] >> 16};
}

// What one pass shares: the modulus, its digit inverse, Mont(1) (the entry
// of a zero digit, and the address every lane's gathers are relative to),
// the correction factor and the window count.
struct LaneParams {
  Digits n;
  std::uint64_t k0;  // -n^{-1} mod 2^52
  const std::uint64_t* one;
  Digits correction;
  std::size_t windows;
};

// One lane's job: its table's first entry and its exponent's limbs.
struct Lane {
  const std::uint64_t* table;
  const BigUint::Limbs* exponent;
};

// A lane's result digits (below 2n) -> the canonical value.
BigUint laneValue(const std::uint64_t* d, const std::uint64_t* n) {
  std::array<std::uint64_t, 5> v = {
      d[0] | (d[1] << 52), (d[1] >> 12) | (d[2] << 40),
      (d[2] >> 24) | (d[3] << 28), (d[3] >> 36) | (d[4] << 16), d[4] >> 48};
  bool subtract = v[4] != 0;
  if (!subtract) {
    subtract = true;  // v == n also subtracts, down to zero
    for (std::size_t j = 4; j-- > 0;) {
      if (v[j] != n[j]) {
        subtract = v[j] > n[j];
        break;
      }
    }
  }
  if (subtract) {
    std::uint64_t borrow = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      const u128 diff = static_cast<u128>(v[j]) - n[j] - borrow;
      v[j] = static_cast<std::uint64_t>(diff);
      borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
    }
  }
  return BigUint(BigUint::Limbs(v.begin(), v.begin() + 4));
}

// Only the functions below use AVX-512; they run only after CPUID and XGETBV
// reported AVX512F, AVX512IFMA and the OS saving ZMM state.
#define DOSN_IFMA __attribute__((target("avx512f,avx512ifma")))
#define DOSN_IFMA_INLINE DOSN_IFMA inline __attribute__((always_inline))

// Shifts through GCC's vector extensions: GCC 12's _mm512_srli_epi64 and
// _mm512_slli_epi64 pass an undefined vector that -Wuninitialized reports.
using U64x8 = std::uint64_t __attribute__((vector_size(64)));

DOSN_IFMA_INLINE __m512i shiftRight(__m512i v, int bits) {
  return reinterpret_cast<__m512i>(reinterpret_cast<U64x8>(v) >> bits);
}

DOSN_IFMA_INLINE __m512i shiftLeft(__m512i v, int bits) {
  return reinterpret_cast<__m512i>(reinterpret_cast<U64x8>(v) << bits);
}

// The limbs of eight lanes -> their digits.
DOSN_IFMA_INLINE void splitLimbs(const __m512i (&l)[4], __m512i (&d)[5]) {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kDigitMask));
  d[0] = _mm512_and_si512(l[0], mask);
  d[1] = _mm512_and_si512(
      _mm512_or_si512(shiftRight(l[0], 52), shiftLeft(l[1], 12)), mask);
  d[2] = _mm512_and_si512(
      _mm512_or_si512(shiftRight(l[1], 40), shiftLeft(l[2], 24)), mask);
  d[3] = _mm512_and_si512(
      _mm512_or_si512(shiftRight(l[2], 28), shiftLeft(l[3], 36)), mask);
  d[4] = shiftRight(l[3], 16);
}

// a <- AMM(a, b) in every lane of G groups, their rounds interleaved so the
// groups' dependency chains overlap. Digits of a and b are below 2^52 and
// their values below 2n; so are the result's. An accumulator gains at most
// four 52-bit terms per round over five rounds, so none overflows 64 bits.
template <std::size_t G>
DOSN_IFMA_INLINE void ammLanes(__m512i (&a)[G][5], const __m512i (&b)[G][5],
                               const __m512i (&n)[5], __m512i k0) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i t[G][6];
#pragma GCC unroll 2
  for (std::size_t g = 0; g < G; ++g) {
#pragma GCC unroll 6
    for (std::size_t j = 0; j < 6; ++j) t[g][j] = zero;
  }
#pragma GCC unroll 5
  for (std::size_t i = 0; i < 5; ++i) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      const __m512i ai = a[g][i];
      // t += a_i * b, then t += m * n with m = t_0 * k0 mod 2^52, which
      // makes t_0 a multiple of 2^52; its carry moves up with the shift.
      t[g][0] = _mm512_madd52lo_epu64(t[g][0], ai, b[g][0]);
      const __m512i m = _mm512_madd52lo_epu64(zero, t[g][0], k0);
#pragma GCC unroll 4
      for (std::size_t j = 1; j < 5; ++j) {
        t[g][j] = _mm512_madd52lo_epu64(t[g][j], ai, b[g][j]);
      }
#pragma GCC unroll 5
      for (std::size_t j = 0; j < 5; ++j) {
        t[g][j + 1] = _mm512_madd52hi_epu64(t[g][j + 1], ai, b[g][j]);
      }
#pragma GCC unroll 5
      for (std::size_t j = 0; j < 5; ++j) {
        t[g][j] = _mm512_madd52lo_epu64(t[g][j], m, n[j]);
      }
#pragma GCC unroll 5
      for (std::size_t j = 0; j < 5; ++j) {
        t[g][j + 1] = _mm512_madd52hi_epu64(t[g][j + 1], m, n[j]);
      }
      t[g][1] = _mm512_add_epi64(t[g][1], shiftRight(t[g][0], 52));
#pragma GCC unroll 5
      for (std::size_t j = 0; j < 5; ++j) t[g][j] = t[g][j + 1];
      t[g][5] = zero;
    }
  }
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kDigitMask));
#pragma GCC unroll 4
  for (std::size_t j = 0; j < 4; ++j) {
#pragma GCC unroll 2
    for (std::size_t g = 0; g < G; ++g) {
      t[g][j + 1] = _mm512_add_epi64(t[g][j + 1], shiftRight(t[g][j], 52));
      a[g][j] = _mm512_and_si512(t[g][j], mask);
    }
  }
#pragma GCC unroll 2
  for (std::size_t g = 0; g < G; ++g) a[g][4] = t[g][4];
}

// The lanes of one pass: up to 8 * G jobs; lanes past `count` repeat lane 0
// and are discarded.
template <std::size_t G>
struct LaneSet {
  static constexpr std::size_t kLanes = kLaneGroup * G;

  const LaneParams& params;
  const Lane* lanes;
  std::size_t count;

  const Lane& lane(std::size_t l) const { return lanes[l < count ? l : 0]; }
};

// Each lane's exponent, read one 4-bit digit per window, and the byte
// offset, from Mont(1), of its table's entry "window 0, digit 0": the entry
// of window w and digit d >= 1 sits 32 * (15w + d) further.
template <std::size_t G>
struct LaneCursor {
  __m512i base[G];
  __m512i exponent[G];  // the current exponent limb, shifted
};

template <std::size_t G>
DOSN_IFMA_INLINE void startCursor(const LaneSet<G>& set, LaneCursor<G>& cur) {
  alignas(64) std::int64_t base[LaneSet<G>::kLanes];
  for (std::size_t l = 0; l < LaneSet<G>::kLanes; ++l) {
    base[l] = static_cast<std::int64_t>(
        reinterpret_cast<std::uintptr_t>(set.lane(l).table) -
        reinterpret_cast<std::uintptr_t>(set.params.one) - 32);
  }
  for (std::size_t g = 0; g < G; ++g) {
    cur.base[g] = _mm512_load_si512(base + g * kLaneGroup);
    cur.exponent[g] = _mm512_setzero_si512();
  }
}

// Window w's entry of every lane, as digits. Windows are read in order.
template <std::size_t G>
DOSN_IFMA_INLINE void gatherWindow(const LaneSet<G>& set, LaneCursor<G>& cur,
                                   std::size_t w, __m512i (&entry)[G][5]) {
  if (w % 16 == 0) {  // sixteen 4-bit digits per 64-bit limb
    alignas(64) std::uint64_t limb[LaneSet<G>::kLanes];
    for (std::size_t l = 0; l < LaneSet<G>::kLanes; ++l) {
      const BigUint::Limbs& e = *set.lane(l).exponent;
      limb[l] = w / 16 < e.size() ? e[w / 16] : 0;
    }
    for (std::size_t g = 0; g < G; ++g) {
      cur.exponent[g] = _mm512_load_si512(limb + g * kLaneGroup);
    }
  }
  const __m512i window =
      _mm512_set1_epi64(static_cast<long long>(32 * 15 * w));
  const __m512i nibble = _mm512_set1_epi64(0xf);
#pragma GCC unroll 2
  for (std::size_t g = 0; g < G; ++g) {
    const __m512i digit = _mm512_and_si512(cur.exponent[g], nibble);
    cur.exponent[g] = shiftRight(cur.exponent[g], 4);
    // A zero digit gathers Mont(1), at offset 0.
    const __mmask8 nonzero = _mm512_test_epi64_mask(digit, digit);
    const __m512i offset =
        _mm512_maskz_add_epi64(nonzero, _mm512_add_epi64(cur.base[g], window),
                               shiftLeft(digit, 5));
    __m512i limbs[4];
#pragma GCC unroll 4
    for (std::size_t k = 0; k < 4; ++k) {
      limbs[k] = _mm512_mask_i64gather_epi64(_mm512_setzero_si512(), 0xff,
                                             offset, set.params.one + k, 1);
    }
    splitLimbs(limbs, entry[g]);
  }
}

// One pass: writes each lane's digits (below 2n) to out[lane]. The gathers
// of window w + 1 are issued before window w's multiply, so they do not
// wait behind it.
template <std::size_t G>
DOSN_IFMA void lanePass(const LaneParams& p, const Lane* lanes,
                        std::size_t count, Digits* out) {
  const LaneSet<G> set{p, lanes, count};
  __m512i n[5];
  __m512i correction[G][5];
  for (std::size_t j = 0; j < 5; ++j) {
    n[j] = _mm512_set1_epi64(static_cast<long long>(p.n[j]));
    for (std::size_t g = 0; g < G; ++g) {
      correction[g][j] =
          _mm512_set1_epi64(static_cast<long long>(p.correction[j]));
    }
  }
  const __m512i k0 = _mm512_set1_epi64(static_cast<long long>(p.k0));

  LaneCursor<G> cursor;
  startCursor(set, cursor);
  __m512i acc[G][5];
  gatherWindow(set, cursor, 0, acc);
  __m512i entry[2][G][5];
  if (p.windows > 1) gatherWindow(set, cursor, 1, entry[1]);
  for (std::size_t w = 1; w < p.windows; ++w) {
    if (w + 1 < p.windows) gatherWindow(set, cursor, w + 1, entry[(w + 1) & 1]);
    ammLanes<G>(acc, entry[w & 1], n, k0);
  }
  ammLanes<G>(acc, correction, n, k0);

  alignas(64) std::uint64_t digits[5][LaneSet<G>::kLanes];
  for (std::size_t g = 0; g < G; ++g) {
    for (std::size_t j = 0; j < 5; ++j) {
      _mm512_store_si512(digits[j] + g * kLaneGroup, acc[g][j]);
    }
  }
  for (std::size_t l = 0; l < count; ++l) {
    for (std::size_t j = 0; j < 5; ++j) out[l][j] = digits[j][l];
  }
}

#undef DOSN_IFMA_INLINE
#undef DOSN_IFMA

bool cpuHasIfma() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || (ecx & bit_OSXSAVE) == 0) {
    return false;
  }
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  if ((ebx & bit_AVX512F) == 0 || (ebx & bit_AVX512IFMA) == 0) return false;
  // XCR0 must show the OS saving SSE, AVX, opmask and both halves of the ZMM
  // state (bits 1, 2, 5, 6, 7).
  std::uint32_t xcr0 = 0, xcr0High = 0;
  __asm__ volatile("xgetbv" : "=a"(xcr0), "=d"(xcr0High) : "c"(0));
  constexpr std::uint32_t kZmmState = 0xe6;
  return (xcr0 & kZmmState) == kZmmState;
}

#endif  // __x86_64__

void checkBatch(std::span<const FixedBaseJob> jobs, std::span<BigUint> out) {
  if (out.size() != jobs.size()) {
    throw util::DosnError("powMany: one output per job");
  }
}

// Chosen once, on first use, as activeMontMul4 is.
detail::PowMany activePowMany() {
  static const detail::PowMany kernel = [] {
    const detail::PowMany ifma = detail::powManyIfma();
    return ifma != nullptr ? ifma : &detail::powManyPortable;
  }();
  return kernel;
}

}  // namespace

namespace detail {

void powManyPortable(std::span<const FixedBaseJob> jobs,
                     std::span<BigUint> out) {
  checkBatch(jobs, out);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out[i] = jobs[i].table->pow(*jobs[i].exponent);
  }
}

PowMany powManyIfma() {
#if defined(__x86_64__)
  if (cpuHasIfma()) return &FixedBasePowerTable::powManyLanes;
#endif
  return nullptr;
}

}  // namespace detail

const char* powManyKernel() {
  return activePowMany() == &detail::powManyPortable ? "portable" : "ifma";
}

void FixedBasePowerTable::powMany(std::span<const Job> jobs,
                                  std::span<BigUint> out) {
  activePowMany()(jobs, out);
}

void FixedBasePowerTable::powManyLanes(std::span<const Job> jobs,
                                       std::span<BigUint> out) {
  checkBatch(jobs, out);
#if defined(__x86_64__)
  // The lanes take two or more jobs over one 4-limb modulus and one window
  // count, each exponent within its table.
  const FixedBasePowerTable* first = jobs.empty() ? nullptr : jobs[0].table;
  bool fits = jobs.size() >= 2 && first->ctx_.words() == 4;
  for (std::size_t i = 0; fits && i < jobs.size(); ++i) {
    const FixedBasePowerTable& table = *jobs[i].table;
    fits = table.windows_ == first->windows_ &&
           table.ctx_.n_ == first->ctx_.n_ &&
           jobs[i].exponent->bitLength() <= 4 * table.windows_;
  }
  if (!fits) {
    detail::powManyPortable(jobs, out);
    return;
  }
  const MontgomeryContext& ctx = first->ctx_;
  const LaneParams params{digitsOf(ctx.n_.data()), ctx.nInv_ & kDigitMask,
                          ctx.one_.data(),
                          digitsOf(first->laneCorrection_.data()),
                          first->windows_};
  std::array<Lane, kLanesPerPass> lanes;
  std::array<Digits, kLanesPerPass> digits;
  for (std::size_t start = 0; start < jobs.size(); start += kLanesPerPass) {
    const std::size_t count = std::min(kLanesPerPass, jobs.size() - start);
    for (std::size_t l = 0; l < count; ++l) {
      const Job& job = jobs[start + l];
      lanes[l] = Lane{job.table->table_.data(), &job.exponent->limbs()};
    }
    if (count > kLaneGroup) {
      lanePass<2>(params, lanes.data(), count, digits.data());
    } else {
      lanePass<1>(params, lanes.data(), count, digits.data());
    }
    for (std::size_t l = 0; l < count; ++l) {
      out[start + l] = laneValue(digits[l].data(), ctx.n_.data());
    }
  }
#else
  detail::powManyPortable(jobs, out);  // unreachable: powManyIfma() is null
#endif
}

}  // namespace dosn::bignum

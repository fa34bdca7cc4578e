// Differential tests for the Montgomery/CIOS fast path (bignum/montgomery):
// powMod vs the retained powModSimple reference across widths and edge
// moduli, the MULX/ADX kernel vs the portable 4-limb CIOS, CRT-RSA vs the
// plain private-key path, fixed-base tables vs generic exponentiation,
// powMany's IFMA lanes vs the loop of pow, and KATs pinning the private-key
// wire format (including the pre-CRT legacy layout).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "dosn/bignum/modmath.hpp"
#include "dosn/bignum/montgomery.hpp"
#include "dosn/bignum/prime.hpp"
#include "dosn/pkcrypto/group.hpp"
#include "dosn/pkcrypto/rsa.hpp"
#include "dosn/util/bytes.hpp"
#include "dosn/util/error.hpp"
#include "dosn/util/rng.hpp"

namespace {

using dosn::bignum::BigUint;
using dosn::bignum::FixedBasePowerTable;
using dosn::bignum::MontgomeryContext;
using dosn::bignum::powMod;
using dosn::bignum::powModSimple;
using dosn::bignum::randomBits;
using dosn::util::Rng;

// Pinned serialization of rsaGenerate(128, Rng(20260805)) — regenerate only
// on a deliberate, versioned format change.
constexpr const char* kExpectedFullHex =
    "100000009aa2d13bc3c988637f4360909b1a8519030000000100011000000068f2fdec"
    "80f9c38d2cbc503d78690cf108000000b790d4da0465c53508000000d7a79ac9c795b0"
    "d508000000465c1d39f3b58e81080000000275439b672dfa9d08000000394aa3aa185b"
    "0e23";
constexpr const char* kExpectedLegacyHex =
    "100000009aa2d13bc3c988637f4360909b1a8519030000000100011000000068f2fdec"
    "80f9c38d2cbc503d78690cf1";

// Odd modulus with exactly `bits` bits, deterministic per (bits, rng state).
BigUint oddModulus(std::size_t bits, Rng& rng) {
  BigUint m = randomBits(bits, rng);
  if (m.isEven()) m += BigUint(1);
  return m;
}

TEST(Montgomery, RejectsEvenAndTrivialModuli) {
  EXPECT_THROW(MontgomeryContext(BigUint(0)), dosn::util::DosnError);
  EXPECT_THROW(MontgomeryContext(BigUint(1)), dosn::util::DosnError);
  EXPECT_THROW(MontgomeryContext(BigUint(10)), dosn::util::DosnError);
  EXPECT_NO_THROW(MontgomeryContext(BigUint(3)));
}

TEST(Montgomery, RoundTripThroughDomain) {
  Rng rng(7);
  const BigUint m = oddModulus(256, rng);
  const MontgomeryContext ctx(m);
  for (int i = 0; i < 20; ++i) {
    const BigUint x = randomBits(250, rng) % m;
    EXPECT_EQ(ctx.fromMont(ctx.toMont(x)), x);
  }
  EXPECT_EQ(ctx.fromMont(ctx.one()), BigUint(1));
}

TEST(Montgomery, MulModMatchesReference) {
  Rng rng(11);
  for (const std::size_t bits : {8u, 63u, 64u, 65u, 127u, 128u, 129u, 512u}) {
    const BigUint m = oddModulus(bits, rng);
    const MontgomeryContext ctx(m);
    for (int i = 0; i < 10; ++i) {
      const BigUint a = randomBits(bits + 10, rng);
      const BigUint b = randomBits(bits, rng);
      EXPECT_EQ(ctx.mulMod(a, b), dosn::bignum::mulMod(a, b, m))
          << "bits=" << bits;
    }
  }
}

// The heart of the differential suite: the dispatching powMod (Montgomery
// for odd m) must agree with the retained reference everywhere, including
// the 64/128-bit word boundaries where CIOS carry chains are most fragile.
TEST(Montgomery, PowModMatchesSimpleAcrossWidths) {
  Rng rng(13);
  for (const std::size_t bits :
       {8u, 32u, 63u, 64u, 65u, 127u, 128u, 129u, 255u, 384u, 512u}) {
    const BigUint m = oddModulus(bits, rng);
    for (int i = 0; i < 6; ++i) {
      const BigUint base = randomBits(bits + 16, rng);  // also base >= m
      const BigUint e = randomBits(1 + (i * 37) % 200, rng);
      EXPECT_EQ(powMod(base, e, m), powModSimple(base, e, m))
          << "bits=" << bits << " i=" << i;
    }
  }
}

TEST(Montgomery, PowModEdgeCases) {
  const BigUint m(3);
  EXPECT_EQ(powMod(BigUint(5), BigUint(7), m),
            powModSimple(BigUint(5), BigUint(7), m));
  // 2^255 - 19: the Shamir field prime used throughout policy/.
  const BigUint p25519 = (BigUint(1) << 255) - BigUint(19);
  Rng rng(17);
  const BigUint base = randomBits(260, rng);
  const BigUint e = randomBits(254, rng);
  EXPECT_EQ(powMod(base, e, p25519), powModSimple(base, e, p25519));
  // Exponent 0 and 1; zero base.
  EXPECT_EQ(powMod(base, BigUint(0), p25519), BigUint(1));
  EXPECT_EQ(powMod(base, BigUint(1), p25519), base % p25519);
  EXPECT_EQ(powMod(BigUint(0), e, p25519), BigUint(0));
}

TEST(Montgomery, EvenModulusStillDispatches) {
  Rng rng(19);
  BigUint m = randomBits(96, rng);
  if (m.isOdd()) m += BigUint(1);
  const BigUint base = randomBits(100, rng);
  const BigUint e = randomBits(40, rng);
  EXPECT_EQ(powMod(base, e, m), powModSimple(base, e, m));
}

// --- The CIOS kernel at 4 limbs and at run-time width ---
//
// montMulInto runs the 4-limb CIOS instantiation for 4-limb moduli (E19's
// 256-bit p and q) and the run-time-width one otherwise. Both are checked
// here against the division path, on operands chosen to reach the kernel's
// edges: 0, 1, n - 1, pairs that take the final subtraction, and (for a
// composite modulus) a pair whose product is exactly n before reduction.

// Whether CIOS ends with its conditional subtraction for Montgomery-domain
// operands a, b < n. Its per-word quotients make up M = -ab * n^{-1} mod R,
// so its unreduced result is (ab + Mn) / R, and it subtracts once that
// reaches n.
bool takesFinalSubtraction(const BigUint& a, const BigUint& b,
                           const BigUint& n, std::size_t words) {
  const BigUint r = BigUint(1) << (64 * words);
  const BigUint nInv = *dosn::bignum::invMod(n % r, r);
  const BigUint ab = a * b;
  const BigUint m = (ab % r) * (r - nInv) % r;
  return ((ab + m * n) >> (64 * words)) >= n;
}

// The Montgomery product a * b * R^{-1} mod n by the division path.
BigUint montProductByDivision(const BigUint& a, const BigUint& b,
                              const BigUint& n, std::size_t words) {
  const BigUint r = BigUint(1) << (64 * words);
  const BigUint rInv = *dosn::bignum::invMod(r % n, n);
  return dosn::bignum::mulMod(dosn::bignum::mulMod(a, b, n), rInv, n);
}

// Raw Montgomery-domain limbs of x < n, zero-padded to `words`.
MontgomeryContext::Limbs paddedLimbs(const BigUint& x, std::size_t words) {
  MontgomeryContext::Limbs limbs = x.limbs();
  limbs.resize(words, 0);
  return limbs;
}

// Checks montMul, mulMod and powMod on modulus n against the division path.
// `extraPairs` are operand pairs the caller built for this modulus. Returns
// how many of the checked pairs took the final subtraction.
using OperandPairs = std::vector<std::pair<BigUint, BigUint>>;

std::size_t checkKernel(const BigUint& n, const OperandPairs& extraPairs,
                        Rng& rng) {
  const MontgomeryContext ctx(n);
  const std::size_t k = ctx.words();
  std::vector<BigUint> operands = {BigUint(0), BigUint(1), n - BigUint(1)};
  for (int i = 0; i < 3; ++i) operands.push_back(randomBits(64 * k, rng) % n);
  OperandPairs pairs = extraPairs;
  for (const BigUint& a : operands) {
    for (const BigUint& b : operands) pairs.emplace_back(a, b);
  }
  // Random pairs until some take the final subtraction, or give up: where
  // the top limb is small, almost no pair does.
  std::size_t subtracted = 0;
  for (const auto& [a, b] : pairs) {
    subtracted += takesFinalSubtraction(a, b, n, k) ? 1 : 0;
  }
  for (int tries = 0; tries < 400 && subtracted < 4; ++tries) {
    const BigUint a = randomBits(64 * k, rng) % n;
    const BigUint b = randomBits(64 * k, rng) % n;
    if (takesFinalSubtraction(a, b, n, k)) {
      pairs.emplace_back(a, b);
      ++subtracted;
    }
  }

  for (const auto& [a, b] : pairs) {
    EXPECT_EQ(BigUint(ctx.montMul(paddedLimbs(a, k), paddedLimbs(b, k))),
              montProductByDivision(a, b, n, k))
        << "n=" << n.toHex() << " a=" << a.toHex() << " b=" << b.toHex();
    EXPECT_EQ(ctx.mulMod(a, b), dosn::bignum::mulMod(a, b, n))
        << "n=" << n.toHex() << " a=" << a.toHex() << " b=" << b.toHex();
  }

  const BigUint q = dosn::pkcrypto::DlogGroup::cached(256).q();
  const std::vector<BigUint> exponents = {
      BigUint(0), BigUint(1), BigUint(2), q - BigUint(1),
      (BigUint(1) << 256) - BigUint(1), (BigUint(1) << (64 * k)) - BigUint(1),
      randomBits(64 * k, rng)};
  for (const BigUint& base : operands) {
    for (const BigUint& e : exponents) {
      EXPECT_EQ(ctx.powMod(base, e), powModSimple(base, e, n))
          << "n=" << n.toHex() << " base=" << base.toHex()
          << " e=" << e.toHex();
    }
  }
  return subtracted;
}

// An odd modulus n1 * n2 of `limbs` limbs whose top limb is below 2^8. The
// raw operands n1 and n2 multiply to exactly n, so CIOS's unreduced result
// is n itself and the final subtraction takes it to zero.
struct SplitModulus {
  BigUint n, n1, n2;
};

SplitModulus splitModulus(std::size_t limbs, Rng& rng) {
  const std::size_t bits = 64 * (limbs - 1) + 8;
  const BigUint n1 = oddModulus(bits / 2, rng);
  const BigUint n2 = oddModulus(bits - bits / 2, rng);
  return {n1 * n2, n1, n2};
}

TEST(MontgomeryKernel, FourLimbsMatchesDivisionOnGroupPAndQ) {
  const auto& group = dosn::pkcrypto::DlogGroup::cached(256);
  Rng rng(43);
  for (const BigUint& n : {group.p(), group.q()}) {
    ASSERT_EQ(MontgomeryContext(n).words(), 4u);
    EXPECT_GE(checkKernel(n, {}, rng), 4u) << "n=" << n.toHex();
  }
}

TEST(MontgomeryKernel, FourLimbsSmallTopLimbAndProductEqualToModulus) {
  Rng rng(47);
  const SplitModulus split = splitModulus(4, rng);
  ASSERT_EQ(MontgomeryContext(split.n).words(), 4u);
  ASSERT_LT(split.n.limbs()[3], 256u);
  ASSERT_TRUE(takesFinalSubtraction(split.n1, split.n2, split.n, 4));
  EXPECT_EQ(montProductByDivision(split.n1, split.n2, split.n, 4), BigUint(0));
  checkKernel(split.n, {{split.n1, split.n2}, {split.n2, split.n1}}, rng);
}

// The run-time-width instantiation: 1, 3 and 5 limbs, each with a full top
// limb (where the final subtraction is common) and with a small one.
TEST(MontgomeryKernel, RuntimeWidthMatchesDivision) {
  Rng rng(53);
  for (const std::size_t limbs : {1u, 3u, 5u}) {
    const BigUint full = oddModulus(64 * limbs, rng);
    ASSERT_EQ(MontgomeryContext(full).words(), limbs);
    EXPECT_GE(checkKernel(full, {}, rng), 4u) << "limbs=" << limbs;

    const SplitModulus split = splitModulus(limbs, rng);
    ASSERT_EQ(MontgomeryContext(split.n).words(), limbs);
    ASSERT_TRUE(takesFinalSubtraction(split.n1, split.n2, split.n, limbs));
    checkKernel(split.n, {{split.n1, split.n2}}, rng);
  }
}

// --- The MULX/ADX kernel against the portable CIOS ---
//
// On a CPU with BMI2 and ADX, montMulInto runs the ADX kernel at 4 limbs;
// everywhere else it runs cios<4>. The ADX arm is compared limb for limb with
// cios<4> (detail::montMul4Portable), and the context that dispatches to it
// with powModSimple, on the cached 256-bit p (top bit set) and on a 4-limb
// modulus with its top bit clear.

// -n0^{-1} mod 2^64, as MontgomeryContext computes it.
std::uint64_t negInverseWord(std::uint64_t n0) {
  std::uint64_t x = n0;
  for (int i = 0; i < 6; ++i) x *= 2 - n0 * x;
  return ~x + 1;
}

TEST(MontgomeryKernel, AdxMatchesPortableAndPowModSimple) {
  using dosn::bignum::detail::MontMul4;
  const MontMul4 adx = dosn::bignum::detail::montMul4Adx();
  std::cout << "[ kernels  ] portable ran; adx "
            << (adx != nullptr ? "ran" : "skipped (no BMI2/ADX)")
            << "; montMulInto dispatches to "
            << dosn::bignum::montMulKernel() << "\n";
  EXPECT_STREQ(dosn::bignum::montMulKernel(),
               adx != nullptr ? "adx" : "portable");

  Rng rng(59);
  BigUint topClear = oddModulus(255, rng);
  ASSERT_EQ(topClear.bitLength(), 255u);
  for (const BigUint& n :
       {dosn::pkcrypto::DlogGroup::cached(256).p(), topClear}) {
    const MontgomeryContext ctx(n);
    ASSERT_EQ(ctx.words(), 4u);
    const MontgomeryContext::Limbs nLimbs = paddedLimbs(n, 4);
    const std::uint64_t nInv = negInverseWord(nLimbs[0]);
    const BigUint rModN = (BigUint(1) << 256) % n;

    std::vector<BigUint> edges = {BigUint(0), BigUint(1), n - BigUint(1),
                                  rModN};
    OperandPairs pairs;
    for (const BigUint& a : edges) {
      for (const BigUint& b : edges) pairs.emplace_back(a, b);
    }
    // Edge pairs are checked against the division path as well.
    for (const auto& [a, b] : pairs) {
      std::vector<std::uint64_t> t(6);
      dosn::bignum::detail::montMul4Portable(paddedLimbs(a, 4).data(),
                                             paddedLimbs(b, 4).data(),
                                             nLimbs.data(), nInv, t.data());
      t.resize(4);
      EXPECT_EQ(BigUint(t), montProductByDivision(a, b, n, 4))
          << "n=" << n.toHex() << " a=" << a.toHex() << " b=" << b.toHex();
    }
    if (adx != nullptr) {
      for (int i = 0; i < 100000; ++i) {
        pairs.emplace_back(randomBits(256, rng) % n, randomBits(256, rng) % n);
      }
      std::size_t mismatches = 0;
      for (const auto& [a, b] : pairs) {
        const MontgomeryContext::Limbs al = paddedLimbs(a, 4);
        const MontgomeryContext::Limbs bl = paddedLimbs(b, 4);
        std::vector<std::uint64_t> portable(6);
        std::vector<std::uint64_t> fast(6);
        dosn::bignum::detail::montMul4Portable(al.data(), bl.data(),
                                               nLimbs.data(), nInv,
                                               portable.data());
        adx(al.data(), bl.data(), nLimbs.data(), nInv, fast.data());
        if (!std::equal(fast.begin(), fast.begin() + 4, portable.begin())) {
          ++mismatches;
          ADD_FAILURE() << "n=" << n.toHex() << " a=" << a.toHex()
                        << " b=" << b.toHex();
          if (mismatches > 5) break;
        }
      }
      EXPECT_EQ(mismatches, 0u);
    }

    // Through the dispatching context: exponentiation on the edges and on
    // random bases and exponents.
    std::vector<BigUint> exponents = {BigUint(0), BigUint(1), BigUint(2),
                                      n - BigUint(1),
                                      (BigUint(1) << 256) - BigUint(1)};
    for (int i = 0; i < 4; ++i) exponents.push_back(randomBits(256, rng));
    std::vector<BigUint> bases = edges;
    for (int i = 0; i < 4; ++i) bases.push_back(randomBits(256, rng) % n);
    for (const BigUint& base : bases) {
      for (const BigUint& e : exponents) {
        EXPECT_EQ(ctx.powMod(base, e), powModSimple(base, e, n))
            << "n=" << n.toHex() << " base=" << base.toHex()
            << " e=" << e.toHex();
      }
    }
  }
}

TEST(FixedBase, MatchesGenericPow) {
  Rng rng(23);
  const BigUint m = oddModulus(256, rng);
  const BigUint g = randomBits(200, rng) % m;
  const FixedBasePowerTable table(g, m, 256);
  EXPECT_EQ(table.maxExponentBits(), 256u);
  for (int i = 0; i < 20; ++i) {
    const BigUint e = randomBits(1 + (i * 13) % 256, rng);
    EXPECT_EQ(table.pow(e), powModSimple(g, e, m)) << "i=" << i;
  }
  EXPECT_EQ(table.pow(BigUint(0)), BigUint(1));
  EXPECT_EQ(table.pow(BigUint(1)), g % m);
}

TEST(FixedBase, WideExponentFallsBack) {
  Rng rng(29);
  const BigUint m = oddModulus(128, rng);
  const BigUint g = randomBits(100, rng) % m;
  const FixedBasePowerTable table(g, m, 64);
  const BigUint wide = randomBits(200, rng);  // wider than the table
  EXPECT_EQ(table.pow(wide), powModSimple(g, wide, m));
}

// A non-generator base, as ibbe::Directory tabulates: an identity key
// Y_id = g^{k_id} over a cached group's p, sized for scalar exponents (q's
// width), checked at the table's edges and past them.
TEST(FixedBase, IdentityKeyBaseMatchesSimple) {
  for (const std::size_t bits : {256u, 512u}) {
    const auto& group = dosn::pkcrypto::DlogGroup::cached(bits);
    const BigUint y =
        group.exp(group.hashToScalar(dosn::util::toBytes("id:alice")));
    const FixedBasePowerTable table(y, group.p(), group.q().bitLength());
    const std::size_t covered = table.maxExponentBits();  // 4 * windows
    ASSERT_EQ(covered, bits);
    Rng rng(41);
    std::vector<BigUint> exponents = {
        BigUint(0),
        BigUint(1),
        group.q() - BigUint(1),
        (BigUint(1) << covered) - BigUint(1),  // widest the table covers
        BigUint(1) << covered,                 // one bit wider: fallback
        randomBits(3 * bits, rng),             // far wider: fallback
    };
    for (int i = 0; i < 8; ++i) {
      exponents.push_back(randomBits(bits, rng) % group.q());
    }
    for (const BigUint& e : exponents) {
      EXPECT_EQ(table.pow(e), powModSimple(y, e, group.p()))
          << "bits=" << bits << " e=" << e.toHex();
    }
  }
}

TEST(FixedBase, CachedTableIsStableAndShared) {
  // The group's generator table serves exp(e); a copy shares it.
  const auto& group = dosn::pkcrypto::DlogGroup::cached(256);
  const dosn::pkcrypto::DlogGroup copy = group;
  Rng rng(31);
  for (int i = 0; i < 4; ++i) {
    const BigUint e = randomBits(250, rng) % group.q();
    const BigUint expected = powModSimple(group.g(), e, group.p());
    EXPECT_EQ(group.exp(e), expected) << "i=" << i;
    EXPECT_EQ(copy.exp(e), expected) << "i=" << i;
  }
}

// --- Fixed-base powers in lanes ---
//
// powMany against the loop of pow, limb for limb: through the loop itself
// (detail::powManyPortable), through the IFMA lanes where CPUID reports them
// (detail::powManyIfma), and through the process's dispatch. Batches of 1
// to 33 jobs cover one group, two groups and a second and third pass, over
// the generator's table, random identity-key tables and a prepared key's y
// table, with exponents shared by every job (as an IBBE wrap's k is) and
// per job, at the edges 0, 1, q - 1 and 2^(4W) - 1.
TEST(FixedBase, PowManyMatchesPow) {
  using dosn::bignum::FixedBaseJob;
  namespace detail = dosn::bignum::detail;
  const detail::PowMany ifma = detail::powManyIfma();
  std::cout << "[ powMany  ] portable ran; ifma "
            << (ifma != nullptr ? "ran" : "skipped (no AVX512F/IFMA)")
            << "; powMany dispatches to " << dosn::bignum::powManyKernel()
            << "\n";
  EXPECT_STREQ(dosn::bignum::powManyKernel(),
               ifma != nullptr ? "ifma" : "portable");
  std::vector<std::pair<const char*, detail::PowMany>> arms = {
      {"portable", &detail::powManyPortable},
      {"dispatch", &FixedBasePowerTable::powMany}};
  if (ifma != nullptr) arms.emplace_back("ifma", ifma);

  // A batch's results against pow, for every arm.
  const auto checkBatch = [&](const std::vector<FixedBaseJob>& jobs,
                              const std::string& what) {
    for (const auto& [name, arm] : arms) {
      std::vector<BigUint> out(jobs.size());
      arm(jobs, out);
      for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(out[i].limbs(),
                  jobs[i].table->pow(*jobs[i].exponent).limbs())
            << name << " " << what << " job " << i << " of " << jobs.size()
            << " e=" << jobs[i].exponent->toHex();
      }
    }
  };

  const auto& group = dosn::pkcrypto::DlogGroup::cached(256);
  Rng rng(47);
  std::vector<FixedBasePowerTable> owned;
  for (int i = 0; i < 20; ++i) {  // identity keys Y_id = g^k_id
    owned.emplace_back(group.exp(group.randomScalar(rng)), group.p(),
                       group.q().bitLength());
  }
  // A prepared key's table: y over q's width, as SchnorrVerifyingKey builds.
  owned.emplace_back(group.exp(group.randomScalar(rng)), group.p(),
                     group.q().bitLength());
  std::vector<const FixedBasePowerTable*> tables = {&group.generatorTable()};
  for (const FixedBasePowerTable& t : owned) tables.push_back(&t);
  const std::size_t covered = group.generatorTable().maxExponentBits();
  for (const FixedBasePowerTable* t : tables) {
    ASSERT_EQ(t->maxExponentBits(), covered);
  }

  std::vector<BigUint> exponents = {BigUint(0), BigUint(1),
                                    group.q() - BigUint(1),
                                    (BigUint(1) << covered) - BigUint(1)};
  for (int i = 0; i < 12; ++i) exponents.push_back(group.randomScalar(rng));
  for (int i = 0; i < 4; ++i) exponents.push_back(randomBits(covered, rng));

  for (std::size_t count = 1; count <= 33; ++count) {
    for (const bool shared : {true, false}) {
      std::vector<FixedBaseJob> jobs;
      for (std::size_t i = 0; i < count; ++i) {
        const FixedBasePowerTable* table =
            tables[(count * 5 + i * 3) % tables.size()];
        const BigUint* e = shared ? &exponents[count % exponents.size()]
                                  : &exponents[(count + i) % exponents.size()];
        jobs.push_back({table, e});
      }
      checkBatch(jobs, std::string(shared ? "shared" : "per-job") +
                           " count=" + std::to_string(count));
    }
  }

  // Batches the lanes do not fit run the loop: 512-bit tables, a table of
  // another window count, and an exponent wider than its table.
  const auto& wide = dosn::pkcrypto::DlogGroup::cached(512);
  const FixedBasePowerTable wideY(wide.exp(wide.randomScalar(rng)), wide.p(),
                                  wide.q().bitLength());
  const BigUint wideE = wide.randomScalar(rng);
  checkBatch({{&wide.generatorTable(), &wideE}, {&wideY, &wideE},
              {&wideY, &exponents[2]}},
             "512-bit");
  const FixedBasePowerTable narrow(group.g(), group.p(), 128);
  const BigUint narrowE = randomBits(128, rng);
  checkBatch({{&narrow, &narrowE}, {tables[1], &narrowE}}, "mixed windows");
  const BigUint tooWide = BigUint(1) << covered;
  checkBatch({{tables[2], &exponents[5]}, {tables[3], &tooWide}},
             "wide exponent");

  const std::vector<FixedBaseJob> two = {{tables[0], &exponents[0]},
                                         {tables[1], &exponents[1]}};
  std::vector<BigUint> oneSlot(1);
  for (const auto& [name, arm] : arms) {
    EXPECT_THROW(arm(two, oneSlot), dosn::util::DosnError) << name;
  }
}

TEST(CrtRsa, SignAndDecryptMatchPlainPath) {
  Rng rng(37);
  const auto key = dosn::pkcrypto::rsaGenerate(512, rng);
  ASSERT_TRUE(key.hasCrt());
  const auto plain = key.withoutCrt();
  ASSERT_FALSE(plain.hasCrt());
  for (int i = 0; i < 8; ++i) {
    const BigUint x = randomBits(500, rng) % key.pub.n;
    EXPECT_EQ(dosn::pkcrypto::rsaRawPrivate(key, x),
              dosn::pkcrypto::rsaRawPrivate(plain, x))
        << "i=" << i;
  }
  // End-to-end: CRT-signed verifies, and equals the plain-path signature.
  const auto msg = dosn::util::toBytes("crt differential message");
  const auto sig = dosn::pkcrypto::rsaSign(key, msg);
  EXPECT_EQ(sig, dosn::pkcrypto::rsaSign(plain, msg));
  EXPECT_TRUE(dosn::pkcrypto::rsaVerify(key.pub, msg, sig));
  // And decryption agrees with the plain path.
  const auto ct = dosn::pkcrypto::rsaEncrypt(key.pub,
                                             dosn::util::toBytes("hi"), rng);
  const auto viaCrt = dosn::pkcrypto::rsaDecrypt(key, ct);
  const auto viaPlain = dosn::pkcrypto::rsaDecrypt(plain, ct);
  ASSERT_TRUE(viaCrt.has_value());
  ASSERT_TRUE(viaPlain.has_value());
  EXPECT_EQ(*viaCrt, *viaPlain);
}

TEST(CrtRsa, CrtParamsSatisfyDefinitions) {
  Rng rng(41);
  const auto key = dosn::pkcrypto::rsaGenerate(256, rng);
  EXPECT_EQ(key.p * key.q, key.pub.n);
  EXPECT_EQ(key.dP, key.d % (key.p - BigUint(1)));
  EXPECT_EQ(key.dQ, key.d % (key.q - BigUint(1)));
  EXPECT_EQ(dosn::bignum::mulMod(key.qInv, key.q, key.p), BigUint(1));
}

TEST(CrtRsa, SerializationRoundTripsWithAndWithoutCrt) {
  Rng rng(43);
  const auto key = dosn::pkcrypto::rsaGenerate(256, rng);

  const auto full = dosn::pkcrypto::RsaPrivateKey::deserialize(key.serialize());
  EXPECT_TRUE(full.hasCrt());
  EXPECT_EQ(full.pub.n, key.pub.n);
  EXPECT_EQ(full.d, key.d);
  EXPECT_EQ(full.p, key.p);
  EXPECT_EQ(full.qInv, key.qInv);

  // A key serialized without the CRT tail (the pre-CRT wire format) must
  // deserialize as a working plain-path key.
  const auto legacy =
      dosn::pkcrypto::RsaPrivateKey::deserialize(key.withoutCrt().serialize());
  EXPECT_FALSE(legacy.hasCrt());
  const BigUint x = randomBits(200, rng) % key.pub.n;
  EXPECT_EQ(dosn::pkcrypto::rsaRawPrivate(legacy, x),
            dosn::pkcrypto::rsaRawPrivate(key, x));
}

// KAT: the serialized private-key bytes for a fixed seed are pinned, so a
// format change (field order, optional-tail handling) cannot slip through
// unnoticed and orphan stored keys.
TEST(CrtRsa, SerializedKeyFormatKat) {
  Rng rng(20260805);
  const auto key = dosn::pkcrypto::rsaGenerate(128, rng);
  const std::string fullHex = dosn::util::toHex(key.serialize());
  const std::string legacyHex = dosn::util::toHex(key.withoutCrt().serialize());
  EXPECT_EQ(fullHex, kExpectedFullHex);
  EXPECT_EQ(legacyHex, kExpectedLegacyHex);
  // The legacy serialization is a strict prefix of the full one: the CRT
  // tail is purely additive, which is the whole back-compat argument.
  ASSERT_LE(legacyHex.size(), fullHex.size());
  EXPECT_EQ(fullHex.substr(0, legacyHex.size()), legacyHex);
}

}  // namespace

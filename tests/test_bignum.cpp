// Unit + property tests for dosn/bignum: arithmetic identities, Knuth
// division, modular math, primality.
#include <gtest/gtest.h>

#include "dosn/bignum/biguint.hpp"
#include "dosn/bignum/modmath.hpp"
#include "dosn/bignum/prime.hpp"
#include "dosn/util/error.hpp"

namespace dosn::bignum {
namespace {

TEST(BigUint, ConstructionAndU64) {
  EXPECT_TRUE(BigUint{}.isZero());
  EXPECT_TRUE(BigUint(0).isZero());
  EXPECT_EQ(BigUint(1).toUint64(), 1u);
  EXPECT_EQ(BigUint(0xffffffffffffffffull).toUint64(), 0xffffffffffffffffull);
}

TEST(BigUint, HexRoundTrip) {
  const auto v = BigUint::fromHex("deadbeef00112233445566778899aabb");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->toHex(), "deadbeef00112233445566778899aabb");
  EXPECT_EQ(BigUint(0).toHex(), "0");
  EXPECT_FALSE(BigUint::fromHex("xyz").has_value());
  EXPECT_FALSE(BigUint::fromHex("").has_value());
}

TEST(BigUint, DecimalRoundTrip) {
  const auto v = BigUint::fromDecimal("123456789012345678901234567890");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->toDecimal(), "123456789012345678901234567890");
  EXPECT_EQ(BigUint(0).toDecimal(), "0");
  EXPECT_FALSE(BigUint::fromDecimal("12a").has_value());
}

TEST(BigUint, BytesRoundTrip) {
  util::Rng rng(3);
  for (std::size_t len : {1u, 7u, 16u, 33u}) {
    util::Bytes data = rng.bytes(len);
    data[0] |= 1;  // avoid leading zero ambiguity
    const BigUint v = BigUint::fromBytes(data);
    EXPECT_EQ(v.toBytes(), data);
  }
  EXPECT_EQ(BigUint(0x1234).toBytesPadded(4), (util::Bytes{0, 0, 0x12, 0x34}));
  EXPECT_THROW(BigUint(0x123456).toBytesPadded(2), util::DosnError);
}

// The shift-and-add import fromBytes used to run (quadratic: one allocating
// shift and add per byte), kept as the oracle for the limb-filling one.
BigUint fromBytesShiftAdd(util::BytesView data) {
  BigUint out;
  for (std::uint8_t b : data) out = (out << 8) + BigUint(b);
  return out;
}

TEST(BigUint, FromBytesMatchesShiftAddOracle) {
  util::Rng rng(11);
  const auto expectSame = [](const util::Bytes& data) {
    const BigUint fast = BigUint::fromBytes(data);
    const BigUint oracle = fromBytesShiftAdd(data);
    // == also compares limb counts, so an untrimmed zero limb fails here.
    EXPECT_TRUE(fast == oracle)
        << data.size() << " bytes: " << fast.toHex() << " vs " << oracle.toHex();
    EXPECT_EQ(fast.bitLength(), oracle.bitLength());
  };
  for (std::size_t len = 0; len <= 80; ++len) {
    const util::Bytes data = rng.bytes(len);
    expectSame(data);
    for (std::size_t zeros : {1u, 3u, 4u, 5u, 9u}) {
      util::Bytes padded(zeros, 0);
      padded.insert(padded.end(), data.begin(), data.end());
      expectSame(padded);
    }
    expectSame(util::Bytes(len, 0));
    EXPECT_TRUE(BigUint::fromBytes(util::Bytes(len, 0)).isZero());
  }
}

TEST(BigUint, Comparison) {
  EXPECT_LT(BigUint(1), BigUint(2));
  EXPECT_GT(BigUint(1) << 64, BigUint(0xffffffffffffffffull));
  EXPECT_EQ(BigUint(5), BigUint(5));
}

TEST(BigUint, AddSub) {
  const BigUint a = *BigUint::fromHex("ffffffffffffffffffffffffffffffff");
  const BigUint one(1);
  const BigUint sum = a + one;
  EXPECT_EQ(sum.toHex(), "100000000000000000000000000000000");
  EXPECT_EQ(sum - one, a);
  EXPECT_THROW(one - sum, util::DosnError);
}

TEST(BigUint, MulKnownValue) {
  const BigUint a = *BigUint::fromDecimal("12345678901234567890");
  const BigUint b = *BigUint::fromDecimal("98765432109876543210");
  EXPECT_EQ((a * b).toDecimal(), "1219326311370217952237463801111263526900");
}

TEST(BigUint, Shifts) {
  const BigUint v(0x1234);
  EXPECT_EQ((v << 4).toUint64(), 0x12340u);
  EXPECT_EQ((v >> 4).toUint64(), 0x123u);
  EXPECT_EQ((v << 100) >> 100, v);
  EXPECT_TRUE((v >> 64).isZero());
}

TEST(BigUint, BitAccess) {
  const BigUint v(0b1010);
  EXPECT_FALSE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(100));
  EXPECT_EQ(v.bitLength(), 4u);
  EXPECT_EQ(BigUint(0).bitLength(), 0u);
  EXPECT_EQ((BigUint(1) << 255).bitLength(), 256u);
}

TEST(BigUint, DivModSmall) {
  const auto [q, r] = BigUint(100).divmod(BigUint(7));
  EXPECT_EQ(q.toUint64(), 14u);
  EXPECT_EQ(r.toUint64(), 2u);
  EXPECT_THROW(BigUint(1).divmod(BigUint(0)), util::DosnError);
}

TEST(BigUint, DivModDividendSmaller) {
  const auto [q, r] = BigUint(5).divmod(BigUint(100));
  EXPECT_TRUE(q.isZero());
  EXPECT_EQ(r.toUint64(), 5u);
}

// Property: for random a, b: a == (a/b)*b + (a%b) and a%b < b.
class DivModProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DivModProperty, Identity) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const std::size_t aBits = 8 + rng.uniform(512);
    const std::size_t bBits = 8 + rng.uniform(256);
    const BigUint a = randomBits(aBits, rng);
    const BigUint b = randomBits(bBits, rng);
    const auto [q, r] = a.divmod(b);
    EXPECT_EQ(q * b + r, a);
    EXPECT_LT(r, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DivModProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(BigUint, DivisionStressKnuthAddBack) {
  // Divisors engineered to trigger the rare q-hat correction path: top limbs
  // of the form 0x80000000... with dividends just below a multiple.
  const BigUint b = (BigUint(1) << 96) - BigUint(1);
  const BigUint a = (b * BigUint(0x7fffffff)) + (b - BigUint(1));
  const auto [q, r] = a.divmod(b);
  EXPECT_EQ(q * b + r, a);
  EXPECT_LT(r, b);
}

// --- modmath ---

TEST(ModMath, AddSubMulMod) {
  const BigUint m(97);
  EXPECT_EQ(addMod(BigUint(90), BigUint(10), m).toUint64(), 3u);
  EXPECT_EQ(subMod(BigUint(5), BigUint(10), m).toUint64(), 92u);
  EXPECT_EQ(mulMod(BigUint(96), BigUint(96), m).toUint64(), 1u);
}

TEST(ModMath, PowModKnownValues) {
  EXPECT_EQ(powMod(BigUint(2), BigUint(10), BigUint(1000)).toUint64(), 24u);
  EXPECT_EQ(powMod(BigUint(5), BigUint(0), BigUint(7)).toUint64(), 1u);
  EXPECT_EQ(powMod(BigUint(5), BigUint(117), BigUint(1)).toUint64(), 0u);
}

TEST(ModMath, PowModFermat) {
  // a^(p-1) = 1 mod p for prime p and a not divisible by p.
  const BigUint p(1000003);
  for (std::uint64_t a : {2ull, 3ull, 999999ull}) {
    EXPECT_EQ(powMod(BigUint(a), p - BigUint(1), p), BigUint(1)) << a;
  }
}

TEST(ModMath, PowModMatchesNaive) {
  util::Rng rng(9);
  const BigUint m(1000003);
  for (int i = 0; i < 20; ++i) {
    const std::uint64_t base = rng.uniform(1000000) + 1;
    const std::uint64_t exp = rng.uniform(50);
    std::uint64_t expected = 1;
    for (std::uint64_t e = 0; e < exp; ++e) expected = expected * base % 1000003;
    EXPECT_EQ(powMod(BigUint(base), BigUint(exp), m).toUint64(), expected);
  }
}

TEST(ModMath, Gcd) {
  EXPECT_EQ(gcd(BigUint(48), BigUint(36)).toUint64(), 12u);
  EXPECT_EQ(gcd(BigUint(17), BigUint(13)).toUint64(), 1u);
  EXPECT_EQ(gcd(BigUint(0), BigUint(5)).toUint64(), 5u);
}

TEST(ModMath, InvMod) {
  const auto inv = invMod(BigUint(3), BigUint(11));
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(inv->toUint64(), 4u);
  EXPECT_FALSE(invMod(BigUint(6), BigUint(9)).has_value());  // gcd != 1
}

TEST(ModMath, InvModProperty) {
  util::Rng rng(11);
  const BigUint p = *BigUint::fromDecimal("1000003");
  for (int i = 0; i < 50; ++i) {
    const BigUint a(rng.uniform(1000002) + 1);
    const auto inv = invMod(a, p);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(mulMod(a, *inv, p), BigUint(1));
  }
}

TEST(ModMath, InvModLarge) {
  util::Rng rng(13);
  const BigUint p = randomPrime(128, rng);
  for (int i = 0; i < 10; ++i) {
    const BigUint a = randomUnit(p, rng);
    const auto inv = invMod(a, p);
    ASSERT_TRUE(inv.has_value());
    EXPECT_EQ(mulMod(a, *inv, p), BigUint(1));
  }
}

TEST(ModMath, JacobiKnownValues) {
  // (a/7) for a = 0..6: residues are {1, 2, 4}.
  const int expected7[] = {0, 1, 1, -1, 1, -1, -1};
  for (std::uint64_t a = 0; a < 7; ++a) {
    EXPECT_EQ(jacobi(BigUint(a), BigUint(7)), expected7[a]) << a;
  }
  // Composite modulus: (2/15) = (2/3)(2/5) = (-1)(-1) = 1 even though 2 is
  // a non-residue mod 15 — the Jacobi symbol is only a residue test for
  // prime moduli.
  EXPECT_EQ(jacobi(BigUint(2), BigUint(15)), 1);
  EXPECT_EQ(jacobi(BigUint(5), BigUint(15)), 0);  // shared factor
  EXPECT_EQ(jacobi(BigUint(1001), BigUint(9907)), -1);  // textbook example
  EXPECT_THROW(jacobi(BigUint(3), BigUint(10)), util::DosnError);  // even n
}

TEST(ModMath, JacobiMatchesEulerCriterion) {
  // For prime p, (a/p) == 1 iff a^((p-1)/2) == 1 — differential test of the
  // binary Jacobi against the powMod reference across several prime widths.
  util::Rng rng(23);
  for (std::size_t bits : {64u, 128u, 256u}) {
    const BigUint p = randomPrime(bits, rng);
    const BigUint halfOrder = (p - BigUint(1)) >> 1;
    for (int i = 0; i < 25; ++i) {
      const BigUint a = randomUnit(p, rng);
      const BigUint euler = powMod(a, halfOrder, p);
      const int viaEuler = euler == BigUint(1) ? 1 : -1;
      EXPECT_EQ(jacobi(a, p), viaEuler) << "bits=" << bits;
    }
    EXPECT_EQ(jacobi(p, p), 0);
    EXPECT_EQ(jacobi(BigUint(0), p), 0);
    EXPECT_EQ(jacobi(BigUint(1), p), 1);
  }
}

TEST(ModMath, JacobiIsMultiplicative) {
  util::Rng rng(29);
  const BigUint n = randomPrime(96, rng);
  for (int i = 0; i < 25; ++i) {
    const BigUint a = randomBelow(n, rng);
    const BigUint b = randomBelow(n, rng);
    EXPECT_EQ(jacobi(mulMod(a, b, n), n), jacobi(a, n) * jacobi(b, n));
  }
}

TEST(ModMath, RandomBelowInRange) {
  util::Rng rng(15);
  const BigUint bound(1000);
  for (int i = 0; i < 200; ++i) {
    EXPECT_LT(randomBelow(bound, rng), bound);
  }
}

TEST(ModMath, RandomBitsExactWidth) {
  util::Rng rng(17);
  for (std::size_t bits : {8u, 17u, 64u, 129u}) {
    EXPECT_EQ(randomBits(bits, rng).bitLength(), bits);
  }
}

// --- primality ---

TEST(Prime, KnownPrimes) {
  util::Rng rng(19);
  for (std::uint64_t p : {2ull, 3ull, 5ull, 101ull, 65537ull, 1000003ull,
                          2147483647ull}) {
    EXPECT_TRUE(isProbablePrime(BigUint(p), rng)) << p;
  }
}

TEST(Prime, KnownComposites) {
  util::Rng rng(21);
  for (std::uint64_t n : {1ull, 4ull, 100ull, 65539ull * 3, 561ull /*Carmichael*/,
                          1000001ull}) {
    EXPECT_FALSE(isProbablePrime(BigUint(n), rng)) << n;
  }
}

TEST(Prime, LargeCarmichaelRejected) {
  util::Rng rng(23);
  // 1729 and 294409 are Carmichael numbers.
  EXPECT_FALSE(isProbablePrime(BigUint(1729), rng));
  EXPECT_FALSE(isProbablePrime(BigUint(294409), rng));
}

TEST(Prime, RandomPrimeHasRequestedBits) {
  util::Rng rng(25);
  for (std::size_t bits : {16u, 32u, 64u, 128u}) {
    const BigUint p = randomPrime(bits, rng);
    EXPECT_EQ(p.bitLength(), bits);
    EXPECT_TRUE(isProbablePrime(p, rng));
  }
}

TEST(Prime, SafePrimeStructure) {
  util::Rng rng(27);
  const BigUint p = randomSafePrime(64, rng);
  EXPECT_TRUE(isProbablePrime(p, rng));
  const BigUint q = (p - BigUint(1)) >> 1;
  EXPECT_TRUE(isProbablePrime(q, rng));
}

TEST(Prime, RsaLikeModulusFactorsBehave) {
  util::Rng rng(29);
  const BigUint p = randomPrime(64, rng);
  const BigUint q = randomPrime(64, rng);
  const BigUint n = p * q;
  EXPECT_FALSE(isProbablePrime(n, rng));
  EXPECT_EQ(gcd(n, p), p);
}

}  // namespace
}  // namespace dosn::bignum

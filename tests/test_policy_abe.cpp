// Tests for the policy language, Shamir sharing, CP-ABE, KP-ABE and IBBE.
#include <gtest/gtest.h>

#include "dosn/abe/cpabe.hpp"
#include "dosn/abe/kpabe.hpp"
#include "dosn/crypto/sha256.hpp"
#include "dosn/ibbe/ibbe.hpp"
#include "dosn/policy/field.hpp"
#include "dosn/policy/policy.hpp"
#include "dosn/policy/shamir.hpp"
#include "dosn/util/error.hpp"

namespace dosn {
namespace {

using policy::Policy;
using policy::PrimeField;
using policy::Share;
using util::toBytes;

const pkcrypto::DlogGroup& testGroup() {
  return pkcrypto::DlogGroup::cached(256);
}

// --- PrimeField ---

TEST(Field, BasicOps) {
  const PrimeField f(bignum::BigUint(97));
  EXPECT_EQ(f.add(bignum::BigUint(90), bignum::BigUint(10)).toUint64(), 3u);
  EXPECT_EQ(f.sub(bignum::BigUint(5), bignum::BigUint(10)).toUint64(), 92u);
  EXPECT_EQ(f.mul(bignum::BigUint(10), bignum::BigUint(10)).toUint64(), 3u);
  EXPECT_EQ(f.neg(bignum::BigUint(1)).toUint64(), 96u);
  EXPECT_EQ(f.mul(bignum::BigUint(3), f.inv(bignum::BigUint(3))).toUint64(), 1u);
  EXPECT_THROW(f.inv(bignum::BigUint(0)), util::DosnError);
}

TEST(Field, ConstructorRejectsEvenOrTinyModuli) {
  EXPECT_NO_THROW(PrimeField(bignum::BigUint(3)));
  for (const std::uint64_t modulus : {0u, 1u, 2u, 96u}) {
    EXPECT_THROW(PrimeField(bignum::BigUint(modulus)), util::DosnError)
        << modulus;
  }
}

TEST(Field, StandardFieldIs255Bits) {
  EXPECT_EQ(PrimeField::standard().modulus().bitLength(), 255u);
  EXPECT_EQ(PrimeField::standard().encodedSize(), 32u);
}

TEST(Field, EncodeFixedWidth) {
  const PrimeField& f = PrimeField::standard();
  EXPECT_EQ(f.encode(bignum::BigUint(1)).size(), 32u);
  EXPECT_EQ(f.encode(bignum::BigUint(1)).back(), 1);
}

// --- Shamir ---

TEST(Shamir, ReconstructWithExactThreshold) {
  util::Rng rng(1);
  const PrimeField& f = PrimeField::standard();
  const bignum::BigUint secret = f.random(rng);
  const auto shares = policy::shamirShare(f, secret, 3, 5, rng);
  ASSERT_EQ(shares.size(), 5u);
  const std::vector<Share> subset{shares[0], shares[2], shares[4]};
  EXPECT_EQ(policy::shamirReconstruct(f, subset), secret);
}

TEST(Shamir, AllSharesAlsoReconstruct) {
  util::Rng rng(2);
  const PrimeField& f = PrimeField::standard();
  const bignum::BigUint secret = f.random(rng);
  const auto shares = policy::shamirShare(f, secret, 2, 4, rng);
  EXPECT_EQ(policy::shamirReconstruct(f, shares), secret);
}

TEST(Shamir, FewerThanThresholdGivesGarbage) {
  util::Rng rng(3);
  const PrimeField& f = PrimeField::standard();
  const bignum::BigUint secret = f.random(rng);
  const auto shares = policy::shamirShare(f, secret, 3, 5, rng);
  const std::vector<Share> subset{shares[0], shares[1]};
  EXPECT_NE(policy::shamirReconstruct(f, subset), secret);
}

TEST(Shamir, OneOfOne) {
  util::Rng rng(4);
  const PrimeField& f = PrimeField::standard();
  const bignum::BigUint secret(12345);
  const auto shares = policy::shamirShare(f, secret, 1, 1, rng);
  EXPECT_EQ(policy::shamirReconstruct(f, shares), secret);
}

TEST(Shamir, BadParamsThrow) {
  util::Rng rng(5);
  const PrimeField& f = PrimeField::standard();
  EXPECT_THROW(policy::shamirShare(f, bignum::BigUint(1), 0, 3, rng),
               util::DosnError);
  EXPECT_THROW(policy::shamirShare(f, bignum::BigUint(1), 4, 3, rng),
               util::DosnError);
  EXPECT_THROW(policy::shamirReconstruct(f, {}), util::DosnError);
}

struct ShamirParams {
  std::size_t k;
  std::size_t n;
};

class ShamirSweep : public ::testing::TestWithParam<ShamirParams> {};

TEST_P(ShamirSweep, AnyKSubsetReconstructs) {
  const auto [k, n] = GetParam();
  util::Rng rng(100 + k * 10 + n);
  const PrimeField& f = PrimeField::standard();
  const bignum::BigUint secret = f.random(rng);
  const auto shares = policy::shamirShare(f, secret, k, n, rng);
  // Take a few random k-subsets.
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Share> pool = shares;
    rng.shuffle(pool);
    pool.resize(k);
    EXPECT_EQ(policy::shamirReconstruct(f, pool), secret)
        << "k=" << k << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    KN, ShamirSweep,
    ::testing::Values(ShamirParams{1, 3}, ShamirParams{2, 3},
                      ShamirParams{3, 3}, ShamirParams{2, 7},
                      ShamirParams{5, 7}, ShamirParams{7, 10},
                      ShamirParams{10, 10}));

// --- Policy language ---

TEST(Policy, ParseSingleAttribute) {
  const auto p = Policy::parse("family");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->satisfied({"family"}));
  EXPECT_FALSE(p->satisfied({"work"}));
}

TEST(Policy, ParseAndOr) {
  const auto p = Policy::parse("(relative AND doctor) OR painter");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->satisfied({"relative", "doctor"}));
  EXPECT_TRUE(p->satisfied({"painter"}));
  EXPECT_FALSE(p->satisfied({"relative"}));
  EXPECT_FALSE(p->satisfied({"doctor"}));
  EXPECT_TRUE(p->satisfied({"relative", "doctor", "painter"}));
}

TEST(Policy, ParseThreshold) {
  const auto p = Policy::parse("2 of (a, b, c)");
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->satisfied({"a"}));
  EXPECT_TRUE(p->satisfied({"a", "c"}));
  EXPECT_TRUE(p->satisfied({"a", "b", "c"}));
}

TEST(Policy, NestedThreshold) {
  const auto p = Policy::parse("2 of (a AND b, c, d OR e)");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->satisfied({"a", "b", "c"}));
  EXPECT_TRUE(p->satisfied({"c", "e"}));
  EXPECT_FALSE(p->satisfied({"a", "c"}));  // a alone doesn't satisfy (a AND b)
}

TEST(Policy, CaseInsensitiveKeywords) {
  const auto p = Policy::parse("a and b or c");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->satisfied({"c"}));
  EXPECT_TRUE(p->satisfied({"a", "b"}));
}

TEST(Policy, RejectsBadSyntax) {
  EXPECT_FALSE(Policy::parse("").has_value());
  EXPECT_FALSE(Policy::parse("a AND").has_value());
  EXPECT_FALSE(Policy::parse("(a").has_value());
  EXPECT_FALSE(Policy::parse("4 of (a, b)").has_value());
  EXPECT_FALSE(Policy::parse("0 of (a)").has_value());
  EXPECT_FALSE(Policy::parse("a b").has_value());
  EXPECT_FALSE(Policy::parse("AND").has_value());
}

TEST(Policy, ToStringRoundTrips) {
  for (const char* text :
       {"family", "(a AND b) OR c", "2 of (x, y, z)", "a AND b AND c"}) {
    const auto p = Policy::parse(text);
    ASSERT_TRUE(p.has_value()) << text;
    const auto reparsed = Policy::parse(p->toString());
    ASSERT_TRUE(reparsed.has_value()) << p->toString();
    // Same satisfiability on the attribute universe.
    const auto attrs = p->attributes();
    EXPECT_EQ(p->satisfied(attrs), reparsed->satisfied(attrs));
    EXPECT_EQ(p->toString(), reparsed->toString());
  }
}

TEST(Policy, SerializeRoundTrips) {
  const auto p = Policy::parse("2 of (a AND b, c, d OR e)");
  ASSERT_TRUE(p.has_value());
  const auto back = Policy::deserialize(p->serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->toString(), p->toString());
  EXPECT_FALSE(Policy::deserialize(toBytes("junk")).has_value());
}

TEST(Policy, LeavesInDfsOrder) {
  const auto p = Policy::parse("(a AND b) OR c");
  ASSERT_TRUE(p.has_value());
  const auto leaves = p->leaves();
  ASSERT_EQ(leaves.size(), 3u);
  EXPECT_EQ(leaves[0]->attribute, "a");
  EXPECT_EQ(leaves[1]->attribute, "b");
  EXPECT_EQ(leaves[2]->attribute, "c");
}

TEST(Policy, MapAttributes) {
  const auto p = Policy::parse("a AND b");
  ASSERT_TRUE(p.has_value());
  const Policy q = p->mapAttributes([](const std::string& a) { return a + "#1"; });
  EXPECT_TRUE(q.satisfied({"a#1", "b#1"}));
  EXPECT_FALSE(q.satisfied({"a", "b"}));
  // Original unchanged (deep copy).
  EXPECT_TRUE(p->satisfied({"a", "b"}));
}

TEST(Policy, DuplicateAttributesInPolicy) {
  const auto p = Policy::parse("(a AND b) OR (a AND c)");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->satisfied({"a", "c"}));
  EXPECT_EQ(p->attributes().size(), 3u);
  EXPECT_EQ(p->leaves().size(), 4u);
}

// --- CP-ABE ---

class CpAbeTest : public ::testing::Test {
 protected:
  util::Rng rng_{42};
  const pkcrypto::DlogGroup& group_ = testGroup();
  abe::CpAbeAuthority authority_{group_, rng_};
};

TEST_F(CpAbeTest, SatisfyingKeyDecrypts) {
  const auto p = *Policy::parse("(relative AND doctor) OR painter");
  const auto ct = abe::cpabeEncrypt(group_, authority_.publicKeysFor(p), p,
                                    toBytes("the diagnosis"), rng_);
  const auto key = authority_.keyGen({"relative", "doctor"});
  EXPECT_EQ(abe::cpabeDecrypt(group_, key, ct).value(), toBytes("the diagnosis"));
  const auto painterKey = authority_.keyGen({"painter"});
  EXPECT_EQ(abe::cpabeDecrypt(group_, painterKey, ct).value(),
            toBytes("the diagnosis"));
}

TEST_F(CpAbeTest, UnsatisfyingKeyFails) {
  const auto p = *Policy::parse("(relative AND doctor) OR painter");
  const auto ct = abe::cpabeEncrypt(group_, authority_.publicKeysFor(p), p,
                                    toBytes("secret"), rng_);
  EXPECT_FALSE(abe::cpabeDecrypt(group_, authority_.keyGen({"relative"}), ct)
                   .has_value());
  EXPECT_FALSE(abe::cpabeDecrypt(group_, authority_.keyGen({"sculptor"}), ct)
                   .has_value());
  EXPECT_FALSE(abe::cpabeDecrypt(group_, authority_.keyGen({}), ct).has_value());
}

TEST_F(CpAbeTest, ThresholdPolicy) {
  const auto p = *Policy::parse("2 of (a, b, c)");
  const auto ct = abe::cpabeEncrypt(group_, authority_.publicKeysFor(p), p,
                                    toBytes("m"), rng_);
  EXPECT_TRUE(abe::cpabeDecrypt(group_, authority_.keyGen({"a", "c"}), ct)
                  .has_value());
  EXPECT_FALSE(abe::cpabeDecrypt(group_, authority_.keyGen({"b"}), ct)
                   .has_value());
}

TEST_F(CpAbeTest, SerializationRoundTrip) {
  const auto p = *Policy::parse("x OR y");
  const auto ct = abe::cpabeEncrypt(group_, authority_.publicKeysFor(p), p,
                                    toBytes("m"), rng_);
  const auto back = abe::CpAbeCiphertext::deserialize(ct.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(abe::cpabeDecrypt(group_, authority_.keyGen({"x"}), *back).value(),
            toBytes("m"));
}

TEST_F(CpAbeTest, DifferentAuthoritiesIncompatible) {
  abe::CpAbeAuthority other(group_, rng_);
  const auto p = *Policy::parse("a");
  const auto ct = abe::cpabeEncrypt(group_, authority_.publicKeysFor(p), p,
                                    toBytes("m"), rng_);
  EXPECT_FALSE(abe::cpabeDecrypt(group_, other.keyGen({"a"}), ct).has_value());
}

TEST_F(CpAbeTest, MissingAttributeKeyThrows) {
  const auto p = *Policy::parse("a AND b");
  abe::AttributePublicKeys partial;
  partial.emplace("a", authority_.attributePublicKey("a"));
  EXPECT_THROW(abe::cpabeEncrypt(group_, partial, p, toBytes("m"), rng_),
               util::CryptoError);
}

TEST_F(CpAbeTest, DeepNestedPolicy) {
  const auto p = *Policy::parse(
      "2 of (alpha AND beta, gamma OR delta, 2 of (x, y, z))");
  const auto ct = abe::cpabeEncrypt(group_, authority_.publicKeysFor(p), p,
                                    toBytes("deep"), rng_);
  EXPECT_TRUE(abe::cpabeDecrypt(group_,
                                authority_.keyGen({"alpha", "beta", "gamma"}),
                                ct)
                  .has_value());
  EXPECT_TRUE(
      abe::cpabeDecrypt(group_, authority_.keyGen({"x", "z", "delta"}), ct)
          .has_value());
  EXPECT_FALSE(
      abe::cpabeDecrypt(group_, authority_.keyGen({"alpha", "gamma"}), ct)
          .has_value());
}

// --- KP-ABE ---

class KpAbeTest : public ::testing::Test {
 protected:
  util::Rng rng_{43};
  const pkcrypto::DlogGroup& group_ = testGroup();
  abe::KpAbeAuthority authority_{group_, rng_};
};

TEST_F(KpAbeTest, MatchingPolicyDecrypts) {
  const auto key = authority_.keyGen(*Policy::parse("sports AND turkey"));
  const std::set<std::string> attrs = {"sports", "turkey", "news"};
  const auto ct = abe::kpabeEncrypt(group_, authority_.publicKeysFor(attrs),
                                    attrs, toBytes("match report"), rng_);
  EXPECT_EQ(abe::kpabeDecrypt(group_, key, ct).value(), toBytes("match report"));
}

TEST_F(KpAbeTest, NonMatchingPolicyFails) {
  const auto key = authority_.keyGen(*Policy::parse("sports AND france"));
  const std::set<std::string> attrs = {"sports", "turkey"};
  const auto ct = abe::kpabeEncrypt(group_, authority_.publicKeysFor(attrs),
                                    attrs, toBytes("m"), rng_);
  EXPECT_FALSE(abe::kpabeDecrypt(group_, key, ct).has_value());
}

TEST_F(KpAbeTest, OrPolicyNeedsOneAttribute) {
  const auto key = authority_.keyGen(*Policy::parse("finance OR tech"));
  const std::set<std::string> attrs = {"tech"};
  const auto ct = abe::kpabeEncrypt(group_, authority_.publicKeysFor(attrs),
                                    attrs, toBytes("m"), rng_);
  EXPECT_TRUE(abe::kpabeDecrypt(group_, key, ct).has_value());
}

TEST_F(KpAbeTest, SerializationRoundTrip) {
  const auto key = authority_.keyGen(*Policy::parse("a"));
  const std::set<std::string> attrs = {"a", "b"};
  const auto ct = abe::kpabeEncrypt(group_, authority_.publicKeysFor(attrs),
                                    attrs, toBytes("m"), rng_);
  const auto back = abe::KpAbeCiphertext::deserialize(ct.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(abe::kpabeDecrypt(group_, key, *back).value(), toBytes("m"));
}

TEST_F(KpAbeTest, EmptyAttributeSetThrows) {
  EXPECT_THROW(abe::kpabeEncrypt(group_, {}, {}, toBytes("m"), rng_),
               util::CryptoError);
}

// --- IBBE ---

class IbbeTest : public ::testing::Test {
 protected:
  util::Rng rng_{44};
  const pkcrypto::DlogGroup& group_ = testGroup();
  ibbe::Pkg pkg_{group_, rng_};
  ibbe::Directory directory_{pkg_};

  ibbe::IbbeCiphertext encryptTo(const std::vector<std::string>& recipients,
                                 const std::string& msg) {
    return ibbe::ibbeEncrypt(group_, directory_, recipients, toBytes(msg),
                             rng_);
  }
};

TEST_F(IbbeTest, ListedRecipientsDecrypt) {
  const auto ct = encryptTo({"alice@osn", "bob@osn"}, "party on friday");
  EXPECT_EQ(ibbe::ibbeDecrypt(group_, pkg_.extract("alice@osn"), ct).value(),
            toBytes("party on friday"));
  EXPECT_EQ(ibbe::ibbeDecrypt(group_, pkg_.extract("bob@osn"), ct).value(),
            toBytes("party on friday"));
}

TEST_F(IbbeTest, UnlistedIdentityFails) {
  const auto ct = encryptTo({"alice@osn"}, "m");
  EXPECT_FALSE(ibbe::ibbeDecrypt(group_, pkg_.extract("eve@osn"), ct).has_value());
}

TEST_F(IbbeTest, AnyStringIsAnIdentity) {
  const std::string weird = "Üñïçødé user!! +tag";
  const auto ct = encryptTo({weird}, "m");
  EXPECT_TRUE(ibbe::ibbeDecrypt(group_, pkg_.extract(weird), ct).has_value());
}

TEST_F(IbbeTest, RemovalNeedsNoRekey) {
  // Same key object decrypts broadcast 1 but not broadcast 2 (which simply
  // omits bob) — no key material changed anywhere.
  const auto bobKey = pkg_.extract("bob@osn");
  const auto ct1 = encryptTo({"alice@osn", "bob@osn"}, "m1");
  const auto ct2 = encryptTo({"alice@osn"}, "m2");
  EXPECT_TRUE(ibbe::ibbeDecrypt(group_, bobKey, ct1).has_value());
  EXPECT_FALSE(ibbe::ibbeDecrypt(group_, bobKey, ct2).has_value());
  EXPECT_TRUE(
      ibbe::ibbeDecrypt(group_, pkg_.extract("alice@osn"), ct2).has_value());
}

TEST_F(IbbeTest, SerializationRoundTrip) {
  const auto ct = encryptTo({"a", "b", "c"}, "m");
  const util::Bytes encoded = ct.serialize();
  const auto back = ibbe::IbbeCiphertext::deserialize(encoded);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->serialize(), encoded);
  EXPECT_EQ(ibbe::ibbeDecrypt(group_, pkg_.extract("b"), *back).value(),
            toBytes("m"));
  // c1 is read through a view of the input; every proper prefix fails.
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(
        ibbe::IbbeCiphertext::deserialize(util::BytesView(encoded).first(cut))
            .has_value())
        << "cut=" << cut;
  }
}

// Pinned wire bytes of one broadcast at a fixed seed: the RNG draws, their
// order and the encoding must not move.
TEST_F(IbbeTest, EncryptionKnownAnswer) {
  const auto ct = encryptTo({"a", "b", "c"}, "m");
  EXPECT_EQ(util::toHex(crypto::sha256(ct.serialize())),
            "3436ccb9813e4350c806eb3d61fc2dd0fda85a940ee4608c60d94f80a0885fde");
}

TEST_F(IbbeTest, WarmAndFreshDirectoriesAgree) {
  encryptTo({"a", "x", "y"}, "warm-up");  // directory_ now holds tables
  ibbe::Directory fresh(pkg_);
  util::Rng warmRng(45);
  util::Rng freshRng(45);
  const std::vector<std::string> recipients = {"a", "b", "c"};
  EXPECT_EQ(ibbe::ibbeEncrypt(group_, directory_, recipients, toBytes("m"),
                              warmRng)
                .serialize(),
            ibbe::ibbeEncrypt(group_, fresh, recipients, toBytes("m"), freshRng)
                .serialize());
}

TEST_F(IbbeTest, DirectoryBuildsOneTablePerIdentity) {
  const auto& alice = directory_.lookup("alice@osn");
  EXPECT_EQ(&directory_.lookup("alice@osn"), &alice);
  EXPECT_NE(&directory_.lookup("bob@osn"), &alice);
  EXPECT_EQ(alice.base(), pkg_.identityPublicKey("alice@osn"));
  // Any string resolves; there is no "not in directory" failure.
  for (const std::string id : {"", "Üñïçødé user!! +tag", "never-seen"}) {
    EXPECT_EQ(directory_.lookup(id).base(), pkg_.identityPublicKey(id)) << id;
  }
}

TEST_F(IbbeTest, DeserializeRejectsCountBeyondInput) {
  // An empty c1, then 0xFFFFFFFF wraps claimed with one byte left: rejected
  // as malformed before anything is reserved.
  const util::Bytes blob = {0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0};
  EXPECT_FALSE(ibbe::IbbeCiphertext::deserialize(blob).has_value());
}

TEST_F(IbbeTest, DifferentPkgsIncompatible) {
  ibbe::Pkg other(group_, rng_);
  const auto ct = encryptTo({"alice"}, "m");
  EXPECT_FALSE(ibbe::ibbeDecrypt(group_, other.extract("alice"), ct).has_value());
}

TEST_F(IbbeTest, CiphertextSizeLinearInRecipients) {
  // Documented deviation from Delerablée: our header is linear. Verify the
  // shape so EXPERIMENTS.md reports it honestly.
  const auto small = encryptTo({"u1", "u2"}, "m");
  std::vector<std::string> many;
  for (int i = 0; i < 20; ++i) many.push_back("u" + std::to_string(i));
  const auto large = encryptTo(many, "m");
  EXPECT_GT(large.serialize().size(), small.serialize().size() * 5);
}

}  // namespace
}  // namespace dosn

// Tests for dosn/pkcrypto: group, RSA, ElGamal, Schnorr (signatures, prepared
// verifying keys, interactive ZKP), DH, OPRF, blind RSA. Uses the cached
// 256-bit test group and 512-bit RSA so the suite stays fast on one core;
// the prepared-key differential also runs at 512 bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dosn/bignum/modmath.hpp"
#include "dosn/bignum/prime.hpp"
#include "dosn/pkcrypto/blind_rsa.hpp"
#include "dosn/pkcrypto/dh.hpp"
#include "dosn/pkcrypto/elgamal.hpp"
#include "dosn/pkcrypto/group.hpp"
#include "dosn/pkcrypto/oprf.hpp"
#include "dosn/pkcrypto/rsa.hpp"
#include "dosn/pkcrypto/schnorr.hpp"
#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::pkcrypto {
namespace {

using util::toBytes;

const DlogGroup& testGroup() { return DlogGroup::cached(256); }

// --- DlogGroup ---

TEST(Group, CachedParametersAreValid) {
  util::Rng rng(1);
  for (std::size_t bits : {256u, 512u}) {
    const DlogGroup& g = DlogGroup::cached(bits);
    EXPECT_EQ(g.p().bitLength(), bits);
    // p = 2q + 1.
    EXPECT_EQ((g.q() << 1) + bignum::BigUint(1), g.p());
    EXPECT_TRUE(bignum::isProbablePrime(g.p(), rng, 8));
    EXPECT_TRUE(bignum::isProbablePrime(g.q(), rng, 8));
    // The generator has order q.
    EXPECT_TRUE(g.isElement(g.g()));
    EXPECT_EQ(g.exp(g.g(), g.q()), bignum::BigUint(1));
  }
}

TEST(Group, Rfc1024GroupLoads) {
  const DlogGroup& g = DlogGroup::cached(1024);
  EXPECT_EQ(g.p().bitLength(), 1024u);
  EXPECT_TRUE(g.isElement(g.g()));
}

TEST(Group, UnsupportedSizeThrows) {
  EXPECT_THROW(DlogGroup::cached(333), util::CryptoError);
}

TEST(Group, ExpMulInvConsistent) {
  util::Rng rng(2);
  const DlogGroup& g = testGroup();
  const auto a = g.randomScalar(rng);
  const auto b = g.randomScalar(rng);
  // g^a * g^b == g^(a+b mod q)
  const auto lhs = g.mul(g.exp(a), g.exp(b));
  const auto rhs = g.exp(bignum::addMod(a, b, g.q()));
  EXPECT_EQ(lhs, rhs);
  // x * x^-1 == 1
  const auto x = g.exp(a);
  EXPECT_EQ(g.mul(x, g.inv(x)), bignum::BigUint(1));
}

TEST(Group, HashToGroupProducesElements) {
  const DlogGroup& g = testGroup();
  for (const char* input : {"", "alice", "#hashtag", "x"}) {
    EXPECT_TRUE(g.isElement(g.hashToGroup(toBytes(input)))) << input;
  }
  EXPECT_NE(g.hashToGroup(toBytes("a")), g.hashToGroup(toBytes("b")));
}

TEST(Group, IsElementRejectsNonMembers) {
  const DlogGroup& g = testGroup();
  EXPECT_FALSE(g.isElement(bignum::BigUint(0)));
  EXPECT_FALSE(g.isElement(g.p()));
  // A generator of the full group (order 2q) is not in the q-subgroup;
  // p-1 has order 2.
  EXPECT_FALSE(g.isElement(g.p() - bignum::BigUint(1)));
}

TEST(Group, IsElementMatchesEulerCriterion) {
  // isElement answers membership with a Jacobi symbol; differential-test it
  // against the full Euler-criterion exponentiation x^q == 1, on members
  // (squares), their complements, and arbitrary candidates.
  util::Rng rng(7);
  const DlogGroup& g = testGroup();
  ASSERT_EQ((g.q() << 1) + bignum::BigUint(1), g.p());
  for (int i = 0; i < 32; ++i) {
    const auto candidate = bignum::randomUnit(g.p(), rng);
    const bool viaEuler =
        bignum::powMod(candidate, g.q(), g.p()) == bignum::BigUint(1);
    EXPECT_EQ(g.isElement(candidate), viaEuler) << candidate.toHex();
    // x^2 is always a residue; -x^2 never is when p ≡ 3 (mod 4).
    const auto square = bignum::mulMod(candidate, candidate, g.p());
    EXPECT_TRUE(g.isElement(square));
    EXPECT_FALSE(g.isElement(g.p() - square));
  }
}

TEST(Group, ConstructorRejectsAnythingButOddPEqualTwoQPlusOne) {
  using bignum::BigUint;
  // 23 = 2 * 11 + 1 is accepted; 4 is a quadratic residue mod 23.
  EXPECT_NO_THROW(DlogGroup(BigUint(23), BigUint(11), BigUint(4)));
  // Even p (and so p != 2q + 1 for any q).
  EXPECT_THROW(DlogGroup(BigUint(22), BigUint(11), BigUint(4)),
               util::CryptoError);
  // Odd p, but not 2q + 1.
  EXPECT_THROW(DlogGroup(BigUint(23), BigUint(5), BigUint(4)),
               util::CryptoError);
  // p = 2q + 1 with q even.
  EXPECT_THROW(DlogGroup(BigUint(17), BigUint(8), BigUint(4)),
               util::CryptoError);
  // Too small.
  EXPECT_THROW(DlogGroup(BigUint(3), BigUint(1), BigUint(1)),
               util::CryptoError);
}

// --- RSA ---

class RsaTest : public ::testing::Test {
 protected:
  util::Rng rng_{42};
  RsaPrivateKey key_ = rsaGenerate(512, rng_);
};

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  const util::Bytes msg = toBytes("top secret message");
  const util::Bytes ct = rsaEncrypt(key_.pub, msg, rng_);
  EXPECT_EQ(ct.size(), key_.pub.modulusBytes());
  EXPECT_EQ(rsaDecrypt(key_, ct).value(), msg);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  const util::Bytes msg = toBytes("same message");
  EXPECT_NE(rsaEncrypt(key_.pub, msg, rng_), rsaEncrypt(key_.pub, msg, rng_));
}

TEST_F(RsaTest, TamperedCiphertextRejected) {
  util::Bytes ct = rsaEncrypt(key_.pub, toBytes("hello"), rng_);
  ct[ct.size() / 2] ^= 1;
  EXPECT_FALSE(rsaDecrypt(key_, ct).has_value());
}

TEST_F(RsaTest, WrongKeyRejected) {
  const RsaPrivateKey other = rsaGenerate(512, rng_);
  const util::Bytes ct = rsaEncrypt(key_.pub, toBytes("hello"), rng_);
  EXPECT_FALSE(rsaDecrypt(other, ct).has_value());
}

TEST_F(RsaTest, PlaintextTooLongThrows) {
  const util::Bytes big(key_.pub.modulusBytes(), 0x41);
  EXPECT_THROW(rsaEncrypt(key_.pub, big, rng_), util::CryptoError);
}

TEST_F(RsaTest, MaximumLengthPlaintext) {
  const std::size_t maxLen = key_.pub.modulusBytes() - 2 * 16 - 2;
  const util::Bytes msg(maxLen, 0x5a);
  EXPECT_EQ(rsaDecrypt(key_, rsaEncrypt(key_.pub, msg, rng_)).value(), msg);
}

TEST_F(RsaTest, SignVerify) {
  const util::Bytes msg = toBytes("signed statement");
  const util::Bytes sig = rsaSign(key_, msg);
  EXPECT_TRUE(rsaVerify(key_.pub, msg, sig));
  EXPECT_FALSE(rsaVerify(key_.pub, toBytes("other"), sig));
  util::Bytes bad = sig;
  bad[0] ^= 1;
  EXPECT_FALSE(rsaVerify(key_.pub, msg, bad));
}

TEST_F(RsaTest, PublicKeySerializationRoundTrip) {
  const util::Bytes ser = key_.pub.serialize();
  const RsaPublicKey back = RsaPublicKey::deserialize(ser);
  EXPECT_EQ(back.n, key_.pub.n);
  EXPECT_EQ(back.e, key_.pub.e);
}

TEST_F(RsaTest, RawRoundTrip) {
  const bignum::BigUint x(123456789);
  EXPECT_EQ(rsaRawPublic(key_.pub, rsaRawPrivate(key_, x)), x);
}

// --- ElGamal ---

TEST(ElGamal, ElementRoundTrip) {
  util::Rng rng(7);
  const DlogGroup& g = testGroup();
  const auto key = elgamalGenerate(g, rng);
  const bignum::BigUint m = g.exp(g.randomScalar(rng));  // random element
  const auto ct = elgamalEncryptElement(g, key.pub, m, rng);
  EXPECT_EQ(elgamalDecryptElement(g, key, ct), m);
}

TEST(ElGamal, ElementHomomorphism) {
  util::Rng rng(8);
  const DlogGroup& g = testGroup();
  const auto key = elgamalGenerate(g, rng);
  const bignum::BigUint m1 = g.exp(bignum::BigUint(11));
  const bignum::BigUint m2 = g.exp(bignum::BigUint(13));
  const auto c1 = elgamalEncryptElement(g, key.pub, m1, rng);
  const auto c2 = elgamalEncryptElement(g, key.pub, m2, rng);
  const ElGamalElementCiphertext prod{g.mul(c1.c1, c2.c1), g.mul(c1.c2, c2.c2)};
  EXPECT_EQ(elgamalDecryptElement(g, key, prod), g.mul(m1, m2));
}

TEST(ElGamal, BytesRoundTrip) {
  util::Rng rng(9);
  const DlogGroup& g = testGroup();
  const auto key = elgamalGenerate(g, rng);
  const util::Bytes msg = toBytes("arbitrary length plaintext, longer than an element");
  const util::Bytes ct = elgamalEncrypt(g, key.pub, msg, rng);
  EXPECT_EQ(elgamalDecrypt(g, key, ct).value(), msg);
}

TEST(ElGamal, BytesWrongKeyFails) {
  util::Rng rng(10);
  const DlogGroup& g = testGroup();
  const auto key = elgamalGenerate(g, rng);
  const auto other = elgamalGenerate(g, rng);
  const util::Bytes ct = elgamalEncrypt(g, key.pub, toBytes("m"), rng);
  EXPECT_FALSE(elgamalDecrypt(g, other, ct).has_value());
}

TEST(ElGamal, MalformedCiphertextRejected) {
  util::Rng rng(11);
  const DlogGroup& g = testGroup();
  const auto key = elgamalGenerate(g, rng);
  EXPECT_FALSE(elgamalDecrypt(g, key, toBytes("garbage")).has_value());
}

// --- Schnorr signatures ---

TEST(Schnorr, SignVerify) {
  util::Rng rng(12);
  const DlogGroup& g = testGroup();
  const auto key = schnorrGenerate(g, rng);
  const auto sig = schnorrSign(g, key, toBytes("message"), rng);
  EXPECT_TRUE(schnorrVerify(g, key.pub, toBytes("message"), sig));
  EXPECT_FALSE(schnorrVerify(g, key.pub, toBytes("other"), sig));
}

TEST(Schnorr, WrongKeyFails) {
  util::Rng rng(13);
  const DlogGroup& g = testGroup();
  const auto key = schnorrGenerate(g, rng);
  const auto other = schnorrGenerate(g, rng);
  const auto sig = schnorrSign(g, key, toBytes("m"), rng);
  EXPECT_FALSE(schnorrVerify(g, other.pub, toBytes("m"), sig));
}

TEST(Schnorr, TamperedSignatureFails) {
  util::Rng rng(14);
  const DlogGroup& g = testGroup();
  const auto key = schnorrGenerate(g, rng);
  auto sig = schnorrSign(g, key, toBytes("m"), rng);
  sig.s = bignum::addMod(sig.s, bignum::BigUint(1), g.q());
  EXPECT_FALSE(schnorrVerify(g, key.pub, toBytes("m"), sig));
}

TEST(Schnorr, SerializationRoundTrip) {
  util::Rng rng(15);
  const DlogGroup& g = testGroup();
  const auto key = schnorrGenerate(g, rng);
  const auto sig = schnorrSign(g, key, toBytes("m"), rng);
  const auto back = SchnorrSignature::deserialize(sig.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(schnorrVerify(g, key.pub, toBytes("m"), *back));
  EXPECT_FALSE(SchnorrSignature::deserialize(toBytes("junk")).has_value());
}

// --- Prepared Schnorr keys against the one-shot schnorrVerify ---

// schnorrVerify's equation without its range and subgroup checks:
// g^s * (y mod p)^(q - e) must hash, with y's own bytes, to e (e < q).
bool equationHolds(const DlogGroup& g, const BigUint& y,
                   util::BytesView message, const SchnorrSignature& sig) {
  if (sig.e >= g.q()) return false;
  const BigUint r =
      bignum::mulMod(bignum::powMod(g.g(), sig.s, g.p()),
                     bignum::powMod(y % g.p(), g.q() - sig.e, g.p()), g.p());
  util::Writer w;
  w.bytes(r.toBytes());
  w.bytes(y.toBytes());
  w.bytes(message);
  return g.hashToScalar(w.buffer()) == sig.e;
}

// A signature by secret x under the claimed key y, redrawn until
// equationHolds, so that only a range or subgroup check can reject it.
SchnorrSignature signUnder(const DlogGroup& g, const BigUint& y,
                           const BigUint& x, util::BytesView message,
                           util::Rng& rng) {
  const SchnorrPrivateKey claimed{SchnorrPublicKey{y}, x};
  SchnorrSignature sig = schnorrSign(g, claimed, message, rng);
  for (int i = 0; i < 64 && !equationHolds(g, y, message, sig); ++i) {
    sig = schnorrSign(g, claimed, message, rng);
  }
  return sig;
}

class SchnorrVerifyingKeyTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  const DlogGroup& group() const { return DlogGroup::cached(GetParam()); }

  // Keys outside the order-q subgroup, derived from a valid y: zero, the
  // order-2 element p-1, the quadratic non-residue -y, and y + p, which is
  // y again once reduced mod p.
  std::vector<BigUint> keysOutsideSubgroup(const BigUint& y) const {
    const BigUint& p = group().p();
    return {BigUint(0), p - BigUint(1), p - y, y + p};
  }
};

TEST_P(SchnorrVerifyingKeyTest, AllValidPageAccepts) {
  const DlogGroup& g = group();
  util::Rng rng(151);
  const auto key = schnorrGenerate(g, rng);
  const SchnorrVerifyingKey prepared(g, key.pub);
  for (int i = 0; i < 16; ++i) {
    const auto msg = toBytes("post #" + std::to_string(i));
    const auto sig = schnorrSign(g, key, msg, rng);
    EXPECT_TRUE(prepared.verify(msg, sig)) << "i=" << i;
    EXPECT_TRUE(schnorrVerify(g, key.pub, msg, sig)) << "i=" << i;
  }
}

// One forged signature in a page of 64 is the only one rejected.
TEST_P(SchnorrVerifyingKeyTest, SingleForgeryInPageOf64Pinpointed) {
  const DlogGroup& g = group();
  util::Rng rng(157);
  const auto key = schnorrGenerate(g, rng);
  const SchnorrVerifyingKey prepared(g, key.pub);
  constexpr int kForged = 37;
  for (int i = 0; i < 64; ++i) {
    const auto msg = toBytes("page item " + std::to_string(i));
    auto sig = schnorrSign(g, key, msg, rng);
    if (i == kForged) sig.s = bignum::addMod(sig.s, BigUint(1), g.q());
    EXPECT_EQ(prepared.verify(msg, sig), i != kForged) << "i=" << i;
  }
}

// Randomized differential over 1k pages: every item's prepared verdict
// equals schnorrVerify's. Keys are prepared once each and reused across
// pages, as the identity registry reuses them across fetches.
TEST_P(SchnorrVerifyingKeyTest, RandomizedPagesMatchSchnorrVerify) {
  const DlogGroup& g = group();
  util::Rng rng(163);
  struct Item {
    SchnorrPublicKey key;
    util::Bytes message;
    SchnorrSignature sig;
  };
  // Pre-signed pool: two signers, eight messages each.
  std::vector<SchnorrPrivateKey> keys;
  keys.push_back(schnorrGenerate(g, rng));
  keys.push_back(schnorrGenerate(g, rng));
  std::vector<Item> pool;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    for (int i = 0; i < 8; ++i) {
      const auto msg =
          toBytes("pool " + std::to_string(k) + ":" + std::to_string(i));
      pool.push_back(Item{keys[k].pub, msg, schnorrSign(g, keys[k], msg, rng)});
    }
  }
  std::map<BigUint, SchnorrVerifyingKey> prepared;
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int page = 0; page < 1000; ++page) {
    const std::size_t pageSize = 1 + rng.next() % 6;
    for (std::size_t i = 0; i < pageSize; ++i) {
      Item item = pool[rng.next() % pool.size()];
      switch (rng.next() % 9) {
        case 0:  // tamper message
          item.message.push_back(0x42);
          break;
        case 1:  // tamper s
          item.sig.s = bignum::addMod(item.sig.s, BigUint(1), g.q());
          break;
        case 2:  // tamper e
          item.sig.e = bignum::addMod(item.sig.e, BigUint(1), g.q());
          break;
        case 3:  // range violation: e == q
          item.sig.e = g.q();
          break;
        case 4:  // range violation: s == q
          item.sig.s = g.q();
          break;
        case 5: {  // key outside the subgroup
          const auto bad = keysOutsideSubgroup(item.key.y);
          item.key.y = bad[rng.next() % bad.size()];
          break;
        }
        case 6:  // signature swapped from another pool entry
          item.sig = pool[rng.next() % pool.size()].sig;
          break;
        default:  // leave valid
          break;
      }
      auto it = prepared.find(item.key.y);
      if (it == prepared.end()) {
        it = prepared.emplace(item.key.y, SchnorrVerifyingKey(g, item.key))
                 .first;
      }
      const bool single = schnorrVerify(g, item.key, item.message, item.sig);
      ASSERT_EQ(it->second.verify(item.message, item.sig), single)
          << "page=" << page << " i=" << i;
      ++(single ? accepted : rejected);
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// Signatures whose verification equation holds under a key outside the
// subgroup: only the membership decision, made once at preparation,
// rejects them.
TEST_P(SchnorrVerifyingKeyTest, EquationHoldsButKeyOutsideSubgroupRejects) {
  const DlogGroup& g = group();
  util::Rng rng(167);
  const auto key = schnorrGenerate(g, rng);
  const auto msg = toBytes("forged under a non-member key");
  const BigUint& p = g.p();
  // p-1 = -g^0, -y = -g^x and y + p = g^x mod p: each signs with the
  // matching secret, redrawn until the sign of (-1)^(q-e) is +1.
  const std::vector<std::pair<BigUint, BigUint>> claims = {
      {p - BigUint(1), BigUint(0)},
      {p - key.pub.y, key.x},
      {key.pub.y + p, key.x}};
  for (const auto& [y, x] : claims) {
    const auto sig = signUnder(g, y, x, msg, rng);
    ASSERT_TRUE(equationHolds(g, y, msg, sig)) << y.toHex();
    EXPECT_FALSE(g.isElement(y)) << y.toHex();
    EXPECT_FALSE(schnorrVerify(g, SchnorrPublicKey{y}, msg, sig)) << y.toHex();
    EXPECT_FALSE(SchnorrVerifyingKey(g, SchnorrPublicKey{y}).verify(msg, sig))
        << y.toHex();
  }
  // Zero admits no such signature; it still rejects a valid one.
  const auto valid = schnorrSign(g, key, msg, rng);
  EXPECT_FALSE(SchnorrVerifyingKey(g, SchnorrPublicKey{BigUint(0)})
                   .verify(msg, valid));
}

// s + q satisfies the equation as s does (g has order q); only the range
// check rejects it. e == q and e + q never reach an exponent.
TEST_P(SchnorrVerifyingKeyTest, ScalarsAtOrAboveQRejected) {
  const DlogGroup& g = group();
  util::Rng rng(173);
  const auto key = schnorrGenerate(g, rng);
  const SchnorrVerifyingKey prepared(g, key.pub);
  const auto msg = toBytes("m");
  const auto sig = schnorrSign(g, key, msg, rng);
  ASSERT_TRUE(prepared.verify(msg, sig));
  std::vector<SchnorrSignature> bad(4, sig);
  bad[0].s = sig.s + g.q();
  bad[1].s = g.q();
  bad[2].e = g.q();
  bad[3].e = sig.e + g.q();
  EXPECT_TRUE(equationHolds(g, key.pub.y, msg, bad[0]));
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_FALSE(schnorrVerify(g, key.pub, msg, bad[i])) << i;
    EXPECT_FALSE(prepared.verify(msg, bad[i])) << i;
  }
}

// The key holds its group by value: it keeps verifying after the group it
// was built from is gone.
TEST_P(SchnorrVerifyingKeyTest, KeyOutlivesTheGroupItWasBuiltFrom) {
  util::Rng rng(179);
  const auto key = schnorrGenerate(group(), rng);
  const auto msg = toBytes("m");
  const auto sig = schnorrSign(group(), key, msg, rng);
  std::optional<SchnorrVerifyingKey> prepared;
  {
    const DlogGroup local = group();
    prepared.emplace(local, key.pub);
  }
  EXPECT_TRUE(prepared->verify(msg, sig));
  EXPECT_EQ(prepared->publicKey().y, key.pub.y);
  EXPECT_EQ(prepared->group().p(), group().p());
}

INSTANTIATE_TEST_SUITE_P(
    Bits, SchnorrVerifyingKeyTest, ::testing::Values(256u, 512u),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::to_string(info.param);
    });

// verifyAll against verify on every item. Pages of 0 to kMaxPage valid
// signatures, then each with one forgery at every position: e or s changed
// within range, s >= q, e >= q. Then keys outside the subgroup, including
// signatures whose equation holds under them. The 256-bit group runs the
// lanes where the CPU has them; the 512-bit group runs the loop.
void checkVerifyAllMatchesVerify(const DlogGroup& g, std::size_t maxPage,
                                 util::Rng& rng) {
  const auto key = schnorrGenerate(g, rng);
  const SchnorrVerifyingKey prepared(g, key.pub);
  std::vector<util::Bytes> messages;
  std::vector<SchnorrSignature> sigs;
  std::vector<bool> valid;  // verify's verdict on each unforged item
  for (std::size_t i = 0; i < maxPage; ++i) {
    messages.push_back(toBytes("chain entry " + std::to_string(i)));
    sigs.push_back(schnorrSign(g, key, messages.back(), rng));
    valid.push_back(prepared.verify(messages.back(), sigs.back()));
    ASSERT_TRUE(valid.back()) << i;
  }
  // verifyAll on the first n items of `page`, which differs from `sigs` at
  // most at `forged`; its verdict must be that of verify on every item.
  const auto verifyAll = [&](const SchnorrVerifyingKey& k,
                             const std::vector<SchnorrSignature>& page,
                             std::size_t n, std::size_t forged) {
    std::vector<SignedMessage> items;
    bool every = true;
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back({messages[i], &page[i]});
      const bool known = &k == &prepared && i != forged;
      every = every && (known ? valid[i] : k.verify(messages[i], page[i]));
    }
    const bool all = k.verifyAll(items);
    EXPECT_EQ(all, every) << "n=" << n << " forged=" << forged;
    return all;
  };

  const BigUint& q = g.q();
  for (std::size_t n = 0; n <= maxPage; ++n) {
    EXPECT_TRUE(verifyAll(prepared, sigs, n, n)) << "valid page of " << n;
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (int kind = 0; kind < 4; ++kind) {
        std::vector<SchnorrSignature> page(sigs.begin(), sigs.begin() + n);
        SchnorrSignature& f = page[pos];
        switch (kind) {
          case 0: f.e = bignum::addMod(f.e, BigUint(1), q); break;
          case 1: f.s = bignum::addMod(f.s, BigUint(1), q); break;
          case 2: f.s = f.s + q; break;
          default: f.e = f.e + q; break;
        }
        EXPECT_FALSE(verifyAll(prepared, page, n, pos))
            << "n=" << n << " pos=" << pos << " kind=" << kind;
      }
    }
  }

  // Outside the subgroup every non-empty page rejects, whether the
  // signatures are the member key's or satisfy the equation under y.
  const BigUint& p = g.p();
  const std::vector<std::pair<BigUint, BigUint>> claims = {
      {BigUint(0), BigUint(1)},
      {p - BigUint(1), BigUint(0)},
      {p - key.pub.y, key.x},
      {key.pub.y + p, key.x}};
  for (const auto& [y, x] : claims) {
    const SchnorrVerifyingKey outside(g, SchnorrPublicKey{y});
    std::vector<SchnorrSignature> underY;
    for (std::size_t i = 0; i < std::min<std::size_t>(maxPage, 3); ++i) {
      underY.push_back(signUnder(g, y, x, messages[i], rng));
    }
    for (std::size_t n = 0; n <= underY.size(); ++n) {
      EXPECT_EQ(verifyAll(outside, sigs, n, n), n == 0) << y.toHex();
      EXPECT_EQ(verifyAll(outside, underY, n, n), n == 0) << y.toHex();
    }
  }
}

TEST(SchnorrVerifyingKey, VerifyAllMatchesVerify) {
  util::Rng rng(181);
  checkVerifyAllMatchesVerify(DlogGroup::cached(256), 40, rng);
  checkVerifyAllMatchesVerify(DlogGroup::cached(512), 6, rng);
}

// --- Interactive Schnorr identification (the §V-B ZKP) ---

TEST(SchnorrZkp, HonestProverAccepted) {
  util::Rng rng(16);
  const DlogGroup& g = testGroup();
  const auto key = schnorrGenerate(g, rng);
  for (int round = 0; round < 5; ++round) {
    SchnorrProver prover(g, key, rng);
    SchnorrVerifier verifier(g, key.pub, prover.commitment(), rng);
    EXPECT_TRUE(verifier.check(prover.respond(verifier.challenge())));
  }
}

TEST(SchnorrZkp, ImpostorRejected) {
  util::Rng rng(17);
  const DlogGroup& g = testGroup();
  const auto key = schnorrGenerate(g, rng);
  const auto impostor = schnorrGenerate(g, rng);
  // The impostor runs the protocol with its own secret against the honest
  // public key: must fail.
  SchnorrProver prover(g, impostor, rng);
  SchnorrVerifier verifier(g, key.pub, prover.commitment(), rng);
  EXPECT_FALSE(verifier.check(prover.respond(verifier.challenge())));
}

TEST(SchnorrZkp, NonInteractiveProofBindsContext) {
  util::Rng rng(18);
  const DlogGroup& g = testGroup();
  const auto key = schnorrGenerate(g, rng);
  const auto proof = schnorrProve(g, key, toBytes("resource-A"), rng);
  EXPECT_TRUE(schnorrProofVerify(g, key.pub, toBytes("resource-A"), proof));
  // Replaying the proof in a different context must fail.
  EXPECT_FALSE(schnorrProofVerify(g, key.pub, toBytes("resource-B"), proof));
}

TEST(SchnorrZkp, ProofSerializationRoundTrip) {
  util::Rng rng(19);
  const DlogGroup& g = testGroup();
  const auto key = schnorrGenerate(g, rng);
  const auto proof = schnorrProve(g, key, toBytes("ctx"), rng);
  const auto back = SchnorrProof::deserialize(proof.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(schnorrProofVerify(g, key.pub, toBytes("ctx"), *back));
}

// --- DH ---

TEST(Dh, SharedKeyAgrees) {
  util::Rng rng(20);
  const DlogGroup& g = testGroup();
  const auto alice = dhGenerate(g, rng);
  const auto bob = dhGenerate(g, rng);
  EXPECT_EQ(dhSharedKey(g, alice, bob.open), dhSharedKey(g, bob, alice.open));
}

TEST(Dh, DifferentPeersDifferentKeys) {
  util::Rng rng(21);
  const DlogGroup& g = testGroup();
  const auto alice = dhGenerate(g, rng);
  const auto bob = dhGenerate(g, rng);
  const auto carol = dhGenerate(g, rng);
  EXPECT_NE(dhSharedKey(g, alice, bob.open), dhSharedKey(g, alice, carol.open));
}

TEST(Dh, RejectsNonElement) {
  util::Rng rng(22);
  const DlogGroup& g = testGroup();
  const auto alice = dhGenerate(g, rng);
  EXPECT_THROW(dhSharedKey(g, alice, g.p() - bignum::BigUint(1)),
               util::CryptoError);
}

// --- OPRF ---

TEST(Oprf, ObliviousMatchesDirect) {
  util::Rng rng(23);
  const DlogGroup& g = testGroup();
  const OprfSender sender(g, rng);
  for (const char* input : {"#music", "#privacy", ""}) {
    OprfReceiver receiver(g, toBytes(input), rng);
    const auto reply = sender.evaluateBlinded(receiver.blinded());
    EXPECT_EQ(receiver.finalize(reply), sender.evaluate(toBytes(input)))
        << input;
  }
}

TEST(Oprf, DifferentInputsDifferentOutputs) {
  util::Rng rng(24);
  const DlogGroup& g = testGroup();
  const OprfSender sender(g, rng);
  EXPECT_NE(sender.evaluate(toBytes("a")), sender.evaluate(toBytes("b")));
}

TEST(Oprf, DifferentSecretsDifferentOutputs) {
  util::Rng rng(25);
  const DlogGroup& g = testGroup();
  const OprfSender s1(g, rng);
  const OprfSender s2(g, rng);
  EXPECT_NE(s1.evaluate(toBytes("x")), s2.evaluate(toBytes("x")));
}

TEST(Oprf, BlindingHidesInput) {
  // The blinded value for the same input must differ across runs (the sender
  // cannot correlate requests, let alone read the input).
  util::Rng rng(26);
  const DlogGroup& g = testGroup();
  OprfReceiver r1(g, toBytes("secret-tag"), rng);
  OprfReceiver r2(g, toBytes("secret-tag"), rng);
  EXPECT_NE(r1.blinded(), r2.blinded());
}

TEST(Oprf, SenderRejectsNonElement) {
  util::Rng rng(27);
  const DlogGroup& g = testGroup();
  const OprfSender sender(g, rng);
  EXPECT_THROW(sender.evaluateBlinded(bignum::BigUint(0)), util::CryptoError);
}

// --- Blind RSA ---

TEST(BlindRsa, UnblindedSignatureVerifies) {
  util::Rng rng(28);
  const RsaPrivateKey signer = rsaGenerate(512, rng);
  BlindSignatureRequest request(signer.pub, toBytes("#topic"), rng);
  const bignum::BigUint blindSig = blindSign(signer, request.blinded());
  const bignum::BigUint sig = request.unblind(blindSig);
  EXPECT_TRUE(blindSignatureVerify(signer.pub, toBytes("#topic"), sig));
  EXPECT_FALSE(blindSignatureVerify(signer.pub, toBytes("#other"), sig));
}

TEST(BlindRsa, SignerCannotSeeMessage) {
  // Blinded values for the same message are unlinkable across requests.
  util::Rng rng(29);
  const RsaPrivateKey signer = rsaGenerate(512, rng);
  BlindSignatureRequest r1(signer.pub, toBytes("m"), rng);
  BlindSignatureRequest r2(signer.pub, toBytes("m"), rng);
  EXPECT_NE(r1.blinded(), r2.blinded());
  // And neither equals the full-domain hash the signature is on.
  EXPECT_NE(r1.blinded(), rsaFullDomainHash(signer.pub, toBytes("m")));
}

TEST(BlindRsa, UnblindedEqualsDirectFdhSignature) {
  util::Rng rng(30);
  const RsaPrivateKey signer = rsaGenerate(512, rng);
  BlindSignatureRequest request(signer.pub, toBytes("msg"), rng);
  const bignum::BigUint sig = request.unblind(blindSign(signer, request.blinded()));
  const bignum::BigUint direct =
      rsaRawPrivate(signer, rsaFullDomainHash(signer.pub, toBytes("msg")));
  EXPECT_EQ(sig, direct);
}

class OprfManyInputs : public ::testing::TestWithParam<int> {};

TEST_P(OprfManyInputs, ConsistencyUnderSeed) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const DlogGroup& g = testGroup();
  const OprfSender sender(g, rng);
  const std::string input = "input-" + std::to_string(GetParam());
  OprfReceiver receiver(g, toBytes(input), rng);
  EXPECT_EQ(receiver.finalize(sender.evaluateBlinded(receiver.blinded())),
            sender.evaluate(toBytes(input)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OprfManyInputs, ::testing::Range(1, 9));

}  // namespace
}  // namespace dosn::pkcrypto

// Tests for the access-control schemes of §III, the PAD, and information
// substitution. The revocation tests verify the *semantic differences* the
// paper describes between the schemes.
#include <gtest/gtest.h>

#include <memory>

#include "dosn/crypto/sha256.hpp"
#include "dosn/privacy/abe_acl.hpp"
#include "dosn/privacy/hybrid_acl.hpp"
#include "dosn/privacy/ibbe_acl.hpp"
#include "dosn/privacy/pad.hpp"
#include "dosn/privacy/publickey_acl.hpp"
#include "dosn/privacy/substitution.hpp"
#include "dosn/privacy/symmetric_acl.hpp"
#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::privacy {
namespace {

using util::toBytes;

const pkcrypto::DlogGroup& testGroup() {
  return pkcrypto::DlogGroup::cached(256);
}

// ---------- Common behaviour across all AccessController implementations ----

enum class Scheme {
  kSymmetric,
  kPublicKey,
  kAbe,
  kIbbe,
  kHybridPk,
  kHybridAbe,
  kHybridIbbe,
};

std::unique_ptr<AccessController> makeController(Scheme scheme,
                                                 util::Rng& rng) {
  switch (scheme) {
    case Scheme::kSymmetric:
      return std::make_unique<SymmetricAcl>(rng);
    case Scheme::kPublicKey:
      return std::make_unique<PublicKeyAcl>(testGroup(), rng);
    case Scheme::kAbe:
      return std::make_unique<AbeAcl>(testGroup(), rng);
    case Scheme::kIbbe:
      return std::make_unique<IbbeAcl>(testGroup(), rng);
    case Scheme::kHybridPk:
      return std::make_unique<HybridAcl>(testGroup(), rng, WrapScheme::kPublicKey);
    case Scheme::kHybridAbe:
      return std::make_unique<HybridAcl>(testGroup(), rng, WrapScheme::kCpAbe);
    case Scheme::kHybridIbbe:
      return std::make_unique<HybridAcl>(testGroup(), rng, WrapScheme::kIbbe);
  }
  return nullptr;
}

class AclConformance : public ::testing::TestWithParam<Scheme> {
 protected:
  util::Rng rng_{42};
  std::unique_ptr<AccessController> acl_ = makeController(GetParam(), rng_);
};

TEST_P(AclConformance, MembersDecryptNonMembersDont) {
  acl_->createGroup("friends");
  acl_->addMember("friends", "alice");
  acl_->addMember("friends", "bob");
  const Envelope env = acl_->encrypt("friends", toBytes("secret post"), rng_);
  EXPECT_EQ(acl_->decrypt("alice", env).value(), toBytes("secret post"));
  EXPECT_EQ(acl_->decrypt("bob", env).value(), toBytes("secret post"));
  EXPECT_FALSE(acl_->decrypt("eve", env).has_value());
}

TEST_P(AclConformance, RevokedMemberLosesAccessToNewData) {
  acl_->createGroup("g");
  acl_->addMember("g", "alice");
  acl_->addMember("g", "bob");
  acl_->removeMember("g", "bob");
  const Envelope after = acl_->encrypt("g", toBytes("post-revocation"), rng_);
  EXPECT_TRUE(acl_->decrypt("alice", after).has_value());
  EXPECT_FALSE(acl_->decrypt("bob", after).has_value());
}

TEST_P(AclConformance, MembershipBookkeeping) {
  acl_->createGroup("g");
  acl_->addMember("g", "alice");
  acl_->addMember("g", "bob");
  EXPECT_TRUE(acl_->isMember("g", "alice"));
  EXPECT_EQ(acl_->members("g").size(), 2u);
  acl_->removeMember("g", "alice");
  EXPECT_FALSE(acl_->isMember("g", "alice"));
  EXPECT_EQ(acl_->members("g").size(), 1u);
  EXPECT_FALSE(acl_->isMember("nope", "alice"));
}

TEST_P(AclConformance, SeparateGroupsAreIsolated) {
  acl_->createGroup("g1");
  acl_->createGroup("g2");
  acl_->addMember("g1", "alice");
  acl_->addMember("g2", "bob");
  const Envelope env1 = acl_->encrypt("g1", toBytes("for g1"), rng_);
  EXPECT_TRUE(acl_->decrypt("alice", env1).has_value());
  EXPECT_FALSE(acl_->decrypt("bob", env1).has_value());
}

TEST_P(AclConformance, HistoryRetained) {
  acl_->createGroup("g");
  acl_->addMember("g", "alice");
  acl_->encrypt("g", toBytes("one"), rng_);
  acl_->encrypt("g", toBytes("two"), rng_);
  EXPECT_EQ(acl_->history("g").size(), 2u);
}

TEST_P(AclConformance, DuplicateOrUnknownGroupThrows) {
  acl_->createGroup("g");
  // These throw before any key or nonce is drawn.
  util::Rng untouched = rng_;
  EXPECT_THROW(acl_->createGroup("g"), util::DosnError);
  EXPECT_THROW(acl_->removeMember("nope", "alice"), util::DosnError);
  EXPECT_THROW(acl_->encrypt("nope", toBytes("x"), rng_), util::DosnError);
  EXPECT_THROW(acl_->members("nope"), util::DosnError);
  EXPECT_THROW(acl_->history("nope"), util::DosnError);
  EXPECT_EQ(rng_.next(), untouched.next());
  // HybridAcl issues the user's ElGamal key before it looks the group up,
  // whatever its wrap; the other schemes look first.
  untouched = rng_;
  EXPECT_THROW(acl_->addMember("nope", "alice"), util::DosnError);
  const bool hybrid = GetParam() == Scheme::kHybridPk ||
                      GetParam() == Scheme::kHybridAbe ||
                      GetParam() == Scheme::kHybridIbbe;
  EXPECT_EQ(rng_.next() != untouched.next(), hybrid);
}

TEST_P(AclConformance, SerialsRiseByOnePerIssuedEnvelope) {
  acl_->createGroup("g1");
  acl_->createGroup("g2");
  acl_->addMember("g1", "alice");
  acl_->addMember("g2", "bob");
  std::vector<Envelope> issued;
  for (const char* group : {"g1", "g2", "g2", "g1"}) {
    issued.push_back(acl_->encrypt(group, toBytes("p"), rng_));
    EXPECT_EQ(issued.back().group, group);
  }
  for (std::size_t i = 0; i < issued.size(); ++i) {
    EXPECT_EQ(issued[i].serial, issued[0].serial + i);
    EXPECT_EQ(issued[i].scheme, acl_->schemeName());
  }
}

TEST_P(AclConformance, RevocationKeepsHistoryForRemainingMembers) {
  acl_->createGroup("g");
  for (const char* user : {"alice", "bob", "carol"}) acl_->addMember("g", user);
  std::vector<std::uint64_t> serials;
  for (int i = 0; i < 3; ++i) {
    serials.push_back(
        acl_->encrypt("g", toBytes("post " + std::to_string(i)), rng_).serial);
  }
  acl_->removeMember("g", "bob");
  const std::vector<Envelope> history = acl_->history("g");
  ASSERT_EQ(history.size(), serials.size());
  for (std::size_t i = 0; i < history.size(); ++i) {
    EXPECT_EQ(history[i].serial, serials[i]);
    for (const char* user : {"alice", "carol"}) {
      EXPECT_EQ(acl_->decrypt(user, history[i]).value(),
                toBytes("post " + std::to_string(i)))
          << user << " serial " << serials[i];
    }
  }
}

// Every output byte of one scripted session, hashed: the retained envelopes
// after a revocation (scheme, group, serial, blob), what each user decrypts
// from them, the revocation's report and the rng's next draw. A moved draw, a
// changed encoding or a changed serial changes the digest.
std::string scriptedSessionDigest(AccessController& acl, util::Rng& rng) {
  acl.createGroup("g");
  acl.createGroup("h");
  for (const char* user : {"alice", "bob", "carol"}) acl.addMember("g", user);
  acl.addMember("h", "dave");
  acl.encrypt("g", toBytes("post 1"), rng);
  acl.encrypt("h", toBytes("post 2"), rng);
  acl.encrypt("g", toBytes("post 3"), rng);
  const RevocationReport report = acl.removeMember("g", "bob");
  acl.encrypt("g", toBytes("post 4"), rng);
  util::Writer w;
  w.u64(report.reencryptedEnvelopes);
  w.u64(report.rewrittenBytes);
  w.u64(report.keyOperations);
  for (const Envelope& env : acl.history("g")) {
    w.str(env.scheme);
    w.str(env.group);
    w.u64(env.serial);
    w.bytes(env.blob);
    for (const char* user : {"alice", "bob", "carol", "dave"}) {
      const auto plain = acl.decrypt(user, env);
      w.u8(plain.has_value() ? 1 : 0);
      if (plain) w.bytes(*plain);
    }
  }
  w.u64(rng.next());
  return util::toHex(crypto::sha256(w.take()));
}

TEST_P(AclConformance, ScriptedSessionKnownAnswer) {
  const char* expected = "";
  switch (GetParam()) {
    case Scheme::kSymmetric:
      expected = "4607cf11a2ae4c5ff3efd09a72fdfae4fd554d63139de1f9a21a760bf5fe38ed";
      break;
    case Scheme::kPublicKey:
      expected = "d231eedc87ee03c87fbaa4fcfd75aed7c8af2e17068e5239419a403303072bf4";
      break;
    case Scheme::kAbe:
      expected = "c1866ec79c77bf2b78ceb005ae604e599070ce524b735ecaed035a6aa47c84a5";
      break;
    case Scheme::kIbbe:
      expected = "ceadc53670dd66b176de2582bb7ac0c0e2e248cbfee3ca98d85a85da485983f1";
      break;
    case Scheme::kHybridPk:
      expected = "dc6e7dc65e2b3f6a2f32ad946c55766a49a94e7ae8343660fdc35da51bb6217d";
      break;
    case Scheme::kHybridAbe:
      expected = "6c19a392a1dab32e4bf089c92a4bc45ccdce6ed3774b67a44a656ccdbaaa5521";
      break;
    case Scheme::kHybridIbbe:
      expected = "ebea8a40813181296cac238a70c2af5b66bd67953d65c425cc767ad459e46898";
      break;
  }
  EXPECT_EQ(scriptedSessionDigest(*acl_, rng_), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, AclConformance,
    ::testing::Values(Scheme::kSymmetric, Scheme::kPublicKey, Scheme::kAbe,
                      Scheme::kIbbe, Scheme::kHybridPk, Scheme::kHybridAbe,
                      Scheme::kHybridIbbe),
    [](const ::testing::TestParamInfo<Scheme>& info) {
      switch (info.param) {
        case Scheme::kSymmetric: return std::string("Symmetric");
        case Scheme::kPublicKey: return std::string("PublicKey");
        case Scheme::kAbe: return std::string("CpAbe");
        case Scheme::kIbbe: return std::string("Ibbe");
        case Scheme::kHybridPk: return std::string("HybridPk");
        case Scheme::kHybridAbe: return std::string("HybridAbe");
        case Scheme::kHybridIbbe: return std::string("HybridIbbe");
      }
      return std::string("Unknown");
    });

// ---------- Scheme-specific revocation semantics (the paper's §III claims) --

TEST(SymmetricAclTest, RevocationReencryptsWholeHistory) {
  util::Rng rng(1);
  SymmetricAcl acl(rng);
  acl.createGroup("g");
  acl.addMember("g", "alice");
  acl.addMember("g", "bob");
  for (int i = 0; i < 5; ++i) {
    acl.encrypt("g", toBytes("post " + std::to_string(i)), rng);
  }
  EXPECT_EQ(acl.keyEpoch("g"), 0u);
  const RevocationReport report = acl.removeMember("g", "bob");
  // "We need to create a new key and re-encrypt the whole data."
  EXPECT_EQ(report.reencryptedEnvelopes, 5u);
  EXPECT_GT(report.rewrittenBytes, 0u);
  EXPECT_EQ(report.keyOperations, 1u);  // alice gets the new key
  EXPECT_EQ(acl.keyEpoch("g"), 1u);
  // Alice still reads old posts (they were re-encrypted under her new key).
  // history() returns by value, so take a copy — a reference into the
  // temporary vector's element dangles once the full expression ends.
  const Envelope old = acl.history("g")[0];
  EXPECT_TRUE(acl.decrypt("alice", old).has_value());
  EXPECT_FALSE(acl.decrypt("bob", old).has_value());
}

TEST(PublicKeyAclTest, RevocationTouchesNothing) {
  util::Rng rng(2);
  PublicKeyAcl acl(testGroup(), rng);
  acl.createGroup("g");
  acl.addMember("g", "alice");
  acl.addMember("g", "bob");
  const Envelope before = acl.encrypt("g", toBytes("old"), rng);
  const RevocationReport report = acl.removeMember("g", "bob");
  // "His public key will be deleted from the list" — no re-encryption.
  EXPECT_EQ(report.reencryptedEnvelopes, 0u);
  // The paper's caveat: data bob could already decrypt stays decryptable.
  EXPECT_TRUE(acl.decrypt("bob", before).has_value());
  EXPECT_FALSE(acl.decrypt("bob", acl.encrypt("g", toBytes("new"), rng))
                   .has_value());
}

TEST(PublicKeyAclTest, EnvelopeGrowsWithMembers) {
  util::Rng rng(3);
  PublicKeyAcl acl(testGroup(), rng);
  acl.createGroup("small");
  acl.createGroup("large");
  acl.addMember("small", "u0");
  for (int i = 0; i < 8; ++i) acl.addMember("large", "u" + std::to_string(i));
  const auto small = acl.encrypt("small", toBytes("m"), rng);
  const auto large = acl.encrypt("large", toBytes("m"), rng);
  // §III-C: naive per-member encryption — blob scales with group size.
  EXPECT_GT(large.blob.size(), small.blob.size() * 6);
}

TEST(PublicKeyAclTest, TruncatedRecipientListOpensToNothing) {
  util::Rng rng(11);
  PublicKeyAcl acl(testGroup(), rng);
  acl.createGroup("g");
  acl.addMember("g", "alice");
  acl.addMember("g", "bob");  // bob's entry is the last in the list
  Envelope env = acl.encrypt("g", toBytes("p"), rng);
  const util::Bytes whole = env.blob;
  for (std::size_t len = 0; len < whole.size(); len += 7) {
    env.blob.assign(whole.begin(), whole.begin() + len);
    EXPECT_FALSE(acl.decrypt("bob", env).has_value()) << len;
  }
}

TEST(AbeAclTest, RevocationBumpsEpochAndReencrypts) {
  util::Rng rng(4);
  AbeAcl acl(testGroup(), rng);
  acl.createGroup("family");
  acl.addMember("family", "alice");
  acl.addMember("family", "bob");
  acl.encrypt("family", toBytes("p1"), rng);
  acl.encrypt("family", toBytes("p2"), rng);
  EXPECT_EQ(acl.attributeEpoch("family"), 0u);
  const RevocationReport report = acl.removeMember("family", "bob");
  // "Usual revocation methods for ABE use frequent re-keying ... previous
  // data ... must be encrypted and stored again."
  EXPECT_EQ(acl.attributeEpoch("family"), 1u);
  EXPECT_EQ(report.reencryptedEnvelopes, 2u);
  EXPECT_EQ(report.keyOperations, 1u);  // alice re-keyed
  EXPECT_TRUE(acl.decrypt("alice", acl.history("family")[0]).has_value());
  EXPECT_FALSE(acl.decrypt("bob", acl.history("family")[0]).has_value());
}

TEST(AbeAclTest, PolicyEnvelopeAcrossGroups) {
  util::Rng rng(5);
  AbeAcl acl(testGroup(), rng);
  acl.createGroup("relative");
  acl.createGroup("doctor");
  acl.createGroup("painter");
  acl.addMember("relative", "alice");
  acl.addMember("doctor", "alice");
  acl.addMember("painter", "paula");
  acl.addMember("relative", "rita");

  const auto p = *policy::Policy::parse("(relative AND doctor) OR painter");
  const Envelope env = acl.encryptWithPolicy(p, toBytes("the scan"), rng);
  EXPECT_TRUE(acl.decrypt("alice", env).has_value());   // relative AND doctor
  EXPECT_TRUE(acl.decrypt("paula", env).has_value());   // painter
  EXPECT_FALSE(acl.decrypt("rita", env).has_value());   // relative only
}

TEST(IbbeAclTest, RevocationIsFree) {
  util::Rng rng(6);
  IbbeAcl acl(testGroup(), rng);
  acl.createGroup("g");
  acl.addMember("g", "alice");
  acl.addMember("g", "bob");
  acl.encrypt("g", toBytes("p1"), rng);
  const RevocationReport report = acl.removeMember("g", "bob");
  // "Removing a recipient from the list would then have no extra cost."
  EXPECT_EQ(report.reencryptedEnvelopes, 0u);
  EXPECT_EQ(report.keyOperations, 0u);
  EXPECT_EQ(report.rewrittenBytes, 0u);
}

class HybridAclTest : public ::testing::TestWithParam<WrapScheme> {};

TEST_P(HybridAclTest, RevocationRewrapsHistory) {
  util::Rng rng(7);
  HybridAcl acl(testGroup(), rng, GetParam());
  acl.createGroup("g");
  acl.addMember("g", "alice");
  acl.addMember("g", "bob");
  acl.encrypt("g", toBytes("p1"), rng);
  acl.encrypt("g", toBytes("p2"), rng);
  // Bob reads twice before his revocation, so (for pk and IBBE) the second
  // read is served from the unwrap memo.
  const Envelope before = acl.history("g")[0];
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(acl.decrypt("bob", before).value(), toBytes("p1"));
  }
  const RevocationReport report = acl.removeMember("g", "bob");
  EXPECT_EQ(report.reencryptedEnvelopes, 2u);
  EXPECT_EQ(acl.decrypt("alice", acl.history("g")[0]).value(), toBytes("p1"));
  EXPECT_FALSE(acl.decrypt("bob", acl.history("g")[0]).has_value());
  // The copy bob kept resolves to the rewrapped envelope by serial.
  EXPECT_FALSE(acl.decrypt("bob", before).has_value());
}

// The owner re-keys its history with the data keys it kept, whoever the
// remaining members are: here the only recipient of the post is the member
// revoked, so no remaining member's key opens it.
TEST_P(HybridAclTest, RevocationRekeysPostsNoRemainingMemberCouldOpen) {
  util::Rng rng(11);
  HybridAcl acl(testGroup(), rng, GetParam());
  acl.createGroup("g");
  acl.addMember("g", "alice");
  acl.encrypt("g", toBytes("p1"), rng);
  acl.addMember("g", "bob");
  const RevocationReport report = acl.removeMember("g", "alice");
  EXPECT_EQ(report.reencryptedEnvelopes, 1u);
  EXPECT_EQ(acl.decrypt("bob", acl.history("g")[0]).value(), toBytes("p1"));
  EXPECT_FALSE(acl.decrypt("alice", acl.history("g")[0]).has_value());
}

// A group that empties rewraps nothing; refilled, its next revocation
// re-keys the history for whoever remains.
TEST_P(HybridAclTest, EmptiedAndRefilledGroupRekeysHistory) {
  util::Rng rng(12);
  HybridAcl acl(testGroup(), rng, GetParam());
  acl.createGroup("g");
  acl.addMember("g", "alice");
  acl.encrypt("g", toBytes("p1"), rng);
  const util::Bytes sealed = acl.history("g")[0].blob;
  EXPECT_EQ(acl.removeMember("g", "alice").reencryptedEnvelopes, 0u);
  EXPECT_EQ(acl.history("g")[0].blob, sealed);
  acl.addMember("g", "bob");
  acl.addMember("g", "carol");
  const RevocationReport report = acl.removeMember("g", "bob");
  EXPECT_EQ(report.reencryptedEnvelopes, 1u);
  EXPECT_EQ(acl.decrypt("carol", acl.history("g")[0]).value(), toBytes("p1"));
  EXPECT_FALSE(acl.decrypt("bob", acl.history("g")[0]).has_value());
}

// A decrypt of a retained serial reads the wrap digest kept beside the
// envelope; an envelope no group retains has its wrap hashed. Both give the
// same answers, first from the wrap and then from the unwrap memo, before
// and after a revocation rewraps the retained copy.
TEST_P(HybridAclTest, ForeignCopyDecryptsLikeTheRetainedEnvelope) {
  util::Rng rng(13);
  HybridAcl acl(testGroup(), rng, GetParam());
  acl.createGroup("g");
  acl.addMember("g", "alice");
  acl.addMember("g", "bob");
  const Envelope retained = acl.encrypt("g", toBytes("p1"), rng);
  Envelope foreign = retained;
  foreign.serial += 1000;  // retained by no group
  for (int round = 0; round < 2; ++round) {
    for (const Envelope& env : {retained, foreign}) {
      EXPECT_EQ(acl.decrypt("alice", env).value(), toBytes("p1"));
      EXPECT_EQ(acl.decrypt("bob", env).value(), toBytes("p1"));
      EXPECT_FALSE(acl.decrypt("carol", env).has_value());
    }
  }
  acl.removeMember("g", "bob");
  Envelope rewrapped = acl.history("g")[0];
  rewrapped.serial += 1000;
  for (int round = 0; round < 2; ++round) {
    for (const Envelope& env : {retained, rewrapped}) {
      EXPECT_EQ(acl.decrypt("alice", env).value(), toBytes("p1"));
      EXPECT_FALSE(acl.decrypt("bob", env).has_value());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Wraps, HybridAclTest,
    ::testing::Values(WrapScheme::kPublicKey, WrapScheme::kCpAbe,
                      WrapScheme::kIbbe),
    [](const ::testing::TestParamInfo<WrapScheme>& info) {
      switch (info.param) {
        case WrapScheme::kPublicKey: return std::string("Pk");
        case WrapScheme::kCpAbe: return std::string("CpAbe");
        case WrapScheme::kIbbe: return std::string("Ibbe");
      }
      return std::string("Unknown");
    });

// Pinned bytes of one hybrid-IBBE envelope as published and after a
// revocation rewraps it: the RNG draws, their order and the encoding must
// not move.
TEST(HybridAclTest, IbbeEnvelopeKnownAnswer) {
  util::Rng rng(9);
  HybridAcl acl(testGroup(), rng, WrapScheme::kIbbe);
  acl.createGroup("g");
  for (const char* user : {"alice", "bob", "carol"}) acl.addMember("g", user);
  acl.encrypt("g", toBytes("p1"), rng);
  const auto digest = [&acl] {
    return util::toHex(crypto::sha256(acl.history("g")[0].blob));
  };
  EXPECT_EQ(digest(),
            "ef2ff87afb84f66d63897c686909f6f7b11b851410799b6afc1b925431d624c7");
  acl.removeMember("g", "bob");
  EXPECT_EQ(digest(),
            "5fcfac0db00b0d32257e859df53b5292154f47dbb34fd84e0104bca48443ad01");
}

// A copy of an IBBE-wrapping ACL owns its identity directory: it keeps
// encrypting to old and new members after the original is destroyed.
template <typename Acl>
void expectCopyOutlivesOriginal(std::unique_ptr<Acl> original,
                                util::Rng& rng) {
  original->createGroup("g");
  original->addMember("g", "alice");
  original->encrypt("g", toBytes("p1"), rng);  // builds alice's table
  Acl copy = *original;
  original.reset();
  copy.addMember("g", "bob");
  const Envelope env = copy.encrypt("g", toBytes("p2"), rng);
  EXPECT_EQ(copy.decrypt("alice", env).value(), toBytes("p2"));
  EXPECT_EQ(copy.decrypt("bob", env).value(), toBytes("p2"));
}

TEST(IbbeDirectoryTest, CopiedAclOutlivesOriginal) {
  util::Rng rng(10);
  expectCopyOutlivesOriginal(
      std::make_unique<HybridAcl>(testGroup(), rng, WrapScheme::kIbbe), rng);
  expectCopyOutlivesOriginal(std::make_unique<IbbeAcl>(testGroup(), rng), rng);
}

TEST(HybridAclTest, WrapIsSmallComparedToNaivePk) {
  util::Rng rng(8);
  PublicKeyAcl naive(testGroup(), rng);
  HybridAcl hybrid(testGroup(), rng, WrapScheme::kPublicKey);
  for (auto* acl : std::initializer_list<AccessController*>{&naive, &hybrid}) {
    acl->createGroup("g");
    for (int i = 0; i < 6; ++i) acl->addMember("g", "u" + std::to_string(i));
  }
  const util::Bytes bigPayload(8000, 0x5a);
  const auto naiveEnv = naive.encrypt("g", bigPayload, rng);
  const auto hybridEnv = hybrid.encrypt("g", bigPayload, rng);
  // §III-F: hybrid seals the payload once; naive PK encrypts it per member.
  EXPECT_LT(hybridEnv.blob.size(), naiveEnv.blob.size() / 3);
  EXPECT_EQ(hybrid.decrypt("u3", hybridEnv).value(), bigPayload);
}

// ---------- PAD ----------

TEST(PadTest, InsertFindRemove) {
  Pad pad;
  EXPECT_EQ(pad.size(), 0u);
  Pad v1 = pad.insert("alice", toBytes("rw"));
  Pad v2 = v1.insert("bob", toBytes("r"));
  EXPECT_EQ(v2.size(), 2u);
  EXPECT_EQ(v2.find("alice").value(), toBytes("rw"));
  EXPECT_EQ(v2.find("bob").value(), toBytes("r"));
  EXPECT_FALSE(v2.find("carol").has_value());
  Pad v3 = v2.remove("alice");
  EXPECT_FALSE(v3.find("alice").has_value());
  EXPECT_EQ(v3.size(), 1u);
  // Removing a missing key is a no-op.
  EXPECT_EQ(v3.remove("ghost").size(), 1u);
}

TEST(PadTest, PersistenceOldVersionsIntact) {
  Pad v1 = Pad().insert("a", toBytes("1"));
  Pad v2 = v1.insert("b", toBytes("2"));
  Pad v3 = v2.remove("a");
  // Every version remains readable.
  EXPECT_TRUE(v1.find("a").has_value());
  EXPECT_FALSE(v1.find("b").has_value());
  EXPECT_TRUE(v2.find("a").has_value());
  EXPECT_TRUE(v2.find("b").has_value());
  EXPECT_FALSE(v3.find("a").has_value());
  // Roots differ across versions.
  EXPECT_NE(v1.rootHash(), v2.rootHash());
  EXPECT_NE(v2.rootHash(), v3.rootHash());
}

TEST(PadTest, UpdateOverwritesValue) {
  Pad v1 = Pad().insert("k", toBytes("old"));
  Pad v2 = v1.insert("k", toBytes("new"));
  EXPECT_EQ(v2.size(), 1u);
  EXPECT_EQ(v2.find("k").value(), toBytes("new"));
  EXPECT_EQ(v1.find("k").value(), toBytes("old"));
}

TEST(PadTest, DeterministicRoot) {
  // Same contents, different insertion orders: the treap shape is determined
  // by key priorities, so roots must agree.
  Pad a = Pad().insert("x", toBytes("1")).insert("y", toBytes("2")).insert("z", toBytes("3"));
  Pad b = Pad().insert("z", toBytes("3")).insert("x", toBytes("1")).insert("y", toBytes("2"));
  EXPECT_EQ(a.rootHash(), b.rootHash());
}

TEST(PadTest, ProofsVerify) {
  Pad pad;
  for (int i = 0; i < 30; ++i) {
    pad = pad.insert("user" + std::to_string(i), toBytes("perm" + std::to_string(i)));
  }
  for (int i = 0; i < 30; ++i) {
    const std::string key = "user" + std::to_string(i);
    const auto proof = pad.prove(key);
    ASSERT_TRUE(proof.has_value()) << key;
    EXPECT_TRUE(Pad::verify(pad.rootHash(), key, *proof)) << key;
  }
  EXPECT_FALSE(pad.prove("nonmember").has_value());
}

TEST(PadTest, TamperedProofRejected) {
  Pad pad = Pad().insert("a", toBytes("1")).insert("b", toBytes("2")).insert("c", toBytes("3"));
  auto proof = *pad.prove("b");
  proof.value = toBytes("forged");
  EXPECT_FALSE(Pad::verify(pad.rootHash(), "b", proof));
  // Proof against a different version's root also fails.
  const Pad newer = pad.insert("d", toBytes("4"));
  EXPECT_FALSE(Pad::verify(newer.rootHash(), "b", *pad.prove("b")));
  EXPECT_TRUE(Pad::verify(newer.rootHash(), "b", *newer.prove("b")));
}

TEST(PadTest, HeightIsLogarithmic) {
  Pad pad;
  const std::size_t n = 1000;
  for (std::size_t i = 0; i < n; ++i) {
    pad = pad.insert("member" + std::to_string(i), toBytes("x"));
  }
  EXPECT_EQ(pad.size(), n);
  // Treap height is O(log n) w.h.p.: ~ 3*log2(1000) = 30 as a loose bound.
  EXPECT_LT(pad.height(), 40u);
  EXPECT_GE(pad.height(), 10u);  // log2(1000)
}

// ---------- Substitution ----------

TEST(Substitution, ProviderSeesFakeFriendSeesReal) {
  FakeProfileService service;
  social::Profile real{"alice", {{"city", "Istanbul"}}};
  social::Profile fake{"alice", {{"city", "Atlantis"}}};
  service.publish("alice", real, fake, {"bob"});
  EXPECT_EQ(service.providerView("alice")->fields.at("city"), "Atlantis");
  EXPECT_EQ(service.view("bob", "alice")->fields.at("city"), "Istanbul");
  EXPECT_EQ(service.view("eve", "alice")->fields.at("city"), "Atlantis");
  EXPECT_FALSE(service.providerView("ghost").has_value());
}

TEST(Substitution, NoybRoundTrip) {
  AtomDictionary dict;
  dict.defineClass("first-name", {"Ada", "Bela", "Cem", "Deniz", "Efe"});
  util::Rng rng(11);
  const util::Bytes key = rng.bytes(32);
  const auto stored = dict.substitute(key, "first-name", "Cem");
  ASSERT_TRUE(stored.has_value());
  // The provider-visible atom is a plausible dictionary member...
  EXPECT_TRUE(dict.indexOf("first-name", *stored).has_value());
  // ...and key holders invert it.
  EXPECT_EQ(dict.recover(key, "first-name", *stored).value(), "Cem");
}

TEST(Substitution, NoybWrongKeyGivesWrongAtom) {
  AtomDictionary dict;
  dict.defineClass("city", {"Ankara", "Berlin", "Cairo", "Delhi", "Espoo",
                            "Fes", "Graz"});
  util::Rng rng(12);
  const util::Bytes key1 = rng.bytes(32);
  const util::Bytes key2 = rng.bytes(32);
  const auto stored = dict.substitute(key1, "city", "Cairo");
  ASSERT_TRUE(stored.has_value());
  const auto recovered = dict.recover(key2, "city", *stored);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_NE(*recovered, "Cairo");
}

TEST(Substitution, NoybAllAtomsRoundTrip) {
  AtomDictionary dict;
  std::vector<std::string> atoms;
  for (int i = 0; i < 17; ++i) atoms.push_back("atom" + std::to_string(i));
  dict.defineClass("c", atoms);
  util::Rng rng(13);
  const util::Bytes key = rng.bytes(32);
  for (const std::string& atom : atoms) {
    const auto stored = dict.substitute(key, "c", atom);
    ASSERT_TRUE(stored.has_value());
    EXPECT_EQ(dict.recover(key, "c", *stored).value(), atom);
  }
}

TEST(Substitution, UnknownClassOrAtom) {
  AtomDictionary dict;
  dict.defineClass("c", {"a", "b"});
  util::Rng rng(14);
  const util::Bytes key = rng.bytes(32);
  EXPECT_FALSE(dict.substitute(key, "missing", "a").has_value());
  EXPECT_FALSE(dict.substitute(key, "c", "zz").has_value());
  EXPECT_EQ(dict.classSize("missing"), 0u);
}

}  // namespace
}  // namespace dosn::privacy

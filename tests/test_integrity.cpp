// Tests for the §IV integrity mechanisms, organized around the paper's party-
// invitation scenario: owner/content integrity, historical integrity (chains,
// entanglement, history trees, fork detection) and relation integrity.
#include <gtest/gtest.h>

#include "dosn/integrity/entanglement.hpp"
#include "dosn/integrity/fork_consistency.hpp"
#include "dosn/integrity/hash_chain.hpp"
#include "dosn/integrity/history_tree.hpp"
#include "dosn/integrity/relation.hpp"
#include "dosn/integrity/signed_post.hpp"
#include "dosn/util/codec.hpp"

namespace dosn::integrity {
namespace {

using social::Keyring;
using util::toBytes;

const pkcrypto::DlogGroup& testGroup() {
  return pkcrypto::DlogGroup::cached(256);
}

class IntegrityTest : public ::testing::Test {
 protected:
  IntegrityTest() {
    bob_ = social::createKeyring(testGroup(), "bob", rng_);
    alice_ = social::createKeyring(testGroup(), "alice", rng_);
    mallory_ = social::createKeyring(testGroup(), "mallory", rng_);
    registry_.registerIdentity(social::publicIdentity(bob_));
    registry_.registerIdentity(social::publicIdentity(alice_));
    registry_.registerIdentity(social::publicIdentity(mallory_));
  }

  // A reader's cursor after verifying the first k entries of bob's chain.
  ChainCursor cursorOver(const std::vector<ChainEntry>& honest,
                         std::size_t k) const {
    ChainCursor cursor;
    EXPECT_TRUE(verifyChain(prepared(bob_.signing.pub),
                            {honest.begin(), honest.begin() + k}, cursor));
    return cursor;
  }

  // The publisher key the cursor form of verifyChain takes.
  static pkcrypto::SchnorrVerifyingKey prepared(
      const pkcrypto::SchnorrPublicKey& key) {
    return pkcrypto::SchnorrVerifyingKey(testGroup(), key);
  }

  static bool sameCursor(const ChainCursor& a, const ChainCursor& b) {
    return a.key.y == b.key.y && a.length == b.length && a.head == b.head;
  }

  // The cursor form must give the three-argument verdict on (key, entries)
  // from a cursor over every prefix of the honest chain, and a rejection
  // must leave the cursor as it was.
  void expectCursorVerdicts(const std::vector<ChainEntry>& honest,
                            const pkcrypto::SchnorrPublicKey& key,
                            const std::vector<ChainEntry>& entries) {
    const bool expected = verifyChain(testGroup(), key, entries);
    for (std::size_t k = 0; k <= honest.size(); ++k) {
      ChainCursor cursor = cursorOver(honest, k);
      const ChainCursor before = cursor;
      EXPECT_EQ(verifyChain(prepared(key), entries, cursor), expected)
          << "cursor over " << k << " entries";
      if (!expected) {
        EXPECT_TRUE(sameCursor(cursor, before)) << k;
      }
    }
  }

  // Re-links entries[from..] and re-signs them with `signer`: how a
  // publisher would fork its own chain at `from`.
  void relink(std::vector<ChainEntry>& entries, std::size_t from,
              const Keyring& signer) {
    for (std::size_t i = from; i < entries.size(); ++i) {
      entries[i].prev = i == 0 ? crypto::Digest{} : entries[i - 1].entryHash();
      entries[i].signature = pkcrypto::schnorrSign(
          testGroup(), signer.signing, entries[i].signedBytes(), rng_);
    }
  }

  // Bob's `entries` with entry j signed by mallory instead and every later
  // entry re-linked: structurally sound, one bad signature.
  std::vector<ChainEntry> withBadSignatureAt(std::vector<ChainEntry> entries,
                                             std::size_t j) {
    entries[j].signature = pkcrypto::schnorrSign(
        testGroup(), mallory_.signing, entries[j].signedBytes(), rng_);
    relink(entries, j + 1, bob_);
    return entries;
  }

  util::Rng rng_{42};
  social::IdentityRegistry registry_;
  Keyring bob_;
  Keyring alice_;
  Keyring mallory_;
};

// --- Owner + content integrity (§IV-A) ---

TEST_F(IntegrityTest, AliceVerifiesBobsInvitation) {
  social::Post invitation{"bob", 1, 100,
                          "Come to my party held at my home on Friday"};
  const SignedPost sp = signPost(testGroup(), bob_, invitation, rng_);
  EXPECT_TRUE(verifyPost(testGroup(), registry_, sp));
}

TEST_F(IntegrityTest, ForgedSenderDetected) {
  // Mallory forges an invitation claiming to be from Bob: she can only sign
  // with her own key, and the registry lookup for "bob" exposes her.
  social::Post forged{"bob", 2, 100, "Party at my place, bring gifts"};
  SignedPost sp;
  sp.post = forged;
  sp.signature =
      pkcrypto::schnorrSign(testGroup(), mallory_.signing, forged.serialize(), rng_);
  EXPECT_FALSE(verifyPost(testGroup(), registry_, sp));
  // signPost itself refuses to sign someone else's authorship.
  EXPECT_THROW(signPost(testGroup(), mallory_, forged, rng_), util::DosnError);
}

TEST_F(IntegrityTest, TamperedContentDetected) {
  social::Post invitation{"bob", 1, 100, "Party on Friday"};
  SignedPost sp = signPost(testGroup(), bob_, invitation, rng_);
  sp.post.text = "Party on Saturday";  // tampered in transit
  EXPECT_FALSE(verifyPost(testGroup(), registry_, sp));
}

TEST_F(IntegrityTest, UnknownAuthorRejected) {
  social::Post post{"stranger", 1, 1, "hi"};
  SignedPost sp;
  sp.post = post;
  sp.signature =
      pkcrypto::schnorrSign(testGroup(), bob_.signing, post.serialize(), rng_);
  EXPECT_FALSE(verifyPost(testGroup(), registry_, sp));
}

TEST_F(IntegrityTest, SignedPostSerializationRoundTrip) {
  social::Post post{"bob", 3, 50, "hello"};
  const SignedPost sp = signPost(testGroup(), bob_, post, rng_);
  const auto back = SignedPost::deserialize(sp.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(verifyPost(testGroup(), registry_, *back));
  EXPECT_FALSE(SignedPost::deserialize(toBytes("junk")).has_value());
}

// --- Historical integrity: hash chains (§IV-B) ---

TEST_F(IntegrityTest, ChainVerifies) {
  Timeline timeline(testGroup(), bob_);
  for (int i = 0; i < 5; ++i) {
    timeline.append(toBytes("post " + std::to_string(i)), rng_);
  }
  EXPECT_TRUE(verifyChain(testGroup(), bob_.signing.pub, timeline.entries()));
}

TEST_F(IntegrityTest, TamperedEntryBreaksChain) {
  Timeline timeline(testGroup(), bob_);
  for (int i = 0; i < 4; ++i) timeline.append(toBytes("p"), rng_);
  auto entries = timeline.entries();
  entries[1].payload = toBytes("tampered");
  EXPECT_FALSE(verifyChain(testGroup(), bob_.signing.pub, entries));
  expectCursorVerdicts(timeline.entries(), bob_.signing.pub, entries);
}

TEST_F(IntegrityTest, ReorderedEntriesBreakChain) {
  Timeline timeline(testGroup(), bob_);
  for (int i = 0; i < 4; ++i) timeline.append(toBytes("p" + std::to_string(i)), rng_);
  auto entries = timeline.entries();
  std::swap(entries[1], entries[2]);
  EXPECT_FALSE(verifyChain(testGroup(), bob_.signing.pub, entries));
  expectCursorVerdicts(timeline.entries(), bob_.signing.pub, entries);
}

TEST_F(IntegrityTest, DroppedInteriorEntryDetected) {
  Timeline timeline(testGroup(), bob_);
  for (int i = 0; i < 4; ++i) timeline.append(toBytes("p"), rng_);
  auto entries = timeline.entries();
  entries.erase(entries.begin() + 1);
  EXPECT_FALSE(verifyChain(testGroup(), bob_.signing.pub, entries));
  expectCursorVerdicts(timeline.entries(), bob_.signing.pub, entries);
}

TEST_F(IntegrityTest, TruncationFromTailNotDetectedByChainAlone) {
  // A known limitation the paper's fork-consistency section addresses:
  // dropping the newest entries still yields a valid (shorter) chain.
  Timeline timeline(testGroup(), bob_);
  for (int i = 0; i < 4; ++i) timeline.append(toBytes("p"), rng_);
  auto entries = timeline.entries();
  entries.pop_back();
  EXPECT_TRUE(verifyChain(testGroup(), bob_.signing.pub, entries));
}

TEST_F(IntegrityTest, WrongPublisherKeyFails) {
  Timeline timeline(testGroup(), bob_);
  timeline.append(toBytes("p"), rng_);
  EXPECT_FALSE(verifyChain(testGroup(), alice_.signing.pub, timeline.entries()));
  expectCursorVerdicts(timeline.entries(), alice_.signing.pub,
                       timeline.entries());
}

// --- Resuming verification from a reader's ChainCursor ---

TEST_F(IntegrityTest, CursorResumesAndAdvances) {
  Timeline timeline(testGroup(), bob_);
  for (int i = 0; i < 6; ++i) timeline.append(toBytes("p"), rng_);
  const auto& honest = timeline.entries();
  for (std::size_t k = 0; k <= honest.size(); ++k) {
    ChainCursor cursor = cursorOver(honest, k);
    EXPECT_EQ(cursor.length, k);
    ASSERT_TRUE(verifyChain(prepared(bob_.signing.pub), honest, cursor));
    EXPECT_EQ(cursor.length, honest.size());
    EXPECT_EQ(cursor.head, timeline.head());
    EXPECT_EQ(cursor.key.y, bob_.signing.pub.y);
  }
}

TEST_F(IntegrityTest, BadSignatureRejectedFromEveryCursor) {
  // Past the cursor the signature is checked; inside it, the bad entry no
  // longer hashes to the cursor's head.
  Timeline timeline(testGroup(), bob_);
  for (int i = 0; i < 5; ++i) timeline.append(toBytes("p"), rng_);
  for (std::size_t j = 0; j < timeline.size(); ++j) {
    const auto bad = withBadSignatureAt(timeline.entries(), j);
    EXPECT_FALSE(verifyChain(testGroup(), bob_.signing.pub, bad)) << j;
    expectCursorVerdicts(timeline.entries(), bob_.signing.pub, bad);
  }
}

TEST_F(IntegrityTest, ForkAtCursorHeadReverifiesEverySignature) {
  Timeline timeline(testGroup(), bob_);
  for (int i = 0; i < 5; ++i) {
    timeline.append(toBytes("p" + std::to_string(i)), rng_);
  }
  const auto& honest = timeline.entries();
  constexpr std::size_t kCursor = 3;
  // Bob equivocates: the same first two entries, another entry 2, and a
  // chain continuing from it. Validly signed, so it verifies, and the
  // cursor follows it.
  auto fork = honest;
  fork[kCursor - 1].payload = toBytes("fork");
  relink(fork, kCursor - 1, bob_);
  ChainCursor cursor = cursorOver(honest, kCursor);
  EXPECT_TRUE(verifyChain(prepared(bob_.signing.pub), fork, cursor));
  EXPECT_EQ(cursor.length, fork.size());
  EXPECT_EQ(cursor.head, fork.back().entryHash());
  for (std::size_t j = 0; j < fork.size(); ++j) {
    const auto bad = withBadSignatureAt(fork, j);
    EXPECT_FALSE(verifyChain(testGroup(), bob_.signing.pub, bad)) << j;
    expectCursorVerdicts(honest, bob_.signing.pub, bad);
  }
}

TEST_F(IntegrityTest, ChainShorterThanCursorReverifiesEverySignature) {
  Timeline timeline(testGroup(), bob_);
  for (int i = 0; i < 6; ++i) timeline.append(toBytes("p"), rng_);
  const auto& honest = timeline.entries();
  const std::vector<ChainEntry> shorter(honest.begin(), honest.begin() + 4);
  ChainCursor cursor = cursorOver(honest, honest.size());
  const ChainCursor before = cursor;
  EXPECT_TRUE(verifyChain(prepared(bob_.signing.pub), shorter, cursor));
  EXPECT_TRUE(sameCursor(cursor, before));  // never moves to a shorter chain
  for (std::size_t j = 0; j < shorter.size(); ++j) {
    const auto bad = withBadSignatureAt(shorter, j);
    EXPECT_FALSE(verifyChain(testGroup(), bob_.signing.pub, bad)) << j;
    expectCursorVerdicts(honest, bob_.signing.pub, bad);
  }
}

TEST_F(IntegrityTest, CursorUnderAnotherKeyGivesNoTrust) {
  Timeline bobs(testGroup(), bob_);
  for (int i = 0; i < 3; ++i) bobs.append(toBytes("p"), rng_);
  ChainCursor cursor = cursorOver(bobs.entries(), bobs.size());
  const ChainCursor before = cursor;
  // Bob's chain pins the cursor's head, but not under alice's key.
  EXPECT_FALSE(
      verifyChain(prepared(alice_.signing.pub), bobs.entries(), cursor));
  EXPECT_TRUE(sameCursor(cursor, before));
  // Alice's own chain replaces it, although shorter: under her key the old
  // cursor vouches for nothing.
  Timeline alices(testGroup(), alice_);
  alices.append(toBytes("a"), rng_);
  EXPECT_TRUE(
      verifyChain(prepared(alice_.signing.pub), alices.entries(), cursor));
  EXPECT_EQ(cursor.key.y, alice_.signing.pub.y);
  EXPECT_EQ(cursor.length, 1u);
  EXPECT_EQ(cursor.head, alices.head());
}

TEST_F(IntegrityTest, ChainEntrySerializationRoundTrip) {
  Timeline timeline(testGroup(), bob_);
  const ChainEntry& entry = timeline.append(toBytes("data"), rng_);
  const auto back = ChainEntry::deserialize(entry.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->entryHash(), entry.entryHash());
  EXPECT_EQ(back->serialize(), entry.serialize());
}

// The entry hash streams signedBytes() || signature.serialize() into one
// SHA-256; it is the digest of those bytes assembled.
TEST_F(IntegrityTest, EntryHashIsDigestOfSignedBytesAndSignature) {
  Timeline timeline(testGroup(), bob_);
  timeline.append(toBytes("first"), rng_);
  const ChainEntry& entry = timeline.append(toBytes("second"), rng_);
  util::Bytes assembled = entry.signedBytes();
  const util::Bytes sig = entry.signature.serialize();
  assembled.insert(assembled.end(), sig.begin(), sig.end());
  EXPECT_EQ(entry.entryHash(), crypto::sha256(assembled));
}

// Parsing reads the signature through a view of the input: every proper
// prefix of a valid encoding is rejected.
TEST_F(IntegrityTest, ChainEntryRejectsEveryTruncation) {
  Timeline timeline(testGroup(), bob_);
  const util::Bytes encoded =
      timeline.append(toBytes("data"), rng_).serialize();
  for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
    EXPECT_FALSE(
        ChainEntry::deserialize(util::BytesView(encoded).first(cut)).has_value())
        << "cut=" << cut;
  }
}

// --- Expired-invitation freshness via the chain (the scenario's "is this
// invitation valid for an upcoming event?") ---

TEST_F(IntegrityTest, FreshnessProvableViaChainPosition) {
  Timeline timeline(testGroup(), bob_);
  timeline.append(toBytes("invitation: party friday week 1"), rng_);
  timeline.append(toBytes("cancellation: week 1 party off"), rng_);
  timeline.append(toBytes("invitation: party friday week 2"), rng_);
  ASSERT_TRUE(verifyChain(testGroup(), bob_.signing.pub, timeline.entries()));
  // The cancellation provably follows the first invitation.
  EXPECT_TRUE(provablyPrecedes(timeline.entries(), 0, 1));
  EXPECT_FALSE(provablyPrecedes(timeline.entries(), 1, 0));
  EXPECT_TRUE(provablyPrecedes(timeline.entries(), 0, 2));
  EXPECT_FALSE(provablyPrecedes(timeline.entries(), 1, 1));
  EXPECT_FALSE(provablyPrecedes(timeline.entries(), 0, 3));
}

// provablyPrecedes walks the prev links from j back to i: a tampered entry
// between them breaks the proof, one outside the range does not.
TEST_F(IntegrityTest, ProvablyPrecedesChecksEveryLinkBetween) {
  Timeline timeline(testGroup(), bob_);
  for (int i = 0; i < 5; ++i) {
    timeline.append(toBytes("post " + std::to_string(i)), rng_);
  }
  std::vector<ChainEntry> entries = timeline.entries();
  ASSERT_TRUE(provablyPrecedes(entries, 1, 3));
  entries[2].payload = toBytes("rewritten");
  EXPECT_FALSE(provablyPrecedes(entries, 1, 3));
  EXPECT_FALSE(provablyPrecedes(entries, 0, 4));
  EXPECT_TRUE(provablyPrecedes(entries, 0, 2));  // links 1->0 and 2->1 hold
  EXPECT_TRUE(provablyPrecedes(entries, 3, 4));
  // A swapped pair breaks the links on both sides.
  entries = timeline.entries();
  std::swap(entries[1], entries[2]);
  EXPECT_FALSE(provablyPrecedes(entries, 0, 1));
  EXPECT_FALSE(provablyPrecedes(entries, 1, 2));
}

// --- Cross-timeline entanglement (§IV-B) ---

TEST_F(IntegrityTest, EntanglementEstablishesCrossUserOrder) {
  EntangledTimeline bobLine(testGroup(), bob_);
  EntangledTimeline aliceLine(testGroup(), alice_);

  const crypto::Digest bobPost =
      bobLine.append(toBytes("party friday!"), {}, rng_).entryHash();
  // Alice replies, entangling with Bob's head.
  const crypto::Digest aliceReply =
      aliceLine.append(toBytes("i'll be there"), {{"bob", bobLine.head()}}, rng_)
          .entryHash();
  // Bob posts again, entangling with Alice.
  const crypto::Digest bobFollowup =
      bobLine
          .append(toBytes("great, see you"), {{"alice", aliceLine.head()}}, rng_)
          .entryHash();

  ASSERT_TRUE(verifyEntangledChain(testGroup(), bob_.signing.pub, bobLine.entries()));
  ASSERT_TRUE(
      verifyEntangledChain(testGroup(), alice_.signing.pub, aliceLine.entries()));

  OrderOracle oracle({&bobLine, &aliceLine});
  EXPECT_TRUE(oracle.happenedBefore(bobPost, aliceReply));
  EXPECT_TRUE(oracle.happenedBefore(aliceReply, bobFollowup));
  // Transitivity across users.
  EXPECT_TRUE(oracle.happenedBefore(bobPost, bobFollowup));
  EXPECT_FALSE(oracle.happenedBefore(aliceReply, bobPost));
}

TEST_F(IntegrityTest, UnentangledEntriesAreConcurrent) {
  EntangledTimeline bobLine(testGroup(), bob_);
  EntangledTimeline aliceLine(testGroup(), alice_);
  const auto& b = bobLine.append(toBytes("x"), {}, rng_);
  const auto& a = aliceLine.append(toBytes("y"), {}, rng_);
  OrderOracle oracle({&bobLine, &aliceLine});
  EXPECT_TRUE(oracle.concurrent(a.entryHash(), b.entryHash()));
}

TEST_F(IntegrityTest, TamperedEntangledChainFails) {
  EntangledTimeline bobLine(testGroup(), bob_);
  bobLine.append(toBytes("a"), {}, rng_);
  bobLine.append(toBytes("b"), {}, rng_);
  auto entries = bobLine.entries();
  entries[0].references.push_back({"alice", crypto::sha256(toBytes("fake"))});
  EXPECT_FALSE(verifyEntangledChain(testGroup(), bob_.signing.pub, entries));
}

// --- History tree + signed roots (§IV-B Frientegrity) ---

TEST_F(IntegrityTest, HistoryTreeMembershipProofs) {
  HistoryTree tree;
  for (int i = 0; i < 10; ++i) tree.append(toBytes("op" + std::to_string(i)));
  const crypto::Digest root = tree.root();
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto proof = tree.prove(i, 10);
    ASSERT_TRUE(proof.has_value());
    EXPECT_TRUE(HistoryTree::verifyMembership(root, *proof));
  }
  // Proof against an older version's root.
  const crypto::Digest oldRoot = tree.rootAt(5);
  const auto oldProof = tree.prove(2, 5);
  ASSERT_TRUE(oldProof.has_value());
  EXPECT_TRUE(HistoryTree::verifyMembership(oldRoot, *oldProof));
  EXPECT_FALSE(HistoryTree::verifyMembership(root, *oldProof));
}

TEST_F(IntegrityTest, HistoryTreePrefixConsistency) {
  HistoryTree tree;
  std::vector<crypto::Digest> roots;
  for (int i = 0; i < 8; ++i) {
    tree.append(toBytes("op" + std::to_string(i)));
    roots.push_back(tree.root());
  }
  // Every historical root is a consistent prefix of the current log.
  for (std::uint64_t v = 1; v <= 8; ++v) {
    EXPECT_TRUE(tree.consistentWith(v, roots[v - 1]));
  }
  EXPECT_FALSE(tree.consistentWith(3, roots[4]));
  EXPECT_FALSE(tree.consistentWith(100, roots[0]));
}

TEST_F(IntegrityTest, HistoryTreeCacheInvalidatedOnAppend) {
  HistoryTree tree;
  tree.append(toBytes("op0"));
  const crypto::Digest rootBefore = tree.root();  // warms the cache
  const auto proofBefore = tree.prove(0, 1);
  tree.append(toBytes("op1"));
  const crypto::Digest rootAfter = tree.root();
  EXPECT_NE(rootBefore, rootAfter);
  // Old proof still verifies against the old root, not the new one.
  EXPECT_TRUE(HistoryTree::verifyMembership(rootBefore, *proofBefore));
  EXPECT_FALSE(HistoryTree::verifyMembership(rootAfter, *proofBefore));
  // New proofs cover both operations.
  EXPECT_TRUE(HistoryTree::verifyMembership(rootAfter, *tree.prove(1, 2)));
}

TEST_F(IntegrityTest, SignedRootVerification) {
  HistoryTree tree;
  tree.append(toBytes("op"));
  const auto provider = pkcrypto::schnorrGenerate(testGroup(), rng_);
  const SignedRoot sr =
      signRoot(testGroup(), provider, tree.version(), tree.root(), rng_);
  EXPECT_TRUE(verifySignedRoot(testGroup(), provider.pub, sr));
  SignedRoot bad = sr;
  bad.version = 99;
  EXPECT_FALSE(verifySignedRoot(testGroup(), provider.pub, bad));
}

// --- Fork-consistency detection (§IV-B) ---

class ForkTest : public ::testing::Test {
 protected:
  util::Rng rng_{7};
  const pkcrypto::DlogGroup& group_ = testGroup();
  ForkingProvider provider_{group_, rng_};
};

TEST_F(ForkTest, HonestProviderPassesCrossChecks) {
  provider_.addClient("alice");
  provider_.addClient("bob");
  provider_.appendAs("alice", toBytes("op1"), rng_);
  provider_.appendAs("bob", toBytes("op2"), rng_);

  AuditingClient alice(group_, "alice", provider_.publicKey());
  AuditingClient bob(group_, "bob", provider_.publicKey());
  alice.observe(provider_.headFor("alice"));
  bob.observe(provider_.headFor("bob"));
  EXPECT_FALSE(alice.crossCheck(bob, provider_));
  EXPECT_FALSE(bob.crossCheck(alice, provider_));
}

TEST_F(ForkTest, EquivocationDetectedOnCrossCheck) {
  provider_.addClient("alice");
  provider_.addClient("bob");
  provider_.appendAs("alice", toBytes("shared-op"), rng_);

  // The provider forks bob off and serves divergent updates.
  provider_.fork({"bob"});
  provider_.appendAs("alice", toBytes("alice-only"), rng_);
  provider_.appendAs("bob", toBytes("bob-only"), rng_);

  AuditingClient alice(group_, "alice", provider_.publicKey());
  AuditingClient bob(group_, "bob", provider_.publicKey());
  alice.observe(provider_.headFor("alice"));
  bob.observe(provider_.headFor("bob"));
  // Same version (2), different roots: caught immediately.
  EXPECT_TRUE(alice.crossCheck(bob, provider_));
}

TEST_F(ForkTest, EquivocationDetectedAcrossVersions) {
  provider_.addClient("alice");
  provider_.addClient("bob");
  provider_.appendAs("alice", toBytes("op1"), rng_);
  provider_.fork({"bob"});
  provider_.appendAs("bob", toBytes("bob-divergent"), rng_);
  provider_.appendAs("bob", toBytes("bob-more"), rng_);
  provider_.appendAs("alice", toBytes("alice-2"), rng_);

  AuditingClient alice(group_, "alice", provider_.publicKey());
  AuditingClient bob(group_, "bob", provider_.publicKey());
  alice.observe(provider_.headFor("alice"));  // version 2 on fork 0
  bob.observe(provider_.headFor("bob"));      // version 3 on fork 1
  // Alice's version-2 root is not a prefix of bob's fork: detected.
  EXPECT_TRUE(alice.crossCheck(bob, provider_));
}

TEST_F(ForkTest, ClientsOnSameForkSeeNoEvidence) {
  provider_.addClient("alice");
  provider_.addClient("bob");
  provider_.addClient("carol");
  provider_.appendAs("alice", toBytes("op"), rng_);
  provider_.fork({"bob", "carol"});
  provider_.appendAs("bob", toBytes("fork-op"), rng_);

  AuditingClient bob(group_, "bob", provider_.publicKey());
  AuditingClient carol(group_, "carol", provider_.publicKey());
  bob.observe(provider_.headFor("bob"));
  carol.observe(provider_.headFor("carol"));
  // Both are on fork 1: their views are mutually consistent (the fork is
  // only visible across forks — the paper's point about needing
  // client-to-client communication).
  EXPECT_FALSE(bob.crossCheck(carol, provider_));
}

TEST_F(ForkTest, BadProviderSignatureRejected) {
  provider_.addClient("alice");
  provider_.appendAs("alice", toBytes("op"), rng_);
  SignedRoot head = provider_.headFor("alice");
  head.root[0] ^= 1;
  AuditingClient alice(group_, "alice", provider_.publicKey());
  EXPECT_THROW(alice.observe(head), util::DosnError);
}

// --- Relation integrity (§IV-C) ---

class RelationTest : public IntegrityTest {
 protected:
  util::Bytes commenterKey_ = rng_.bytes(32);
};

TEST_F(RelationTest, AuthorizedCommentVerifies) {
  social::Post post{"bob", 10, 100, "party friday"};
  const RelationPost rp =
      createRelationPost(testGroup(), bob_, post, commenterKey_, rng_);
  ASSERT_TRUE(verifyPost(testGroup(), registry_, rp.base));

  const auto commentKey = extractCommentKey(testGroup(), rp, commenterKey_);
  ASSERT_TRUE(commentKey.has_value());
  const SignedComment sc = signComment(
      testGroup(), rp, *commentKey,
      social::Comment{"alice", 10, 101, "count me in"}, rng_);
  EXPECT_TRUE(verifyComment(testGroup(), rp, sc));
}

TEST_F(RelationTest, UnauthorizedCannotExtractKey) {
  social::Post post{"bob", 11, 100, "p"};
  const RelationPost rp =
      createRelationPost(testGroup(), bob_, post, commenterKey_, rng_);
  const util::Bytes wrongKey = rng_.bytes(32);
  EXPECT_FALSE(extractCommentKey(testGroup(), rp, wrongKey).has_value());
}

TEST_F(RelationTest, CommentBoundToItsPost) {
  social::Post post1{"bob", 20, 100, "post one"};
  social::Post post2{"bob", 21, 100, "post two"};
  const RelationPost rp1 =
      createRelationPost(testGroup(), bob_, post1, commenterKey_, rng_);
  const RelationPost rp2 =
      createRelationPost(testGroup(), bob_, post2, commenterKey_, rng_);
  const auto key1 = extractCommentKey(testGroup(), rp1, commenterKey_);
  const SignedComment sc = signComment(
      testGroup(), rp1, *key1, social::Comment{"alice", 20, 1, "c"}, rng_);
  // A comment for post 20 does not verify against post 21 (different id AND
  // different per-post key).
  EXPECT_FALSE(verifyComment(testGroup(), rp2, sc));
  EXPECT_TRUE(verifyComment(testGroup(), rp1, sc));
}

TEST_F(RelationTest, ForgedCommentWithoutKeyFails) {
  social::Post post{"bob", 30, 100, "p"};
  const RelationPost rp =
      createRelationPost(testGroup(), bob_, post, commenterKey_, rng_);
  // Mallory signs with her own key instead of the post's comment key.
  social::Comment comment{"mallory", 30, 1, "spam"};
  SignedComment forged;
  forged.comment = comment;
  util::Writer ctx;
  ctx.bytes(rp.base.signature.serialize());
  ctx.bytes(comment.serialize());
  forged.signature =
      pkcrypto::schnorrSign(testGroup(), mallory_.signing, ctx.buffer(), rng_);
  EXPECT_FALSE(verifyComment(testGroup(), rp, forged));
}

TEST_F(RelationTest, MismatchedPostIdThrowsOnSign) {
  social::Post post{"bob", 40, 100, "p"};
  const RelationPost rp =
      createRelationPost(testGroup(), bob_, post, commenterKey_, rng_);
  const auto key = extractCommentKey(testGroup(), rp, commenterKey_);
  EXPECT_THROW(signComment(testGroup(), rp, *key,
                           social::Comment{"alice", 41, 1, "c"}, rng_),
               util::DosnError);
}

}  // namespace
}  // namespace dosn::integrity

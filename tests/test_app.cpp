// Integration tests for the decentralized microblog: full-stack flows over
// the simulated DHT (publish -> replicate -> fetch -> verify -> decrypt),
// including malicious-replica tampering, and the user-client matrix run over
// every ACL scheme a client can be deployed with.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "dosn/app/microblog.hpp"
#include "dosn/privacy/abe_acl.hpp"
#include "dosn/privacy/hybrid_acl.hpp"
#include "dosn/privacy/ibbe_acl.hpp"
#include "dosn/privacy/symmetric_acl.hpp"
#include "dosn/util/error.hpp"

namespace dosn::app {
namespace {

using overlay::Contact;
using overlay::OverlayId;
using sim::kMillisecond;

enum class Scheme { kSymmetric, kHybridPk, kIbbe, kAbe };

std::unique_ptr<AccessController> makeAcl(Scheme scheme,
                                          const pkcrypto::DlogGroup& group,
                                          util::Rng& rng) {
  switch (scheme) {
    case Scheme::kSymmetric:
      return std::make_unique<privacy::SymmetricAcl>(rng);
    case Scheme::kHybridPk:
      return std::make_unique<privacy::HybridAcl>(
          group, rng, privacy::WrapScheme::kPublicKey);
    case Scheme::kIbbe:
      return std::make_unique<privacy::IbbeAcl>(group, rng);
    case Scheme::kAbe:
      return std::make_unique<privacy::AbeAcl>(group, rng);
  }
  return nullptr;
}

// A small DHT substrate of plain peers for replication, with alice, bob and
// eve joined as MicroblogNodes sharing one access controller.
template <typename Base>
class MicroblogFixture : public Base {
 protected:
  explicit MicroblogFixture(Scheme scheme)
      : acl_(makeAcl(scheme, group_, rng_)) {
    for (int i = 0; i < 12; ++i) {
      peers_.push_back(std::make_unique<overlay::KademliaNode>(
          net_, OverlayId::random(rng_)));
    }
    seed_ = Contact{peers_[0]->id(), peers_[0]->addr()};
    for (std::size_t i = 1; i < peers_.size(); ++i) {
      peers_[i]->bootstrap(seed_);
      sim_.run();
    }
    alice_ = makeNode("alice");
    bob_ = makeNode("bob");
    eve_ = makeNode("eve");
  }

  std::unique_ptr<MicroblogNode> makeNode(const std::string& user) {
    auto node = std::make_unique<MicroblogNode>(
        net_, OverlayId::random(rng_), group_, user, registry_, *acl_, rng_);
    node->join(seed_);
    sim_.run();
    return node;
  }

  FetchedTimeline fetch(MicroblogNode& reader, const UserId& author) {
    FetchedTimeline out;
    reader.fetchTimeline(author,
                         [&](FetchedTimeline t) { out = std::move(t); });
    sim_.run();
    return out;
  }

  util::Rng rng_{42};
  sim::Simulator sim_;
  sim::Network net_{sim_, sim::LatencyModel{5 * kMillisecond, 2 * kMillisecond, 0.0},
                    rng_};
  const pkcrypto::DlogGroup& group_ = pkcrypto::DlogGroup::cached(256);
  social::IdentityRegistry registry_;
  std::unique_ptr<AccessController> acl_;
  std::vector<std::unique_ptr<overlay::KademliaNode>> peers_;
  Contact seed_;
  std::unique_ptr<MicroblogNode> alice_;
  std::unique_ptr<MicroblogNode> bob_;
  std::unique_ptr<MicroblogNode> eve_;
};

class MicroblogTest : public MicroblogFixture<::testing::Test> {
 protected:
  MicroblogTest() : MicroblogFixture(Scheme::kSymmetric) {}
};

TEST_F(MicroblogTest, PublishFetchDecrypt) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  bool published = false;
  alice_->publish("friends", "first!", 1, rng_, [&](bool ok) { published = ok; });
  sim_.run();
  EXPECT_TRUE(published);
  alice_->publish("friends", "second", 2, rng_);
  sim_.run();

  FetchedTimeline fetched;
  bob_->fetchTimeline("alice", [&](FetchedTimeline t) { fetched = std::move(t); });
  sim_.run();
  EXPECT_TRUE(fetched.headValid);
  EXPECT_TRUE(fetched.chainValid);
  ASSERT_EQ(fetched.posts.size(), 2u);
  EXPECT_EQ(fetched.posts[0].text, "first!");
  EXPECT_EQ(fetched.posts[1].text, "second");
  EXPECT_EQ(fetched.undecryptable, 0u);
}

TEST_F(MicroblogTest, NonMemberSeesCiphertextOnly) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  alice_->publish("friends", "secret plan", 1, rng_);
  sim_.run();

  FetchedTimeline fetched;
  eve_->fetchTimeline("alice", [&](FetchedTimeline t) { fetched = std::move(t); });
  sim_.run();
  // Eve can verify integrity (public) but decrypt nothing (confidential).
  EXPECT_TRUE(fetched.chainValid);
  EXPECT_TRUE(fetched.posts.empty());
  EXPECT_EQ(fetched.undecryptable, 1u);
}

TEST_F(MicroblogTest, UnknownAuthorFails) {
  FetchedTimeline fetched;
  fetched.headValid = true;
  bob_->fetchTimeline("nobody", [&](FetchedTimeline t) { fetched = std::move(t); });
  sim_.run();
  EXPECT_FALSE(fetched.headValid);
}

TEST_F(MicroblogTest, EmptyTimelineFetches) {
  // Alice never published: no head record exists in the DHT.
  FetchedTimeline fetched;
  fetched.headValid = true;
  bob_->fetchTimeline("alice", [&](FetchedTimeline t) { fetched = std::move(t); });
  sim_.run();
  EXPECT_FALSE(fetched.headValid);  // nothing stored yet
}

TEST_F(MicroblogTest, TamperedReplicaDetected) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  alice_->publish("friends", "genuine", 1, rng_);
  sim_.run();

  // A malicious replica set overwrites entry 0 with forged bytes (store is
  // unauthenticated at the DHT layer — the chain must catch it).
  TimelineRecord forged;
  forged.entry.seq = 0;
  forged.entry.payload = util::toBytes("forged");
  forged.envelope.scheme = "symmetric";
  forged.envelope.group = "alice/friends";
  forged.envelope.serial = 999;
  forged.envelope.blob = util::toBytes("junk");
  peers_[3]->store(MicroblogNode::entryKey("alice", 0), forged.serialize());
  sim_.run();

  FetchedTimeline fetched;
  bob_->fetchTimeline("alice", [&](FetchedTimeline t) { fetched = std::move(t); });
  sim_.run();
  EXPECT_TRUE(fetched.headValid);
  EXPECT_FALSE(fetched.chainValid);
  EXPECT_TRUE(fetched.posts.empty());
}

TEST_F(MicroblogTest, ForgedHeadRejected) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  alice_->publish("friends", "post", 1, rng_);
  sim_.run();

  // A forger (without alice's key) plants a head record claiming 5 entries.
  HeadRecord fake;
  fake.length = 5;
  fake.headHash = crypto::sha256(util::toBytes("nope"));
  const auto forgerKey = pkcrypto::schnorrGenerate(group_, rng_);
  fake.signature =
      pkcrypto::schnorrSign(group_, forgerKey, fake.signedBytes(), rng_);
  const OverlayId headKey = MicroblogNode::headKey("alice");
  peers_[5]->store(headKey, fake.serialize());
  sim_.run();

  // The forgery replaced alice's head wherever it is stored, so whichever
  // replica answers bob serves it.
  std::vector<overlay::KademliaNode*> nodes;
  for (const auto& peer : peers_) nodes.push_back(peer.get());
  for (MicroblogNode* node : {alice_.get(), bob_.get(), eve_.get()}) {
    nodes.push_back(&node->dht());
  }
  std::size_t holders = 0;
  for (overlay::KademliaNode* node : nodes) {
    if (!node->localStore().has(headKey)) continue;
    ++holders;
    std::optional<util::Bytes> held;
    node->findValue(headKey,
                    [&](overlay::LookupResult r) { held = std::move(r.value); });
    sim_.run();
    ASSERT_EQ(held, fake.serialize()) << "a replica kept alice's genuine head";
  }
  ASSERT_GT(holders, 0u);

  FetchedTimeline fetched;
  fetched.headValid = true;
  fetched.chainValid = true;
  bob_->fetchTimeline("alice", [&](FetchedTimeline t) { fetched = std::move(t); });
  sim_.run();
  EXPECT_FALSE(fetched.headValid);
  EXPECT_FALSE(fetched.chainValid);
  EXPECT_TRUE(fetched.posts.empty());
}

TEST_F(MicroblogTest, RecordSerializationRoundTrips) {
  HeadRecord head;
  head.length = 7;
  head.headHash = crypto::sha256(util::toBytes("x"));
  const auto key = pkcrypto::schnorrGenerate(group_, rng_);
  head.signature = pkcrypto::schnorrSign(group_, key, head.signedBytes(), rng_);
  const auto headBack = HeadRecord::deserialize(head.serialize());
  ASSERT_TRUE(headBack.has_value());
  EXPECT_EQ(headBack->length, 7u);
  EXPECT_EQ(headBack->headHash, head.headHash);
  EXPECT_FALSE(HeadRecord::deserialize(util::toBytes("junk")).has_value());
  EXPECT_FALSE(TimelineRecord::deserialize(util::toBytes("junk")).has_value());
}

// Both records parse their nested fields through views of the input: they
// round-trip, and every proper prefix of a valid encoding is rejected.
TEST_F(MicroblogTest, RecordsRejectEveryTruncation) {
  const auto key = pkcrypto::schnorrGenerate(group_, rng_);
  HeadRecord head;
  head.length = 3;
  head.headHash = crypto::sha256(util::toBytes("h"));
  head.signature = pkcrypto::schnorrSign(group_, key, head.signedBytes(), rng_);
  TimelineRecord record;
  record.entry.seq = 2;
  record.entry.prev = crypto::sha256(util::toBytes("p"));
  record.entry.payload = util::toBytes("payload");
  record.entry.signature = pkcrypto::schnorrSign(
      group_, key, record.entry.signedBytes(), rng_);
  record.envelope.scheme = "hybrid+ibbe";
  record.envelope.group = "alice/friends";
  record.envelope.serial = 9;
  record.envelope.blob = util::toBytes("sealed");

  const util::Bytes headBytes = head.serialize();
  const util::Bytes recordBytes = record.serialize();
  ASSERT_TRUE(HeadRecord::deserialize(headBytes).has_value());
  EXPECT_EQ(HeadRecord::deserialize(headBytes)->serialize(), headBytes);
  ASSERT_TRUE(TimelineRecord::deserialize(recordBytes).has_value());
  EXPECT_EQ(TimelineRecord::deserialize(recordBytes)->serialize(), recordBytes);
  for (std::size_t cut = 0; cut < headBytes.size(); ++cut) {
    EXPECT_FALSE(HeadRecord::deserialize(util::BytesView(headBytes).first(cut))
                     .has_value())
        << "cut=" << cut;
  }
  for (std::size_t cut = 0; cut < recordBytes.size(); ++cut) {
    EXPECT_FALSE(
        TimelineRecord::deserialize(util::BytesView(recordBytes).first(cut))
            .has_value())
        << "cut=" << cut;
  }
}

// --- The user-client matrix, over every ACL scheme ---

class MicroblogAclTest
    : public MicroblogFixture<::testing::TestWithParam<Scheme>> {
 protected:
  MicroblogAclTest() : MicroblogFixture(GetParam()) {}

  void publish(const std::string& circle, const std::string& text) {
    alice_->publish(circle, text, ++now_, rng_);
    sim_.run();
  }

  social::Timestamp now_ = 0;
};

TEST_P(MicroblogAclTest, PublishAndFriendReads) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  publish("friends", "hello friends");
  const FetchedTimeline seen = fetch(*bob_, "alice");
  ASSERT_TRUE(seen.chainValid);
  ASSERT_EQ(seen.posts.size(), 1u);
  EXPECT_EQ(seen.posts[0].text, "hello friends");
  EXPECT_EQ(seen.posts[0].author, "alice");
}

TEST_P(MicroblogAclTest, NonMemberCannotRead) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  publish("friends", "secret");
  EXPECT_EQ(fetch(*bob_, "alice").posts.size(), 1u);
  const FetchedTimeline seen = fetch(*eve_, "alice");
  EXPECT_TRUE(seen.chainValid);
  EXPECT_TRUE(seen.posts.empty());
  EXPECT_EQ(seen.undecryptable, 1u);
}

TEST_P(MicroblogAclTest, OwnerAlwaysReadsOwnPosts) {
  alice_->createCircle("empty");
  publish("empty", "note to self");
  const FetchedTimeline seen = fetch(*alice_, "alice");
  ASSERT_EQ(seen.posts.size(), 1u);
  EXPECT_EQ(seen.posts[0].text, "note to self");
}

TEST_P(MicroblogAclTest, RevokedFriendLosesAccess) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  publish("friends", "p1");
  // Bob reads before his revocation, so his chain cursor for alice and his
  // memoized unwraps exist when he is revoked.
  ASSERT_EQ(fetch(*bob_, "alice").posts.size(), 1u);
  const auto report = alice_->removeFromCircle("friends", "bob");
  publish("friends", "p2");
  const FetchedTimeline seen = fetch(*bob_, "alice");
  ASSERT_TRUE(seen.chainValid);
  if (GetParam() == Scheme::kIbbe) {
    // IBBE revocation is free and forward-effective: the next broadcast
    // omits bob, and what he could already read stays readable.
    EXPECT_EQ(report.keyOperations, 0u);
    EXPECT_EQ(report.reencryptedEnvelopes, 0u);
    ASSERT_EQ(seen.posts.size(), 1u);
    EXPECT_EQ(seen.posts[0].text, "p1");
  } else {
    // The other schemes re-key and re-encrypt the retained history.
    EXPECT_EQ(report.reencryptedEnvelopes, 1u);
    EXPECT_TRUE(seen.posts.empty());
  }
  EXPECT_EQ(fetch(*alice_, "alice").posts.size(), 2u);
}

TEST_P(MicroblogAclTest, CannotRevokeOwner) {
  alice_->createCircle("c");
  EXPECT_THROW(alice_->removeFromCircle("c", "alice"), util::DosnError);
  EXPECT_TRUE(acl_->isMember("alice/c", "alice"));
}

TEST_P(MicroblogAclTest, TimelineChainsAllPublishes) {
  alice_->createCircle("friends");
  alice_->addToCircle("friends", "bob");
  for (int i = 0; i < 4; ++i) publish("friends", "post " + std::to_string(i));
  EXPECT_EQ(alice_->publishedCount(), 4u);
  const FetchedTimeline seen = fetch(*bob_, "alice");
  EXPECT_TRUE(seen.headValid);
  EXPECT_TRUE(seen.chainValid);
  ASSERT_EQ(seen.posts.size(), 4u);
  EXPECT_EQ(seen.posts[3].text, "post 3");
}

TEST_P(MicroblogAclTest, CircleNamespacesAreIsolatedBetweenUsers) {
  alice_->createCircle("friends");
  bob_->createCircle("friends");  // same name, different namespace
  alice_->addToCircle("friends", "carol");
  EXPECT_FALSE(acl_->isMember("bob/friends", "carol"));
  EXPECT_TRUE(acl_->isMember("alice/friends", "carol"));
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MicroblogAclTest,
    ::testing::Values(Scheme::kSymmetric, Scheme::kHybridPk, Scheme::kIbbe,
                      Scheme::kAbe),
    [](const ::testing::TestParamInfo<Scheme>& info) {
      switch (info.param) {
        case Scheme::kSymmetric: return std::string("Symmetric");
        case Scheme::kHybridPk: return std::string("HybridPk");
        case Scheme::kIbbe: return std::string("Ibbe");
        case Scheme::kAbe: return std::string("CpAbe");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace dosn::app

// Tests for the social substrate: identities, graph, generators, content.
#include <gtest/gtest.h>

#include "dosn/social/content.hpp"
#include "dosn/social/graph.hpp"
#include "dosn/social/graph_gen.hpp"
#include "dosn/social/identity.hpp"

namespace dosn::social {
namespace {

const pkcrypto::DlogGroup& testGroup() {
  return pkcrypto::DlogGroup::cached(256);
}

// --- identity ---

TEST(Identity, KeyringHasAllMaterial) {
  util::Rng rng(1);
  const Keyring k = createKeyring(testGroup(), "alice", rng);
  EXPECT_EQ(k.user, "alice");
  EXPECT_EQ(k.masterSymmetric.size(), 32u);
  EXPECT_FALSE(k.signing.x.isZero());
  EXPECT_FALSE(k.encryption.x.isZero());
}

TEST(Identity, RegistryLookup) {
  util::Rng rng(2);
  IdentityRegistry registry;
  const Keyring alice = createKeyring(testGroup(), "alice", rng);
  registry.registerIdentity(publicIdentity(alice));
  EXPECT_TRUE(registry.contains("alice"));
  EXPECT_FALSE(registry.contains("bob"));
  const auto found = registry.lookup("alice");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->signingKey.y, alice.signing.pub.y);
  EXPECT_FALSE(registry.lookup("bob").has_value());
}

// --- the registry's prepared verifying keys ---

TEST(Identity, VerifyingKeyNullForUnknownUser) {
  IdentityRegistry registry;
  EXPECT_EQ(registry.verifyingKey("nobody", testGroup()), nullptr);
}

TEST(Identity, VerifyingKeyPreparedOncePerUser) {
  util::Rng rng(3);
  IdentityRegistry registry;
  const Keyring alice = createKeyring(testGroup(), "alice", rng);
  registry.registerIdentity(publicIdentity(alice));
  const auto key = registry.verifyingKey("alice", testGroup());
  ASSERT_NE(key, nullptr);
  EXPECT_EQ(key->publicKey().y, alice.signing.pub.y);
  EXPECT_EQ(registry.verifyingKey("alice", testGroup()), key);
  // A copied registry hands out the same prepared key.
  const IdentityRegistry copy = registry;
  EXPECT_EQ(copy.verifyingKey("alice", testGroup()), key);
  const auto msg = util::toBytes("hello");
  EXPECT_TRUE(key->verify(
      msg, pkcrypto::schnorrSign(testGroup(), alice.signing, msg, rng)));
}

TEST(Identity, ReRegistrationReplacesVerifyingKey) {
  util::Rng rng(4);
  IdentityRegistry registry;
  const Keyring before = createKeyring(testGroup(), "alice", rng);
  const Keyring after = createKeyring(testGroup(), "alice", rng);
  const auto msg = util::toBytes("post");
  const auto oldSig =
      pkcrypto::schnorrSign(testGroup(), before.signing, msg, rng);
  const auto newSig =
      pkcrypto::schnorrSign(testGroup(), after.signing, msg, rng);
  registry.registerIdentity(publicIdentity(before));
  const auto oldKey = registry.verifyingKey("alice", testGroup());
  ASSERT_NE(oldKey, nullptr);
  ASSERT_TRUE(oldKey->verify(msg, oldSig));

  registry.registerIdentity(publicIdentity(after));
  const auto newKey = registry.verifyingKey("alice", testGroup());
  ASSERT_NE(newKey, nullptr);
  EXPECT_NE(newKey, oldKey);
  EXPECT_EQ(newKey->publicKey().y, after.signing.pub.y);
  EXPECT_TRUE(newKey->verify(msg, newSig));
  EXPECT_FALSE(newKey->verify(msg, oldSig));
}

TEST(Identity, VerifyingKeyNeverCrossesGroups) {
  util::Rng rng(5);
  const pkcrypto::DlogGroup& small = pkcrypto::DlogGroup::cached(256);
  const pkcrypto::DlogGroup& large = pkcrypto::DlogGroup::cached(512);
  IdentityRegistry registry;
  const Keyring alice = createKeyring(small, "alice", rng);
  registry.registerIdentity(publicIdentity(alice));
  const auto msg = util::toBytes("m");
  const auto sig = pkcrypto::schnorrSign(small, alice.signing, msg, rng);
  const auto forSmall = registry.verifyingKey("alice", small);
  const auto forLarge = registry.verifyingKey("alice", large);
  ASSERT_NE(forSmall, nullptr);
  ASSERT_NE(forLarge, nullptr);
  EXPECT_NE(forLarge, forSmall);
  EXPECT_EQ(forLarge->group().p(), large.p());
  EXPECT_EQ(forLarge->verify(msg, sig),
            pkcrypto::schnorrVerify(large, alice.signing.pub, msg, sig));
  // Back to the first group: a key prepared for it again, not the other.
  const auto again = registry.verifyingKey("alice", small);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->group().p(), small.p());
  EXPECT_TRUE(again->verify(msg, sig));
}

// --- graph ---

TEST(Graph, FriendshipBasics) {
  SocialGraph g;
  g.addFriendship("alice", "bob", 0.8);
  EXPECT_TRUE(g.areFriends("alice", "bob"));
  EXPECT_TRUE(g.areFriends("bob", "alice"));
  EXPECT_DOUBLE_EQ(g.trust("alice", "bob").value(), 0.8);
  EXPECT_DOUBLE_EQ(g.trust("bob", "alice").value(), 0.8);
  EXPECT_FALSE(g.areFriends("alice", "carol"));
  EXPECT_FALSE(g.trust("alice", "carol").has_value());
}

TEST(Graph, InvalidEdgesRejected) {
  SocialGraph g;
  EXPECT_THROW(g.addFriendship("a", "a"), std::invalid_argument);
  EXPECT_THROW(g.addFriendship("a", "b", 1.5), std::invalid_argument);
  EXPECT_THROW(g.addFriendship("a", "b", -0.1), std::invalid_argument);
}

TEST(Graph, RemoveFriendship) {
  SocialGraph g;
  g.addFriendship("a", "b");
  g.removeFriendship("a", "b");
  EXPECT_FALSE(g.areFriends("a", "b"));
  EXPECT_EQ(g.edgeCount(), 0u);
}

TEST(Graph, SetTrust) {
  SocialGraph g;
  g.addFriendship("a", "b", 0.5);
  g.setTrust("a", "b", 0.9);
  EXPECT_DOUBLE_EQ(g.trust("b", "a").value(), 0.9);
  EXPECT_THROW(g.setTrust("a", "c", 0.5), std::invalid_argument);
}

TEST(Graph, FriendsOfFriends) {
  SocialGraph g;
  g.addFriendship("a", "b");
  g.addFriendship("b", "c");
  g.addFriendship("a", "d");
  const auto fof = g.friendsOfFriends("a");
  EXPECT_EQ(fof, (std::set<UserId>{"c"}));
}

TEST(Graph, Distance) {
  SocialGraph g;
  g.addFriendship("a", "b");
  g.addFriendship("b", "c");
  g.addFriendship("c", "d");
  g.addUser("isolated");
  EXPECT_EQ(g.distance("a", "a").value(), 0u);
  EXPECT_EQ(g.distance("a", "b").value(), 1u);
  EXPECT_EQ(g.distance("a", "d").value(), 3u);
  EXPECT_FALSE(g.distance("a", "isolated").has_value());
  EXPECT_FALSE(g.distance("a", "ghost").has_value());
}

TEST(Graph, DegreeAndCounts) {
  SocialGraph g;
  g.addFriendship("hub", "a");
  g.addFriendship("hub", "b");
  g.addFriendship("hub", "c");
  EXPECT_EQ(g.degree("hub"), 3u);
  EXPECT_EQ(g.degree("a"), 1u);
  EXPECT_EQ(g.degree("ghost"), 0u);
  EXPECT_EQ(g.edgeCount(), 3u);
  EXPECT_EQ(g.userCount(), 4u);
}

// --- generators ---

TEST(GraphGen, ErdosRenyiEdgeCount) {
  util::Rng rng(5);
  const SocialGraph g = erdosRenyi(50, 0.1, rng);
  EXPECT_EQ(g.userCount(), 50u);
  // E[edges] = C(50,2) * 0.1 = 122.5; allow generous slack.
  EXPECT_GT(g.edgeCount(), 70u);
  EXPECT_LT(g.edgeCount(), 180u);
}

TEST(GraphGen, WattsStrogatzDegreePreserved) {
  util::Rng rng(6);
  const SocialGraph g = wattsStrogatz(40, 3, 0.1, rng);
  EXPECT_EQ(g.userCount(), 40u);
  // Rewiring preserves total edge count: n*k.
  EXPECT_EQ(g.edgeCount(), 120u);
}

TEST(GraphGen, WattsStrogatzZeroBetaIsLattice) {
  util::Rng rng(7);
  const SocialGraph g = wattsStrogatz(20, 2, 0.0, rng);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(g.degree(syntheticUser(i)), 4u) << i;
  }
}

TEST(GraphGen, BarabasiAlbertHubsEmerge) {
  util::Rng rng(8);
  const SocialGraph g = barabasiAlbert(200, 2, rng);
  EXPECT_EQ(g.userCount(), 200u);
  std::size_t maxDegree = 0;
  for (const UserId& u : g.users()) maxDegree = std::max(maxDegree, g.degree(u));
  // Preferential attachment must produce hubs well above the minimum degree.
  EXPECT_GT(maxDegree, 10u);
}

TEST(GraphGen, TrustWithinBounds) {
  util::Rng rng(9);
  const SocialGraph g = erdosRenyi(20, 0.3, rng, 0.5);
  for (const UserId& u : g.users()) {
    for (const UserId& f : g.friendsOf(u)) {
      const double t = g.trust(u, f).value();
      EXPECT_GE(t, 0.5);
      EXPECT_LE(t, 1.0);
    }
  }
}

TEST(GraphGen, BadParamsThrow) {
  util::Rng rng(10);
  EXPECT_THROW(wattsStrogatz(4, 2, 0.1, rng), std::invalid_argument);
  EXPECT_THROW(barabasiAlbert(3, 0, rng), std::invalid_argument);
  EXPECT_THROW(barabasiAlbert(2, 2, rng), std::invalid_argument);
}

// --- content ---

TEST(Content, PostSerializationRoundTrip) {
  Post post{"alice", 7, 123456, "hello world"};
  const auto back = Post::deserialize(post.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, post);
}

TEST(Content, CommentSerializationRoundTrip) {
  Comment comment{"bob", 7, 99, "nice post"};
  const auto back = Comment::deserialize(comment.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, comment);
}

TEST(Content, ProfileSerializationRoundTrip) {
  Profile profile{"carol", {{"name", "Carol"}, {"city", "Istanbul"}}};
  const auto back = Profile::deserialize(profile.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, profile);
}

TEST(Content, MalformedBytesRejected) {
  EXPECT_FALSE(Post::deserialize(util::toBytes("x")).has_value());
  EXPECT_FALSE(Comment::deserialize(util::toBytes("")).has_value());
  EXPECT_FALSE(Profile::deserialize(util::toBytes("yy")).has_value());
}

TEST(Content, SerializationIsCanonical) {
  Post a{"alice", 1, 2, "t"};
  Post b{"alice", 1, 2, "t"};
  EXPECT_EQ(a.serialize(), b.serialize());
  b.text = "u";
  EXPECT_NE(a.serialize(), b.serialize());
}

}  // namespace
}  // namespace dosn::social

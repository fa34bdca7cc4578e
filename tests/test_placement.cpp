// Placement-policy test pass (DESIGN.md §3f). Three layers of pinning:
//
//  1. A randomized differential trace proving VanillaPolicy (through the
//     refactored ReplicationManager) reproduces the pre-refactor inlined
//     place/repair logic pop-for-pop at a fixed seed — the byte-identity
//     guarantee every seeded bench now rests on.
//  2. SocialPolicy property tests: friends outrank non-friends at equal
//     liveness, selection is a deterministic strict total order regardless
//     of candidate order, and an owner with zero friends degrades to the
//     XOR/addr fallback without surprises.
//  3. The friend-cache tier: repeat fetches resolve from cache, the cache
//     honors its block bound, and a stale cache is invalidated and
//     re-fetched after the owner overwrites the timeline.
//
// Plus the recruit-path dedup regression: duplicate candidate addresses must
// never place or recruit the same node twice into one replica set.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "dosn/app/microblog.hpp"
#include "dosn/overlay/placement.hpp"
#include "dosn/overlay/replication.hpp"
#include "dosn/privacy/symmetric_acl.hpp"
#include "dosn/social/graph.hpp"

namespace dosn::overlay {
namespace {

using sim::kMillisecond;
using sim::kSecond;
using sim::NodeAddr;

bool strictlySortedUnique(const std::vector<NodeAddr>& v) {
  for (std::size_t i = 1; i < v.size(); ++i) {
    if (v[i - 1] >= v[i]) return false;
  }
  return true;
}

// --- 1. Differential trace: VanillaPolicy vs the pre-refactor logic ---

// Verbatim reimplementation of the pre-placement-layer ReplicationManager
// (uniform shuffle inline in place(), shuffle + front-insert in repair()),
// fed from its own Rng. Driving both models with identically seeded
// generators and comparing every return value pins that the refactor moved
// the logic without changing a single draw.
class LegacyReplicationModel {
 public:
  explicit LegacyReplicationModel(std::uint64_t seed) : rng_(seed) {}

  std::vector<NodeAddr> place(const OverlayId& item, std::size_t replicas,
                              const std::vector<NodeAddr>& candidates) {
    std::vector<NodeAddr> pool = candidates;
    rng_.shuffle(pool);
    if (pool.size() > replicas) pool.resize(replicas);
    Item& state = items_[item];
    state.replicas.assign(pool.begin(), pool.end());
    std::sort(state.replicas.begin(), state.replicas.end());
    state.replicas.erase(
        std::unique(state.replicas.begin(), state.replicas.end()),
        state.replicas.end());
    state.target = replicas;
    return pool;
  }

  std::size_t repair(const sim::Network& net,
                     const std::vector<NodeAddr>& candidates) {
    std::size_t added = 0;
    for (auto& [item, state] : items_) {
      std::size_t online = 0;
      for (const NodeAddr node : state.replicas) {
        if (net.isOnline(node)) ++online;
      }
      if (online >= state.target) continue;
      std::vector<NodeAddr> pool;
      for (const NodeAddr node : candidates) {
        if (net.isOnline(node) &&
            !std::binary_search(state.replicas.begin(), state.replicas.end(),
                                node)) {
          pool.push_back(node);
        }
      }
      rng_.shuffle(pool);
      for (const NodeAddr node : pool) {
        if (online >= state.target) break;
        state.replicas.insert(std::lower_bound(state.replicas.begin(),
                                               state.replicas.end(), node),
                              node);
        ++online;
        ++added;
      }
    }
    return added;
  }

  const std::vector<NodeAddr>& replicasOf(const OverlayId& item) {
    return items_[item].replicas;
  }

 private:
  struct Item {
    std::vector<NodeAddr> replicas;  // sorted ascending
    std::size_t target = 0;
  };

  util::Rng rng_;
  // std::map iterates in OverlayId order — the same order as the manager's
  // sorted flat vector, so repair() visits items identically.
  std::map<OverlayId, Item> items_;
};

TEST(PlacementDifferential, VanillaMatchesLegacyTracePopForPop) {
  // The manager draws from the network's rng; the legacy model from its own
  // rng with the same seed. Nothing else in this trace consumes randomness,
  // so the two streams must stay in lockstep through every shuffle.
  util::Rng netRng(42);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, netRng);
  std::vector<NodeAddr> nodes;
  for (int i = 0; i < 24; ++i) nodes.push_back(net.addNode());

  ReplicationManager manager(net);  // null policy -> owned VanillaPolicy
  LegacyReplicationModel legacy(42);

  std::vector<OverlayId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(OverlayId::hash("item-" + std::to_string(i)));
  }

  // A third generator scripts the op sequence so placements, outages and
  // repairs interleave; it never touches the streams under test.
  util::Rng script(7);
  for (int op = 0; op < 200; ++op) {
    const std::size_t kind = script.uniform(4);
    if (kind == 0 || kind == 1) {
      const OverlayId& item = ids[script.uniform(ids.size())];
      const std::size_t target = 1 + script.uniform(5);
      const auto got = manager.place(item, target, nodes);
      const auto want = legacy.place(item, target, nodes);
      ASSERT_EQ(got, want) << "place diverged at op " << op;
      ASSERT_EQ(manager.replicasOf(item), legacy.replicasOf(item));
    } else if (kind == 2) {
      const NodeAddr node = nodes[script.uniform(nodes.size())];
      net.setOnline(node, !net.isOnline(node));
    } else {
      const std::size_t got = manager.repair(nodes);
      const std::size_t want = legacy.repair(net, nodes);
      ASSERT_EQ(got, want) << "repair count diverged at op " << op;
      for (const OverlayId& item : ids) {
        ASSERT_EQ(manager.replicasOf(item), legacy.replicasOf(item))
            << "repair replicas diverged at op " << op;
      }
    }
  }
}

// --- 2. SocialPolicy properties ---

class SocialPolicyTest : public ::testing::Test {
 protected:
  SocialPolicyTest() {
    for (int i = 0; i < 10; ++i) {
      nodes_.push_back(net_.addNode());
      graph_.addUser(user(i));
      policy_.bind(nodes_[i], user(i));
      policy_.bindId(nodes_[i], OverlayId::hash("node-" + std::to_string(i)));
    }
  }

  static social::UserId user(int i) { return "u" + std::to_string(i); }

  util::Rng rng_{11};
  sim::Simulator sim_;
  sim::Network net_{sim_, sim::LatencyModel{}, rng_};
  social::SocialGraph graph_;
  std::vector<NodeAddr> nodes_;
  SocialPolicy policy_{net_, {&graph_}};
};

TEST_F(SocialPolicyTest, FriendsOutrankNonFriendsAtEqualLiveness) {
  graph_.addFriendship(user(0), user(1));
  graph_.addFriendship(user(0), user(2));
  graph_.addFriendship(user(0), user(3));
  const PlacementContext ctx{OverlayId::hash("wall"), user(0)};

  std::vector<NodeAddr> candidates(nodes_.begin() + 1, nodes_.end());
  const auto chosen = policy_.select(ctx, 3, candidates);
  ASSERT_EQ(chosen.size(), 3u);
  for (const NodeAddr addr : chosen) {
    EXPECT_EQ(policy_.tierOf(user(0), addr), 0)
        << "a non-friend was chosen while friends were available";
  }
}

TEST_F(SocialPolicyTest, LivenessBeatsFriendship) {
  graph_.addFriendship(user(0), user(1));
  net_.setOnline(nodes_[1], false);  // the only friend is offline
  const PlacementContext ctx{OverlayId::hash("wall"), user(0)};

  const auto chosen =
      policy_.select(ctx, 1, {nodes_[1], nodes_[5]});
  ASSERT_EQ(chosen.size(), 1u);
  EXPECT_EQ(chosen[0], nodes_[5]) << "an offline friend outranked an online "
                                     "stranger";

  // At equal (offline) liveness the friend wins again.
  net_.setOnline(nodes_[5], false);
  const auto bothOffline = policy_.select(ctx, 1, {nodes_[1], nodes_[5]});
  ASSERT_EQ(bothOffline.size(), 1u);
  EXPECT_EQ(bothOffline[0], nodes_[1]);
}

TEST_F(SocialPolicyTest, FriendsOfFriendsRankBetweenFriendsAndStrangers) {
  graph_.addFriendship(user(0), user(1));
  graph_.addFriendship(user(1), user(2));  // u2 is a friend-of-friend
  EXPECT_EQ(policy_.tierOf(user(0), nodes_[1]), 0);
  EXPECT_EQ(policy_.tierOf(user(0), nodes_[2]), 1);
  EXPECT_EQ(policy_.tierOf(user(0), nodes_[7]), 2);

  const PlacementContext ctx{OverlayId::hash("wall"), user(0)};
  const auto chosen = policy_.select(ctx, 2, {nodes_[7], nodes_[2], nodes_[1]});
  ASSERT_EQ(chosen.size(), 2u);
  EXPECT_EQ(chosen[0], nodes_[1]);
  EXPECT_EQ(chosen[1], nodes_[2]);
}

TEST_F(SocialPolicyTest, DeterministicAcrossCandidateOrder) {
  graph_.addFriendship(user(0), user(1));
  graph_.addFriendship(user(0), user(4));
  const PlacementContext ctx{OverlayId::hash("wall"), user(0)};

  std::vector<NodeAddr> shuffled = nodes_;
  const auto baseline = policy_.select(ctx, 4, shuffled);
  util::Rng order(3);
  for (int round = 0; round < 8; ++round) {
    order.shuffle(shuffled);
    EXPECT_EQ(policy_.select(ctx, 4, shuffled), baseline)
        << "selection depends on candidate order";
  }
}

TEST_F(SocialPolicyTest, ZeroFriendsFallsBackToXorDistance) {
  // u0 has no friends: every candidate (excluding u0's own node, which is
  // always tier 0) is a stranger, so ranking falls back to XOR distance of
  // the bound ids to the item.
  const OverlayId item = OverlayId::hash("lonely-wall");
  const PlacementContext ctx{item, user(0)};
  const std::vector<NodeAddr> strangers(nodes_.begin() + 1, nodes_.end());
  const auto chosen = policy_.select(ctx, 3, strangers);
  ASSERT_EQ(chosen.size(), 3u);
  for (std::size_t i = 1; i < chosen.size(); ++i) {
    const OverlayId prev = OverlayId::hash(
        "node-" + std::to_string(chosen[i - 1] - nodes_[0]));
    const OverlayId cur =
        OverlayId::hash("node-" + std::to_string(chosen[i] - nodes_[0]));
    EXPECT_TRUE(xorDistance(prev, item) < xorDistance(cur, item));
  }
}

TEST_F(SocialPolicyTest, UnknownOwnerAndUnboundCandidatesDegradeGracefully) {
  // An owner absent from the graph plus candidates with no user/id bindings:
  // everything lands in the stranger tier, ordered by address.
  SocialPolicy bare(net_, {&graph_});
  const PlacementContext ctx{OverlayId::hash("wall"), social::UserId("ghost")};
  const auto chosen = bare.select(ctx, 3, {nodes_[4], nodes_[2], nodes_[8]});
  EXPECT_EQ(chosen,
            (std::vector<NodeAddr>{nodes_[2], nodes_[4], nodes_[8]}));
}

// The policy keeps each owner's tiers across decisions; a graph mutation
// after a decision must reach the next one.
TEST_F(SocialPolicyTest, KeptTiersFollowGraphMutations) {
  graph_.addFriendship(user(0), user(1));
  const PlacementContext ctx{OverlayId::hash("wall"), user(0)};
  const std::vector<NodeAddr> candidates = {nodes_[1], nodes_[6]};
  EXPECT_EQ(policy_.select(ctx, 1, candidates),
            (std::vector<NodeAddr>{nodes_[1]}));
  EXPECT_EQ(policy_.tierOf(user(0), nodes_[6]), 2);

  graph_.removeFriendship(user(0), user(1));
  graph_.addFriendship(user(0), user(6));  // the stranger becomes a friend
  EXPECT_EQ(policy_.select(ctx, 1, candidates),
            (std::vector<NodeAddr>{nodes_[6]}));
  EXPECT_EQ(policy_.tierOf(user(0), nodes_[6]), 0);
  EXPECT_EQ(policy_.tierOf(user(0), nodes_[1]), 2);

  graph_.addFriendship(user(6), user(1));  // u1 is now a friend-of-friend
  EXPECT_EQ(policy_.tierOf(user(0), nodes_[1]), 1);
  EXPECT_EQ(policy_.select(ctx, 2, {nodes_[7], nodes_[1], nodes_[6]}),
            (std::vector<NodeAddr>{nodes_[6], nodes_[1]}));
}

TEST_F(SocialPolicyTest, DuplicateCandidatesNeverRepeatAnAddress) {
  const PlacementContext ctx{OverlayId::hash("wall"), user(0)};
  const auto chosen = policy_.select(
      ctx, 4, {nodes_[1], nodes_[1], nodes_[2], nodes_[2], nodes_[3]});
  EXPECT_EQ(chosen.size(), 3u);
  auto sorted = chosen;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(strictlySortedUnique(sorted));
}

// --- Recruit-path dedup regression (the latent bug this PR fixes) ---

TEST(ReplicationDedup, PlaceWithDuplicateCandidatesYieldsDistinctReplicas) {
  util::Rng rng(5);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  const NodeAddr a = net.addNode();
  const NodeAddr b = net.addNode();
  const NodeAddr c = net.addNode();
  ReplicationManager manager(net);
  const OverlayId item = OverlayId::hash("dup-place");
  const auto chosen = manager.place(item, 3, {a, a, b, b, c, c});
  EXPECT_EQ(chosen.size(), 3u);
  auto sorted = chosen;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<NodeAddr>{a, b, c}));
  EXPECT_TRUE(strictlySortedUnique(manager.replicasOf(item)));
}

TEST(ReplicationDedup, RepairSkipsAlreadyRecruitedNodesByAddress) {
  util::Rng rng(6);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  std::vector<NodeAddr> initial;
  for (int i = 0; i < 3; ++i) initial.push_back(net.addNode());
  const NodeAddr fresh = net.addNode();
  ReplicationManager manager(net);
  const OverlayId item = OverlayId::hash("dup-repair");
  manager.place(item, 3, initial);
  net.setOnline(initial[0], false);
  net.setOnline(initial[1], false);

  // The candidate list repeats the one recruitable node. The pre-fix code
  // inserted it once per occurrence, double-counting it toward the target
  // and corrupting the sorted replica set.
  std::vector<NodeAddr> candidates = initial;
  candidates.push_back(fresh);
  candidates.push_back(fresh);
  candidates.push_back(fresh);
  const std::size_t added = manager.repair(candidates);
  EXPECT_EQ(added, 1u) << "one distinct node can only be recruited once";
  EXPECT_TRUE(strictlySortedUnique(manager.replicasOf(item)));
  EXPECT_EQ(manager.onlineReplicas(item), 2u);
}

}  // namespace
}  // namespace dosn::overlay

// --- 3. Friend-cache tier ---

namespace dosn::app {
namespace {

using overlay::Contact;
using overlay::OverlayId;
using sim::kMillisecond;

class FriendCacheTest : public ::testing::Test {
 protected:
  FriendCacheTest() {
    for (int i = 0; i < 12; ++i) {
      peers_.push_back(std::make_unique<overlay::KademliaNode>(
          net_, OverlayId::random(rng_)));
    }
    seed_ = Contact{peers_[0]->id(), peers_[0]->addr()};
    for (std::size_t i = 1; i < peers_.size(); ++i) {
      peers_[i]->bootstrap(seed_);
      sim_.run();
    }
  }

  std::unique_ptr<MicroblogNode> makeNode(const std::string& user,
                                          FriendCacheConfig cache = {}) {
    auto node = std::make_unique<MicroblogNode>(
        net_, OverlayId::random(rng_), group_, user, registry_, acl_, rng_,
        overlay::KademliaConfig{}, cache);
    node->join(seed_);
    sim_.run();
    return node;
  }

  FetchedTimeline fetch(MicroblogNode& reader, const std::string& author) {
    FetchedTimeline out;
    reader.fetchTimeline(author,
                         [&](FetchedTimeline t) { out = std::move(t); });
    sim_.run();
    return out;
  }

  util::Rng rng_{42};
  sim::Simulator sim_;
  sim::Network net_{
      sim_, sim::LatencyModel{5 * kMillisecond, 2 * kMillisecond, 0.0}, rng_};
  const pkcrypto::DlogGroup& group_ = pkcrypto::DlogGroup::cached(256);
  social::IdentityRegistry registry_;
  privacy::SymmetricAcl acl_{rng_};
  std::vector<std::unique_ptr<overlay::KademliaNode>> peers_;
  Contact seed_;
};

TEST_F(FriendCacheTest, RepeatFetchResolvesFromLocalCache) {
  FriendCacheConfig cache;
  cache.enabled = true;
  auto alice = makeNode("alice", cache);
  auto bob = makeNode("bob", cache);
  bob->addFriendPeer("alice", alice->dht().addr());

  alice->createCircle("friends");
  alice->addToCircle("friends", "bob");
  alice->publish("friends", "one", 1, rng_);
  sim_.run();
  alice->publish("friends", "two", 2, rng_);
  sim_.run();

  // Cold fetch: entries resolve via alice's publish-seeded cache (one hop)
  // or the DHT, and populate bob's local cache either way.
  const auto first = fetch(*bob, "alice");
  ASSERT_TRUE(first.chainValid);
  ASSERT_EQ(first.posts.size(), 2u);
  EXPECT_EQ(bob->fetchStats().cacheRemoteHits, 2u);
  const std::uint64_t lookupsAfterFirst = bob->fetchStats().lookups;

  // Warm fetch: both entries are local; only the head touches the DHT.
  const auto second = fetch(*bob, "alice");
  ASSERT_TRUE(second.chainValid);
  ASSERT_EQ(second.posts.size(), 2u);
  EXPECT_EQ(bob->fetchStats().cacheLocalHits, 2u);
  EXPECT_EQ(bob->fetchStats().lookups, lookupsAfterFirst + 1)
      << "a warm fetch should only look up the head in the DHT";
  EXPECT_EQ(bob->fetchStats().cacheInvalidations, 0u);
}

TEST_F(FriendCacheTest, StaleCacheInvalidatedAndRefetchedAfterOverwrite) {
  FriendCacheConfig cache;
  cache.enabled = true;
  auto alice = makeNode("alice", cache);
  auto bob = makeNode("bob", cache);
  bob->addFriendPeer("alice", alice->dht().addr());

  alice->createCircle("friends");
  alice->addToCircle("friends", "bob");
  alice->publish("friends", "old-one", 1, rng_);
  sim_.run();
  alice->publish("friends", "old-two", 2, rng_);
  sim_.run();
  ASSERT_EQ(fetch(*bob, "alice").posts.size(), 2u);  // caches both entries

  // "alice" re-keys and overwrites her timeline under the same DHT keys
  // (the registry replaces her identity, the head and entry 0 get new
  // values). Bob's cache still holds the old records.
  auto alice2 = makeNode("alice", cache);
  alice2->createCircle("inner");
  alice2->addToCircle("inner", "bob");
  alice2->publish("inner", "fresh", 3, rng_);
  sim_.run();

  // The freshly fetched head (never cached) exposes the stale entries:
  // chain verification fails against the new identity, the cache is
  // invalidated and the fetch retried straight from the DHT.
  const auto refetched = fetch(*bob, "alice");
  EXPECT_EQ(bob->fetchStats().cacheInvalidations, 1u);
  ASSERT_TRUE(refetched.chainValid) << "retry should have served fresh data";
  ASSERT_EQ(refetched.posts.size(), 1u);
  EXPECT_EQ(refetched.posts[0].text, "fresh");

  // The retry repopulated the cache with fresh records: a further fetch is
  // valid, local, and triggers no second invalidation.
  const auto warm = fetch(*bob, "alice");
  ASSERT_TRUE(warm.chainValid);
  ASSERT_EQ(warm.posts.size(), 1u);
  EXPECT_EQ(bob->fetchStats().cacheInvalidations, 1u);
}

TEST_F(FriendCacheTest, CacheStaysWithinItsBlockBound) {
  FriendCacheConfig cache;
  cache.enabled = true;
  cache.capacityBlocks = 4;
  auto alice = makeNode("alice", cache);
  alice->createCircle("friends");
  for (int i = 0; i < 9; ++i) {
    alice->publish("friends", "post " + std::to_string(i), i + 1, rng_);
    sim_.run();
  }
  ASSERT_NE(alice->friendCache(), nullptr);
  // The tier keeps one copy of each block, so the LRU bound is the tier's.
  EXPECT_LE(alice->friendCache()->cacheStats().cachedBlocks, 4u);
  EXPECT_GT(alice->friendCache()->cacheStats().evictions, 0u);
}

TEST_F(FriendCacheTest, DisabledTierHasNoCacheAndNoStats) {
  auto alice = makeNode("alice");
  auto bob = makeNode("bob");
  alice->createCircle("friends");
  alice->addToCircle("friends", "bob");
  alice->publish("friends", "plain", 1, rng_);
  sim_.run();
  const auto fetched = fetch(*bob, "alice");
  ASSERT_TRUE(fetched.chainValid);
  EXPECT_EQ(bob->friendCache(), nullptr);
  EXPECT_EQ(bob->fetchStats().cacheLocalHits, 0u);
  EXPECT_EQ(bob->fetchStats().cacheRemoteHits, 0u);
  EXPECT_GT(bob->fetchStats().lookups, 0u);
}

}  // namespace
}  // namespace dosn::app

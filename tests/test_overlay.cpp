// Tests for the overlay tier: node ids, Kademlia DHT, flooding, gossip,
// super-peers, hybrid lookup, federation, replication.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "dosn/overlay/federation.hpp"
#include "dosn/overlay/flooding.hpp"
#include "dosn/overlay/gossip.hpp"
#include "dosn/overlay/hybrid.hpp"
#include "dosn/overlay/kademlia.hpp"
#include "dosn/overlay/location_tree.hpp"
#include "dosn/overlay/node_id.hpp"
#include "dosn/overlay/replication.hpp"
#include "dosn/overlay/superpeer.hpp"
#include "dosn/sim/churn.hpp"
#include "dosn/sim/faults.hpp"
#include "dosn/social/graph_gen.hpp"

namespace dosn::overlay {
namespace {

using sim::kMillisecond;
using sim::kSecond;
using util::toBytes;

KademliaConfig kademliaConfig(std::size_t k) {
  KademliaConfig config;
  config.k = k;
  return config;
}

GossipConfig gossipConfig(sim::SimTime interval, std::size_t fanout) {
  GossipConfig config;
  config.interval = interval;
  config.fanout = fanout;
  return config;
}

// --- OverlayId ---

TEST(OverlayId, HashDeterministic) {
  EXPECT_EQ(OverlayId::hash("alice"), OverlayId::hash("alice"));
  EXPECT_NE(OverlayId::hash("alice"), OverlayId::hash("bob"));
}

TEST(OverlayId, XorDistanceProperties) {
  util::Rng rng(1);
  const OverlayId a = OverlayId::random(rng);
  const OverlayId b = OverlayId::random(rng);
  EXPECT_EQ(xorDistance(a, a), OverlayId{});
  EXPECT_EQ(xorDistance(a, b), xorDistance(b, a));
}

TEST(OverlayId, BucketIndex) {
  OverlayId a{};
  OverlayId b{};
  EXPECT_EQ(bucketIndex(a, b), -1);
  b.bytes[kIdBytes - 1] = 0x01;  // differs in the lowest bit
  EXPECT_EQ(bucketIndex(a, b), 0);
  b = OverlayId{};
  b.bytes[0] = 0x80;  // highest bit
  EXPECT_EQ(bucketIndex(a, b), 159);
}

TEST(OverlayId, CloserTo) {
  OverlayId target{};
  OverlayId near{};
  near.bytes[kIdBytes - 1] = 1;
  OverlayId far{};
  far.bytes[0] = 0x80;
  EXPECT_TRUE(closerTo(target, near, far));
  EXPECT_FALSE(closerTo(target, far, near));
  EXPECT_FALSE(closerTo(target, near, near));
}

// Byte-at-a-time definitions of the id operations, the oracle for the
// word-wise ones in node_id.hpp.
int bytewiseCompare(const OverlayId& a, const OverlayId& b) {
  for (std::size_t i = 0; i < kIdBytes; ++i) {
    if (a.bytes[i] != b.bytes[i]) return a.bytes[i] < b.bytes[i] ? -1 : 1;
  }
  return 0;
}

int bytewiseBucketIndex(const OverlayId& a, const OverlayId& b) {
  for (std::size_t i = 0; i < kIdBytes; ++i) {
    const std::uint8_t d = a.bytes[i] ^ b.bytes[i];
    if (d != 0) {
      int bit = 7;
      while (((d >> bit) & 1) == 0) --bit;
      return static_cast<int>((kIdBytes - 1 - i) * 8) + bit;
    }
  }
  return -1;
}

// Compares distance(a, target) with distance(b, target).
int bytewiseDistanceCompare(const OverlayId& target, const OverlayId& a,
                            const OverlayId& b) {
  for (std::size_t i = 0; i < kIdBytes; ++i) {
    const std::uint8_t da = a.bytes[i] ^ target.bytes[i];
    const std::uint8_t db = b.bytes[i] ^ target.bytes[i];
    if (da != db) return da < db ? -1 : 1;
  }
  return 0;
}

int sign(std::strong_ordering order) {
  return order < 0 ? -1 : order > 0 ? 1 : 0;
}

// <=>, ==, bucketIndex, closerTo and distance keys read ids as big-endian
// words; each must agree with its bytewise definition, including on ids
// that differ only in the first or last byte of a word.
TEST(OverlayId, WordOrderMatchesBytewise) {
  std::size_t checked = 0;
  const auto check = [&checked](const OverlayId& a, const OverlayId& b,
                                const OverlayId& target) {
    ++checked;
    ASSERT_EQ(sign(a <=> b), bytewiseCompare(a, b))
        << a.toHex() << " vs " << b.toHex();
    ASSERT_EQ(a == b, bytewiseCompare(a, b) == 0);
    ASSERT_EQ(a < b, bytewiseCompare(a, b) < 0);
    ASSERT_EQ(bucketIndex(a, b), bytewiseBucketIndex(a, b));
    ASSERT_EQ(bucketIndex(b, a), bytewiseBucketIndex(a, b));
    const int byDistance = bytewiseDistanceCompare(target, a, b);
    ASSERT_EQ(closerTo(target, a, b), byDistance < 0);
    ASSERT_EQ(closerTo(target, b, a), byDistance > 0);
    ASSERT_EQ(sign(distanceKey(a, target) <=> distanceKey(b, target)),
              byDistance);
    // A key is the distance's bytes read as words.
    const OverlayId d = xorDistance(a, b);
    DistanceKey expected;
    for (std::size_t i = 0; i < 8; ++i) {
      expected.high = expected.high << 8 | d.bytes[i];
      expected.middle = expected.middle << 8 | d.bytes[8 + i];
    }
    for (std::size_t i = 16; i < kIdBytes; ++i) {
      expected.low = expected.low << 8 | d.bytes[i];
    }
    ASSERT_EQ(distanceKey(a, b), expected);
  };

  util::Rng rng(41);
  for (int i = 0; i < 100000; ++i) {
    const OverlayId a = OverlayId::random(rng);
    const OverlayId b = OverlayId::random(rng);
    check(a, b, OverlayId::random(rng));
    check(a, a, b);
  }
  // Ids that differ only in one byte at a word's edge, in each bit of it
  // and in the whole byte; targets equal to either id or to neither.
  for (const std::size_t byte : {0u, 7u, 8u, 15u, 16u, 19u}) {
    for (int i = 0; i < 20; ++i) {
      const OverlayId a = OverlayId::random(rng);
      for (int bit = 0; bit <= 8; ++bit) {
        OverlayId b = a;
        b.bytes[byte] ^= static_cast<std::uint8_t>(bit < 8 ? 1 << bit : 0xff);
        for (const OverlayId& target : {a, b, OverlayId::random(rng)}) {
          check(a, b, target);
          check(b, a, target);
        }
      }
    }
  }
  OverlayId zeros;
  OverlayId ones;
  ones.bytes.fill(0xff);
  for (const OverlayId& target : {zeros, ones, OverlayId::random(rng)}) {
    check(zeros, ones, target);
    check(ones, zeros, target);
    check(zeros, zeros, target);
    check(ones, ones, target);
  }
  EXPECT_GT(checked, 200000u);
}

// --- RoutingTable ---

TEST(RoutingTable, ObserveAndClosest) {
  util::Rng rng(2);
  const OverlayId self = OverlayId::random(rng);
  RoutingTable table(self, 4);
  std::vector<Contact> contacts;
  for (int i = 0; i < 50; ++i) {
    Contact c{OverlayId::random(rng), static_cast<sim::NodeAddr>(i + 1)};
    contacts.push_back(c);
    table.observe(c);
  }
  const OverlayId target = OverlayId::random(rng);
  std::vector<Contact> closest;
  table.closest(target, 5, closest);
  ASSERT_LE(closest.size(), 5u);
  // Returned contacts are sorted by distance.
  for (std::size_t i = 0; i + 1 < closest.size(); ++i) {
    EXPECT_FALSE(closerTo(target, closest[i + 1].id, closest[i].id));
  }
}

TEST(RoutingTable, SelfIsIgnored) {
  util::Rng rng(3);
  const OverlayId self = OverlayId::random(rng);
  RoutingTable table(self, 4);
  table.observe(Contact{self, 1});
  EXPECT_EQ(table.size(), 0u);
}

TEST(RoutingTable, BucketEvictsOldest) {
  OverlayId self{};
  RoutingTable table(self, 2);
  // Three ids in the same (top) bucket.
  OverlayId id1{};
  id1.bytes[0] = 0x80;
  OverlayId id2{};
  id2.bytes[0] = 0x81;
  OverlayId id3{};
  id3.bytes[0] = 0x82;
  table.observe(Contact{id1, 1});
  table.observe(Contact{id2, 2});
  table.observe(Contact{id3, 3});
  EXPECT_EQ(table.size(), 2u);
  std::vector<Contact> closest;
  table.closest(id1, 3, closest);
  // id1 (oldest) was evicted.
  for (const Contact& c : closest) EXPECT_NE(c.id, id1);
}

// An id whose highest bit differing from `self` is bit `bucket`, so it lands
// in that bucket of self's table; the bits below it are random.
OverlayId idInBucket(const OverlayId& self, std::size_t bucket, util::Rng& rng) {
  OverlayId id = OverlayId::random(rng);
  for (std::size_t bit = bucket; bit < kIdBits; ++bit) {
    const std::size_t byte = kIdBytes - 1 - bit / 8;
    const auto mask = static_cast<std::uint8_t>(1u << (bit % 8));
    const bool selfHas = (self.bytes[byte] & mask) != 0;
    if ((bit == bucket) == selfHas) {
      id.bytes[byte] = static_cast<std::uint8_t>(id.bytes[byte] & ~mask);
    } else {
      id.bytes[byte] = static_cast<std::uint8_t>(id.bytes[byte] | mask);
    }
  }
  return id;
}

// The oracle for closest(): every contact sorted by distance, cut to count.
std::vector<Contact> fullSort(std::vector<Contact> contacts,
                              const OverlayId& target, std::size_t count) {
  std::sort(contacts.begin(), contacts.end(),
            [&](const Contact& a, const Contact& b) {
              return closerTo(target, a.id, b.id);
            });
  if (contacts.size() > count) contacts.resize(count);
  return contacts;
}

// closest() walks the occupied buckets' distance ranges and orders only the
// ones it takes contacts from; a sort of every contact cut to `count` is its
// oracle. Ids are drawn so no bucket overflows, so the table holds every
// contact observed.
//  - Table sizes straddle k; targets include self, a held contact's id,
//    self's complement and random ids.
//  - Tables whose only occupied buckets sit at the occupancy mask's word
//    edges (0, 63, 64, 127, 128, 159), alone and all together, with targets
//    in each occupied bucket and in the empty buckets next to it.
//  - One caller buffer reused across 1,000 calls with random targets and
//    counts, each checked against a fresh sort.
TEST(RoutingTable, ClosestMatchesFullSort) {
  constexpr std::size_t k = 8;
  util::Rng rng(29);
  std::vector<Contact> out;
  for (const std::size_t tableSize : {0u, 1u, 5u, 8u, 9u, 13u, 40u}) {
    const OverlayId self = OverlayId::random(rng);
    RoutingTable table(self, k);
    std::vector<Contact> held;
    std::map<int, std::size_t> perBucket;
    while (held.size() < tableSize) {
      const Contact c{OverlayId::random(rng),
                      static_cast<sim::NodeAddr>(held.size() + 1)};
      std::size_t& inBucket = perBucket[bucketIndex(self, c.id)];
      if (inBucket == k) continue;
      ++inBucket;
      held.push_back(c);
      table.observe(c);
    }
    ASSERT_EQ(table.size(), tableSize);

    std::vector<OverlayId> targets = {self};
    OverlayId complement;
    for (std::size_t i = 0; i < kIdBytes; ++i) {
      complement.bytes[i] = static_cast<std::uint8_t>(~self.bytes[i]);
    }
    targets.push_back(complement);
    if (!held.empty()) targets.push_back(held[held.size() / 2].id);
    for (int i = 0; i < 6; ++i) targets.push_back(OverlayId::random(rng));

    for (const OverlayId& target : targets) {
      std::vector<Contact> sorted = held;
      std::sort(sorted.begin(), sorted.end(),
                [&](const Contact& a, const Contact& b) {
                  return closerTo(target, a.id, b.id);
                });
      for (const std::size_t count : {std::size_t{0}, std::size_t{1}, k - 1,
                                      k, k + 1, tableSize + 3}) {
        std::vector<Contact> expected = sorted;
        if (expected.size() > count) expected.resize(count);
        table.closest(target, count, out);
        EXPECT_EQ(out, expected)
            << "table=" << tableSize << " count=" << count
            << " target=" << target.toHex();
      }
    }
  }

  const std::vector<std::size_t> edges = {0, 63, 64, 127, 128, 159};
  std::vector<std::vector<std::size_t>> layouts;
  for (const std::size_t b : edges) layouts.push_back({b});
  layouts.push_back(edges);
  for (const auto& layout : layouts) {
    const auto occupied = [&layout](std::size_t b) {
      return std::find(layout.begin(), layout.end(), b) != layout.end();
    };
    const OverlayId self = OverlayId::random(rng);
    RoutingTable table(self, k);
    std::vector<Contact> held;
    for (const std::size_t b : layout) {
      const std::size_t fill = b == 0 ? 1 : k;  // bucket 0 holds one id
      for (std::size_t i = 0; i < fill; ++i) {
        const Contact c{idInBucket(self, b, rng),
                        static_cast<sim::NodeAddr>(held.size() + 1)};
        held.push_back(c);
        table.observe(c);
      }
    }
    ASSERT_EQ(table.size(), held.size());

    std::vector<OverlayId> targets = {self};
    for (const std::size_t b : layout) {
      targets.push_back(idInBucket(self, b, rng));
      if (b > 0 && !occupied(b - 1)) {
        targets.push_back(idInBucket(self, b - 1, rng));
      }
      if (b + 1 < kIdBits && !occupied(b + 1)) {
        targets.push_back(idInBucket(self, b + 1, rng));
      }
    }
    for (const OverlayId& target : targets) {
      for (const std::size_t count :
           {std::size_t{0}, std::size_t{1}, k - 1, k, k + 1, held.size(),
            held.size() + 3}) {
        table.closest(target, count, out);
        EXPECT_EQ(out, fullSort(held, target, count))
            << "buckets=" << layout.size() << " first=" << layout.front()
            << " count=" << count << " target=" << target.toHex();
      }
    }
  }

  const OverlayId self = OverlayId::random(rng);
  RoutingTable table(self, k);
  std::vector<Contact> held;
  std::map<std::size_t, std::size_t> perBucket;
  while (held.size() < 60) {
    const std::size_t b = rng.uniform(kIdBits);
    const Contact c{idInBucket(self, b, rng),
                    static_cast<sim::NodeAddr>(held.size() + 1)};
    const bool known = std::any_of(held.begin(), held.end(),
                                   [&](const Contact& h) { return h.id == c.id; });
    if (known || perBucket[b] == k) continue;  // low buckets hold few ids
    ++perBucket[b];
    held.push_back(c);
    table.observe(c);
  }
  ASSERT_EQ(table.size(), held.size());
  std::vector<Contact> reused;
  for (int call = 0; call < 1000; ++call) {
    const OverlayId target =
        call % 10 == 0 ? held[rng.uniform(held.size())].id
                       : idInBucket(self, rng.uniform(kIdBits), rng);
    const std::size_t count = rng.uniform(held.size() + 4);
    table.closest(target, count, reused);
    ASSERT_EQ(reused, fullSort(held, target, count))
        << "call " << call << " count=" << count;
  }
}

// --- Kademlia over the simulator ---

class KademliaTest : public ::testing::Test {
 protected:
  void buildNetwork(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<KademliaNode>(
          net_, OverlayId::random(rng_), config_));
    }
    // Bootstrap everyone through node 0.
    const Contact seed{nodes_[0]->id(), nodes_[0]->addr()};
    for (std::size_t i = 1; i < nodes_.size(); ++i) {
      nodes_[i]->bootstrap(seed);
      sim_.run();
    }
  }

  util::Rng rng_{42};
  sim::Simulator sim_;
  sim::Network net_{sim_, sim::LatencyModel{5 * kMillisecond, 2 * kMillisecond, 0.0},
                    rng_};
  KademliaConfig config_ = kademliaConfig(8);
  std::vector<std::unique_ptr<KademliaNode>> nodes_;
};

TEST_F(KademliaTest, StoreAndFindValue) {
  buildNetwork(30);
  const OverlayId key = OverlayId::hash("profile:alice");
  bool stored = false;
  nodes_[5]->store(key, toBytes("alice-data"), [&](bool ok) { stored = ok; });
  sim_.run();
  EXPECT_TRUE(stored);

  std::optional<util::Bytes> found;
  nodes_[20]->findValue(key, [&](LookupResult result) { found = result.value; });
  sim_.run();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, toBytes("alice-data"));
}

TEST_F(KademliaTest, MissingKeyNotFound) {
  buildNetwork(20);
  std::optional<util::Bytes> found = toBytes("sentinel");
  bool completed = false;
  nodes_[3]->findValue(OverlayId::hash("missing"), [&](LookupResult result) {
    found = result.value;
    completed = true;
  });
  sim_.run();
  EXPECT_TRUE(completed);
  EXPECT_FALSE(found.has_value());
}

TEST_F(KademliaTest, LookupHopsAreBounded) {
  buildNetwork(40);
  const OverlayId key = OverlayId::hash("item");
  nodes_[1]->store(key, toBytes("v"), {});
  sim_.run();
  std::size_t hops = 999;
  nodes_[35]->findValue(key, [&](LookupResult result) { hops = result.hops; });
  sim_.run();
  // "Queries will be resolved in a limited number of steps": O(log n).
  EXPECT_LE(hops, 8u);
}

TEST_F(KademliaTest, ValueSurvivesOriginGoingOffline) {
  buildNetwork(30);
  const OverlayId key = OverlayId::hash("replicated");
  nodes_[2]->store(key, toBytes("v"), {});
  sim_.run();
  net_.setOnline(nodes_[2]->addr(), false);
  std::optional<util::Bytes> found;
  nodes_[17]->findValue(key, [&](LookupResult result) { found = result.value; });
  sim_.run();
  // The store placed k=8 replicas; losing the origin must not lose the data.
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, toBytes("v"));
}

TEST_F(KademliaTest, RejoinAfterDowntimeRestoresLookups) {
  buildNetwork(25);
  const OverlayId key = OverlayId::hash("persistent");
  nodes_[4]->store(key, toBytes("v"), {});
  sim_.run();

  // Node 12 goes offline; the world moves on; it rejoins later.
  net_.setOnline(nodes_[12]->addr(), false);
  sim_.run();
  net_.setOnline(nodes_[12]->addr(), true);
  nodes_[12]->rejoin(Contact{nodes_[0]->id(), nodes_[0]->addr()});
  sim_.run();

  std::optional<util::Bytes> found;
  nodes_[12]->findValue(key, [&](LookupResult r) { found = r.value; });
  sim_.run();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, toBytes("v"));
}

TEST_F(KademliaTest, StoreWidthLimitsReplicaCount) {
  config_.storeWidth = 2;
  buildNetwork(20);
  const OverlayId key = OverlayId::hash("narrow");
  nodes_[3]->store(key, toBytes("v"), {});
  sim_.run();
  std::size_t replicas = 0;
  for (const auto& node : nodes_) {
    replicas += node->localStore().has(key) ? 1 : 0;
  }
  EXPECT_GE(replicas, 1u);
  EXPECT_LE(replicas, 2u);
}

TEST_F(KademliaTest, FindNodeReturnsClosest) {
  buildNetwork(25);
  const OverlayId target = OverlayId::random(rng_);
  std::vector<Contact> closest;
  nodes_[10]->findNode(target, [&](LookupResult r) { closest = r.closest; });
  sim_.run();
  ASSERT_FALSE(closest.empty());
  for (std::size_t i = 0; i + 1 < closest.size(); ++i) {
    EXPECT_FALSE(closerTo(target, closest[i + 1].id, closest[i].id));
  }
}

// --- Flooding ---

class FloodingTest : public ::testing::Test {
 protected:
  void buildRing(std::size_t n, std::size_t extraLinks = 0) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<FloodingNode>(net_, OverlayId::random(rng_)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      linkNodes(*nodes_[i], *nodes_[(i + 1) % n]);
    }
    for (std::size_t i = 0; i < extraLinks; ++i) {
      const std::size_t a = rng_.uniform(n);
      const std::size_t b = rng_.uniform(n);
      if (a != b) linkNodes(*nodes_[a], *nodes_[b]);
    }
  }

  util::Rng rng_{7};
  sim::Simulator sim_;
  sim::Network net_{sim_, sim::LatencyModel{5 * kMillisecond, 0, 0.0}, rng_};
  std::vector<std::unique_ptr<FloodingNode>> nodes_;
};

TEST_F(FloodingTest, FindsValueWithinTtl) {
  buildRing(10);
  const OverlayId key = OverlayId::hash("k");
  nodes_[3]->publish(key, toBytes("v"));
  std::optional<util::Bytes> found;
  nodes_[0]->search(key, /*ttl=*/5, 10 * kSecond,
                    [&](std::optional<util::Bytes> v) { found = v; });
  sim_.run();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, toBytes("v"));
}

TEST_F(FloodingTest, TtlLimitsReach) {
  buildRing(20);
  const OverlayId key = OverlayId::hash("far");
  nodes_[10]->publish(key, toBytes("v"));  // 10 hops away on the ring
  std::optional<util::Bytes> found = toBytes("sentinel");
  nodes_[0]->search(key, /*ttl=*/3, 5 * kSecond,
                    [&](std::optional<util::Bytes> v) { found = v; });
  sim_.run();
  EXPECT_FALSE(found.has_value());
}

TEST_F(FloodingTest, LocalHitImmediate) {
  buildRing(5);
  const OverlayId key = OverlayId::hash("mine");
  nodes_[0]->publish(key, toBytes("v"));
  std::optional<util::Bytes> found;
  nodes_[0]->search(key, 1, kSecond, [&](std::optional<util::Bytes> v) { found = v; });
  sim_.run();
  EXPECT_TRUE(found.has_value());
}

TEST_F(FloodingTest, DuplicateSuppressionBoundsTraffic) {
  buildRing(12, 12);  // ring + random chords: plenty of cycles
  const OverlayId key = OverlayId::hash("nonexistent");
  nodes_[0]->search(key, 8, 5 * kSecond, [](std::optional<util::Bytes>) {});
  sim_.run();
  // Each node forwards a query at most once; with 12 nodes and ~3 links each,
  // the flood must stay far below the no-dedup explosion.
  EXPECT_LT(net_.messagesSent(), 200u);
}

// --- Gossip ---

TEST(Gossip, EntrySpreadsToAllPeers) {
  util::Rng rng(11);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{5 * kMillisecond, 0, 0.0}, rng);
  std::vector<std::unique_ptr<GossipNode>> nodes;
  GossipConfig config = gossipConfig(500 * kMillisecond, 2);
  for (int i = 0; i < 12; ++i) {
    nodes.push_back(std::make_unique<GossipNode>(net, config));
  }
  std::vector<sim::NodeAddr> peers;
  for (const auto& n : nodes) peers.push_back(n->addr());
  for (const auto& n : nodes) {
    n->setPeers(peers);
    n->start();
  }
  const OverlayId key = OverlayId::hash("rumor");
  nodes[0]->put(key, toBytes("spreading"), 1);
  sim.runUntil(30 * kSecond);
  for (const auto& n : nodes) n->stop();
  std::size_t have = 0;
  for (const auto& n : nodes) {
    if (n->get(key)) ++have;
  }
  EXPECT_EQ(have, nodes.size());
}

TEST(Gossip, NewerVersionWins) {
  util::Rng rng(12);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{5 * kMillisecond, 0, 0.0}, rng);
  GossipNode a(net, gossipConfig(200 * kMillisecond, 1));
  GossipNode b(net, gossipConfig(200 * kMillisecond, 1));
  a.setPeers({b.addr()});
  b.setPeers({a.addr()});
  const OverlayId key = OverlayId::hash("k");
  a.put(key, toBytes("old"), 1);
  b.put(key, toBytes("new"), 2);
  a.start();
  b.start();
  sim.runUntil(5 * kSecond);
  a.stop();
  b.stop();
  EXPECT_EQ(a.get(key).value(), toBytes("new"));
  EXPECT_EQ(b.get(key).value(), toBytes("new"));
  EXPECT_EQ(a.version(key).value(), 2u);
}

TEST(Gossip, UpdateHookFiresOnGossipedEntries) {
  util::Rng rng(14);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{5 * kMillisecond, 0, 0.0}, rng);
  GossipNode a(net, gossipConfig(200 * kMillisecond, 1));
  GossipNode b(net, gossipConfig(200 * kMillisecond, 1));
  a.setPeers({b.addr()});
  b.setPeers({a.addr()});
  std::vector<OverlayId> arrived;
  b.onUpdate([&](const OverlayId& key, const util::Bytes&) {
    arrived.push_back(key);
  });
  const OverlayId key = OverlayId::hash("hooked");
  a.put(key, toBytes("v"), 1);
  a.start();
  b.start();
  sim.runUntil(3 * kSecond);
  a.stop();
  b.stop();
  ASSERT_EQ(arrived.size(), 1u);
  EXPECT_EQ(arrived[0], key);
}

TEST(Gossip, StaleVersionDoesNotOverwrite) {
  util::Rng rng(13);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  GossipNode a(net);
  const OverlayId key = OverlayId::hash("k");
  a.put(key, toBytes("v2"), 2);
  a.put(key, toBytes("v1"), 1);
  EXPECT_EQ(a.get(key).value(), toBytes("v2"));
}

// A sync reply may request a key the node does not hold (a corrupted reply
// still passes validation). The entries frame sent back must count only the
// entries it carries, or the receiver reads past its end.
TEST(Gossip, EntriesFrameCountsOnlyHeldKeys) {
  util::Rng rng(15);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{5 * kMillisecond, 0, 0.0}, rng);
  GossipNode node(net, gossipConfig(200 * kMillisecond, 1));
  const OverlayId held = OverlayId::hash("held");
  const OverlayId missing = OverlayId::hash("missing");
  node.put(held, toBytes("v"), 3);

  // A scripted peer: answers each digest with no entries and a request for
  // both keys, and keeps every entries frame it receives.
  net::RpcEndpoint peer(net);
  peer.onRequest("gossip.digest",
                 [&](sim::NodeAddr from, util::BytesView, net::RpcId id) {
                   util::Writer w = net::RpcEndpoint::frame();
                   w.u32(0);
                   w.u32(2);
                   w.raw(util::BytesView(held.bytes));
                   w.raw(util::BytesView(missing.bytes));
                   peer.reply(from, "gossip.sync", id, std::move(w));
                 });
  std::vector<util::Bytes> frames;
  peer.onMessage("gossip.entries",
                 [&](sim::NodeAddr, util::BytesView payload) {
                   frames.emplace_back(payload.begin(), payload.end());
                 });
  node.setPeers({peer.addr()});
  node.start();
  sim.runUntil(100 * kMillisecond);  // one round
  node.stop();

  ASSERT_EQ(frames.size(), 1u);
  util::Reader r(frames[0]);
  EXPECT_EQ(r.u32(), 1u);
  EXPECT_EQ(r.raw(kIdBytes), util::Bytes(held.bytes.begin(), held.bytes.end()));
  EXPECT_EQ(r.u64(), 3u);
  EXPECT_EQ(r.bytes(), toBytes("v"));
  EXPECT_NO_THROW(r.expectEnd());
}

// --- Super-peer ---

TEST(SuperPeer, CrossSuperPeerSearch) {
  util::Rng rng(17);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{5 * kMillisecond, 0, 0.0}, rng);
  SuperPeer sp1(net);
  SuperPeer sp2(net);
  sp1.setPeers({sp2.addr()});
  sp2.setPeers({sp1.addr()});
  LeafPeer leafA(net, sp1.addr());
  LeafPeer leafB(net, sp2.addr());

  const OverlayId key = OverlayId::hash("b-content");
  leafB.publish(key, toBytes("value-b"));
  sim.run();
  EXPECT_EQ(sp2.indexSize(), 1u);

  std::optional<util::Bytes> found;
  leafA.search(key, 10 * kSecond, [&](std::optional<util::Bytes> v) { found = v; });
  sim.run();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, toBytes("value-b"));
}

TEST(SuperPeer, MissTimesOut) {
  util::Rng rng(18);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{5 * kMillisecond, 0, 0.0}, rng);
  SuperPeer sp(net);
  LeafPeer leaf(net, sp.addr());
  bool called = false;
  std::optional<util::Bytes> found;
  leaf.search(OverlayId::hash("nothing"), kSecond,
              [&](std::optional<util::Bytes> v) {
                called = true;
                found = v;
              });
  sim.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(found.has_value());
}

// --- Hybrid ---

TEST(Hybrid, CacheServesPopularDhtServesRare) {
  util::Rng rng(21);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{5 * kMillisecond, 0, 0.0}, rng);
  const KademliaConfig kconfig = kademliaConfig(8);
  GossipConfig gconfig = gossipConfig(500 * kMillisecond, 2);

  std::vector<std::unique_ptr<HybridNode>> nodes;
  for (int i = 0; i < 15; ++i) {
    nodes.push_back(std::make_unique<HybridNode>(net, OverlayId::random(rng),
                                                 kconfig, gconfig));
  }
  const Contact seed{nodes[0]->dht().id(), nodes[0]->dht().addr()};
  std::vector<sim::NodeAddr> cachePeers;
  for (const auto& n : nodes) cachePeers.push_back(n->cache().addr());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) nodes[i]->dht().bootstrap(seed);
    nodes[i]->cache().setPeers(cachePeers);
    sim.run();  // caches not started yet, so the queue drains
  }

  const OverlayId popular = OverlayId::hash("popular");
  const OverlayId rare = OverlayId::hash("rare");
  nodes[1]->publish(popular, toBytes("pop"), /*seedCache=*/true);
  nodes[2]->publish(rare, toBytes("rare"), /*seedCache=*/false);
  sim.run();
  // Let gossip spread the popular item, then stop the periodic rounds so the
  // final sim.run() drains instead of gossiping forever.
  for (const auto& n : nodes) n->cache().start();
  sim.runUntil(sim.now() + 20 * kSecond);
  for (const auto& n : nodes) n->cache().stop();

  HybridLookupResult popResult;
  nodes[10]->lookup(popular, [&](HybridLookupResult r) { popResult = r; });
  sim.run();
  ASSERT_TRUE(popResult.value.has_value());
  EXPECT_TRUE(popResult.fromCache);
  EXPECT_EQ(popResult.messagesSent, 0u);

  HybridLookupResult rareResult;
  nodes[10]->lookup(rare, [&](HybridLookupResult r) { rareResult = r; });
  sim.run();
  ASSERT_TRUE(rareResult.value.has_value());
  // The rare item was never gossiped: it comes through the DHT tier (possibly
  // from the local DHT replica if node 10 happens to hold one).
  EXPECT_FALSE(rareResult.fromCache);
}

// --- Federation ---

TEST(Federation, CrossServerQuery) {
  util::Rng rng(23);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{5 * kMillisecond, 0, 0.0}, rng);
  FederationDirectory directory;
  FederatedServer s1(net, directory);
  FederatedServer s2(net, directory);
  directory.assign("alice", s1.addr());
  directory.assign("bob", s2.addr());
  s1.storeLocal("alice", "profile", toBytes("alice-profile"));
  s2.storeLocal("bob", "profile", toBytes("bob-profile"));

  // Query for bob via s1 (cross-server forward).
  std::optional<util::Bytes> found;
  s1.query("bob", "profile", 5 * kSecond,
           [&](std::optional<util::Bytes> v) { found = v; });
  sim.run();
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(*found, toBytes("bob-profile"));

  // Local query stays local.
  std::optional<util::Bytes> local;
  s1.query("alice", "profile", 5 * kSecond,
           [&](std::optional<util::Bytes> v) { local = v; });
  sim.run();
  EXPECT_TRUE(local.has_value());
}

TEST(Federation, NoServerHasGlobalView) {
  util::Rng rng(24);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  FederationDirectory directory;
  FederatedServer s1(net, directory);
  FederatedServer s2(net, directory);
  FederatedServer s3(net, directory);
  for (int i = 0; i < 30; ++i) {
    const std::string user = "u" + std::to_string(i);
    FederatedServer* home = (i % 3 == 0) ? &s1 : (i % 3 == 1) ? &s2 : &s3;
    directory.assign(user, home->addr());
    home->storeLocal(user, "d", toBytes("x"));
  }
  const auto views = directory.viewSizes();
  EXPECT_EQ(views.size(), 3u);
  for (const auto& [server, count] : views) {
    EXPECT_EQ(count, 10u);  // each server sees only a third of the users
  }
  EXPECT_EQ(s1.localUserCount(), 10u);
}

TEST(Federation, UnknownUserFails) {
  util::Rng rng(25);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  FederationDirectory directory;
  FederatedServer s1(net, directory);
  bool called = false;
  std::optional<util::Bytes> found = toBytes("sentinel");
  s1.query("ghost", "profile", kSecond, [&](std::optional<util::Bytes> v) {
    called = true;
    found = v;
  });
  sim.run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(found.has_value());
}

// --- Replication / availability ---

TEST(Replication, AvailabilityRequiresOneOnlineReplica) {
  util::Rng rng(27);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  std::vector<sim::NodeAddr> nodes;
  for (int i = 0; i < 10; ++i) nodes.push_back(net.addNode());
  ReplicationManager manager(net);
  const OverlayId item = OverlayId::hash("item");
  const auto replicas = manager.place(item, 3, nodes);
  ASSERT_EQ(replicas.size(), 3u);
  EXPECT_TRUE(manager.available(item));
  EXPECT_EQ(manager.onlineReplicas(item), 3u);

  net.setOnline(replicas[0], false);
  net.setOnline(replicas[1], false);
  EXPECT_TRUE(manager.available(item));
  net.setOnline(replicas[2], false);
  EXPECT_FALSE(manager.available(item));
}

TEST(Replication, MoreReplicasMoreAvailabilityUnderChurn) {
  util::Rng rng(29);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  std::vector<sim::NodeAddr> nodes;
  for (int i = 0; i < 100; ++i) nodes.push_back(net.addNode());
  sim::ChurnConfig churnConfig{300, 300, 0.5};  // 50% expected availability
  sim::ChurnProcess churn(net, churnConfig, nodes);

  ReplicationManager manager(net);
  std::vector<OverlayId> itemsK1;
  std::vector<OverlayId> itemsK4;
  for (int i = 0; i < 40; ++i) {
    const OverlayId a = OverlayId::hash("k1-" + std::to_string(i));
    const OverlayId b = OverlayId::hash("k4-" + std::to_string(i));
    manager.place(a, 1, nodes);
    manager.place(b, 4, nodes);
    itemsK1.push_back(a);
    itemsK4.push_back(b);
  }
  AvailabilityProbe probe1(manager, itemsK1);
  AvailabilityProbe probe4(manager, itemsK4);
  probe1.schedule(sim, 60 * kSecond, 30);
  probe4.schedule(sim, 60 * kSecond, 30);
  sim.runUntil(31 * 60 * kSecond);
  churn.stop();

  EXPECT_NEAR(probe1.meanAvailability(), 0.5, 0.15);
  EXPECT_GT(probe4.meanAvailability(), probe1.meanAvailability() + 0.2);
  EXPECT_GT(probe4.meanAvailability(), 0.85);
}

TEST(Replication, ObserverViewSizes) {
  util::Rng rng(31);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  std::vector<sim::NodeAddr> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(net.addNode());
  ReplicationManager manager(net);
  for (int i = 0; i < 20; ++i) {
    manager.place(OverlayId::hash("i" + std::to_string(i)), 2, nodes);
  }
  const auto views = manager.observerViewSizes();
  std::size_t total = 0;
  for (const auto& [node, count] : views) total += count;
  EXPECT_EQ(total, 40u);  // 20 items x 2 replicas
}

TEST(Replication, RepairRestoresTargetOnlineReplicas) {
  util::Rng rng(35);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  std::vector<sim::NodeAddr> nodes;
  for (int i = 0; i < 20; ++i) nodes.push_back(net.addNode());
  ReplicationManager manager(net);
  const OverlayId item = OverlayId::hash("repairable");
  const auto replicas = manager.place(item, 3, nodes);
  // Two replicas depart permanently.
  net.setOnline(replicas[0], false);
  net.setOnline(replicas[1], false);
  EXPECT_EQ(manager.onlineReplicas(item), 1u);
  const std::size_t added = manager.repair(nodes);
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(manager.onlineReplicas(item), 3u);
  // A second pass is a no-op.
  EXPECT_EQ(manager.repair(nodes), 0u);
}

TEST(Replication, SocialPlacementConvergesUnderChurnAndFaults) {
  // Social placement under the PR 1 fault machinery: exponential churn plus
  // a 20% global drop storm and a partition that heals. Faults shape message
  // delivery, churn shapes the online set the repair loop recruits from —
  // after everything heals, every item must be back at its full replication
  // factor with no node holding two replicas of the same item.
  util::Rng rng(42);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  std::vector<sim::NodeAddr> nodes;
  for (int i = 0; i < 30; ++i) nodes.push_back(net.addNode());

  util::Rng graphRng(7);
  const social::SocialGraph graph =
      social::zipfFollower(30, 4, 1.0, graphRng);
  SocialPolicy policy(net, {&graph});
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    policy.bind(nodes[i], social::syntheticUser(i));
    policy.bindId(nodes[i], OverlayId::hash("n" + std::to_string(i)));
  }

  sim::FaultPlan plan;
  plan.between(2 * 60 * kSecond, 8 * 60 * kSecond,
               sim::FaultRule::global().drop(0.2));
  plan.partition("island", {nodes[0], nodes[1], nodes[2]}, 3 * 60 * kSecond,
                 /*heal=*/9 * 60 * kSecond);
  net.setFaultPlan(&plan);

  ReplicationManager manager(net, &policy);
  std::vector<OverlayId> items;
  for (int i = 0; i < 20; ++i) {
    const OverlayId item = OverlayId::hash("wall-" + std::to_string(i));
    const auto chosen =
        manager.place(item, 3, nodes, social::syntheticUser(i));
    EXPECT_EQ(chosen.size(), 3u);
    items.push_back(item);
  }

  sim::ChurnConfig churnConfig{240, 120, 0.8};
  sim::ChurnProcess churn(net, churnConfig, nodes);
  for (int minute = 1; minute <= 15; ++minute) {
    sim.schedule(minute * 60 * kSecond, [&] {
      manager.repair(nodes);
      for (const OverlayId& item : items) {
        const auto& replicas = manager.replicasOf(item);
        for (std::size_t i = 1; i < replicas.size(); ++i) {
          ASSERT_LT(replicas[i - 1], replicas[i])
              << "duplicate replica placed on one node";
        }
      }
    });
  }
  sim.runUntil(16 * 60 * kSecond);
  churn.stop();
  net.setFaultPlan(nullptr);

  // Everything heals: one final repair restores every item to at least its
  // full factor (repair never drops, so sets recruited during churn can
  // exceed the target once offline replicas return).
  for (const sim::NodeAddr node : nodes) net.setOnline(node, true);
  manager.repair(nodes);
  for (const OverlayId& item : items) {
    EXPECT_GE(manager.onlineReplicas(item), 3u);
    const auto& replicas = manager.replicasOf(item);
    for (std::size_t i = 1; i < replicas.size(); ++i) {
      EXPECT_LT(replicas[i - 1], replicas[i]);
    }
  }
}

TEST(Replication, RepairSkipsHealthyItems) {
  util::Rng rng(36);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  std::vector<sim::NodeAddr> nodes;
  for (int i = 0; i < 10; ++i) nodes.push_back(net.addNode());
  ReplicationManager manager(net);
  manager.place(OverlayId::hash("healthy"), 2, nodes);
  EXPECT_EQ(manager.repair(nodes), 0u);
}

// --- Location tree (Vis-a-vis, sec II-B) ---

TEST(LocationTree, RegisterAndRegionQueries) {
  LocationTree tree;
  EXPECT_TRUE(tree.registerUser("alice", "tr/istanbul/kadikoy"));
  EXPECT_TRUE(tree.registerUser("bob", "tr/istanbul/besiktas"));
  EXPECT_TRUE(tree.registerUser("carol", "tr/ankara"));
  EXPECT_TRUE(tree.registerUser("dave", "de/berlin"));

  EXPECT_EQ(tree.usersIn("tr/istanbul"),
            (std::vector<social::UserId>{"alice", "bob"}));
  EXPECT_EQ(tree.usersIn("tr").size(), 3u);
  EXPECT_EQ(tree.usersIn("de"), (std::vector<social::UserId>{"dave"}));
  EXPECT_TRUE(tree.usersIn("us").empty());
  EXPECT_EQ(tree.usersExactlyAt("tr/istanbul").size(), 0u);
  EXPECT_EQ(tree.usersExactlyAt("tr/ankara").size(), 1u);
  EXPECT_EQ(tree.userCount(), 4u);
}

TEST(LocationTree, PathsAreCaseNormalizedAndValidated) {
  LocationTree tree;
  EXPECT_TRUE(tree.registerUser("alice", "TR/Istanbul"));
  EXPECT_EQ(tree.usersIn("tr/istanbul"),
            (std::vector<social::UserId>{"alice"}));
  EXPECT_FALSE(tree.registerUser("bob", ""));
  EXPECT_FALSE(tree.registerUser("bob", "tr//kadikoy"));
}

TEST(LocationTree, MovingUserUpdatesRegistration) {
  LocationTree tree;
  tree.registerUser("alice", "tr/istanbul");
  tree.registerUser("alice", "de/berlin");
  EXPECT_TRUE(tree.usersIn("tr").empty());
  EXPECT_EQ(tree.locationOf("alice").value(), "de/berlin");
}

TEST(LocationTree, CoordinatorElectionAndHandoff) {
  LocationTree tree;
  tree.registerUser("alice", "tr/istanbul");
  tree.registerUser("bob", "tr/istanbul");
  EXPECT_EQ(tree.coordinatorOf("tr/istanbul").value(), "alice");
  EXPECT_EQ(tree.coordinatorOf("tr").value(), "alice");
  // Coordinator leaves: bob takes over.
  tree.deregisterUser("alice");
  EXPECT_EQ(tree.coordinatorOf("tr/istanbul").value(), "bob");
  EXPECT_EQ(tree.coordinatorOf("tr").value(), "bob");
}

TEST(LocationTree, QueriesTouchOnlyTheSubtree) {
  LocationTree tree;
  for (int c = 0; c < 5; ++c) {
    for (int i = 0; i < 4; ++i) {
      tree.registerUser("u" + std::to_string(c * 10 + i),
                        "cc" + std::to_string(c) + "/city" + std::to_string(i));
    }
  }
  // A city query touches far fewer nodes than the whole tree.
  EXPECT_LT(tree.nodesTouchedBy("cc0/city0"), tree.regionCount() / 2);
  EXPECT_GT(tree.regionCount(), 20u);
}

TEST(Replication, BadPlacementThrows) {
  util::Rng rng(33);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{}, rng);
  ReplicationManager manager(net);
  EXPECT_THROW(manager.place(OverlayId::hash("x"), 0, {net.addNode()}),
               util::NetError);
  EXPECT_THROW(manager.place(OverlayId::hash("x"), 1, {}), util::NetError);
}

}  // namespace
}  // namespace dosn::overlay

// Fault-injection property sweep: the availability threats the paper's §I
// motivates (flaky links, partitions, corruption, duplication) scripted
// against the deterministic simulator, and the overlay defenses (retry with
// exponential backoff, AEAD/codec rejection) that survive them.
//
//  - FaultPlan semantics: windows, asymmetric links, partitions + heal,
//    duplication, corruption, delay spikes, metrics counters;
//  - determinism: same seed + same plan => byte-identical delivery trace;
//  - Kademlia under 20% drop + a healed partition: retries lift lookup
//    success measurably and above an absolute threshold;
//  - corrupted payloads never crash a handler and never decrypt to anything
//    but the original plaintext;
//  - single-shot timeout paths in flooding/super-peer/federation: a fully
//    dropped query invokes its callback exactly once, at the timeout, never
//    twice and never late.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "dosn/crypto/aead.hpp"
#include "dosn/overlay/federation.hpp"
#include "dosn/overlay/flooding.hpp"
#include "dosn/overlay/kademlia.hpp"
#include "dosn/overlay/replication.hpp"
#include "dosn/overlay/superpeer.hpp"
#include "dosn/sim/faults.hpp"
#include "dosn/sim/metrics.hpp"
#include "dosn/sim/network.hpp"

namespace dosn {
namespace {

using overlay::Contact;
using overlay::KademliaConfig;
using overlay::KademliaNode;
using overlay::OverlayId;
using overlay::RetryPolicy;
using sim::FaultPlan;
using sim::FaultRule;
using sim::kMillisecond;
using sim::kSecond;
using sim::Message;
using sim::NodeAddr;
using sim::SimTime;
using util::toBytes;

// --- FaultPlan semantics ---

class FaultPlanTest : public ::testing::Test {
 protected:
  util::Rng rng_{42};
  sim::Simulator sim_;
  sim::Network net_{sim_, sim::LatencyModel{10 * kMillisecond, 0, 0.0}, rng_};
  sim::Metrics metrics_;
  FaultPlan plan_;

  void SetUp() override {
    net_.setMetrics(&metrics_);
    net_.setFaultPlan(&plan_);
  }

  int countDeliveries(NodeAddr to) {
    auto counter = std::make_shared<int>(0);
    net_.setHandler(to, [counter](NodeAddr, const Message&) { ++*counter; });
    deliveryCounts_.push_back(counter);
    return static_cast<int>(deliveryCounts_.size()) - 1;
  }
  int delivered(int idx) const { return *deliveryCounts_[idx]; }

  std::vector<std::shared_ptr<int>> deliveryCounts_;
};

TEST_F(FaultPlanTest, AsymmetricLinkDrop) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  plan_.add(FaultRule::link(a, b).drop(1.0));
  const int atA = countDeliveries(a);
  const int atB = countDeliveries(b);
  net_.send(a, b, Message{"m", {}});
  net_.send(b, a, Message{"m", {}});
  sim_.run();
  EXPECT_EQ(delivered(atB), 0);  // a -> b severed
  EXPECT_EQ(delivered(atA), 1);  // b -> a untouched
  EXPECT_EQ(metrics_.counter("net.dropped.fault"), 1u);
  EXPECT_EQ(net_.messagesSent(), 2u);
  EXPECT_EQ(net_.messagesDelivered(), 1u);
  EXPECT_EQ(net_.messagesDropped(), 1u);
}

TEST_F(FaultPlanTest, RuleWindowsActivateAndExpire) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  plan_.between(1 * kSecond, 2 * kSecond, FaultRule::global().drop(1.0));
  const int atB = countDeliveries(b);
  sim_.schedule(0, [&] { net_.send(a, b, Message{"before", {}}); });
  sim_.schedule(1500 * kMillisecond, [&] { net_.send(a, b, Message{"during", {}}); });
  // [t1, t2) is half-open: a message at exactly t2 is unaffected.
  sim_.schedule(2 * kSecond, [&] { net_.send(a, b, Message{"after", {}}); });
  sim_.run();
  EXPECT_EQ(delivered(atB), 2);
  EXPECT_EQ(net_.deliveredByType().count("during"), 0u);
  EXPECT_EQ(net_.deliveredByType().at("before"), 1u);
  EXPECT_EQ(net_.deliveredByType().at("after"), 1u);
}

TEST_F(FaultPlanTest, PartitionSeversUntilHeal) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  const NodeAddr c = net_.addNode();
  plan_.partition("island", {a, b}, 1 * kSecond, 5 * kSecond);
  const int atA = countDeliveries(a);
  const int atB = countDeliveries(b);
  const int atC = countDeliveries(c);
  // Before the partition starts: boundary traffic flows.
  sim_.schedule(0, [&] { net_.send(a, c, Message{"m", {}}); });
  // During: island <-> rest severed both ways, intra-island traffic fine.
  sim_.schedule(2 * kSecond, [&] {
    net_.send(a, c, Message{"m", {}});
    net_.send(c, b, Message{"m", {}});
    net_.send(a, b, Message{"m", {}});
  });
  // After heal: flows again.
  sim_.schedule(6 * kSecond, [&] { net_.send(c, a, Message{"m", {}}); });
  sim_.run();
  EXPECT_EQ(delivered(atC), 1);  // only the pre-partition message
  EXPECT_EQ(delivered(atB), 1);  // the intra-island message
  EXPECT_EQ(delivered(atA), 1);  // the post-heal message
  EXPECT_EQ(metrics_.counter("net.partitioned"), 2u);
}

TEST_F(FaultPlanTest, DuplicationDeliversTwice) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  plan_.add(FaultRule::link(a, b).duplicate(1.0));
  const int atB = countDeliveries(b);
  net_.send(a, b, Message{"m", toBytes("payload")});
  sim_.run();
  EXPECT_EQ(delivered(atB), 2);
  EXPECT_EQ(net_.messagesSent(), 1u);
  EXPECT_EQ(net_.messagesDelivered(), 2u);
  EXPECT_EQ(metrics_.counter("net.duplicated"), 1u);
}

TEST_F(FaultPlanTest, CorruptionFlipsBitsSameLength) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  plan_.add(FaultRule::node(b).corrupt(1.0));
  const util::Bytes original = rng_.bytes(64);
  util::Bytes received;
  net_.setHandler(b, [&](NodeAddr, const Message& msg) {
    received.assign(msg.payload.begin(), msg.payload.end());
  });
  net_.send(a, b, Message{"m", util::Bytes(original)});
  sim_.run();
  ASSERT_EQ(received.size(), original.size());
  EXPECT_NE(received, original);
  EXPECT_EQ(metrics_.counter("net.corrupted"), 1u);
}

// A message's payload is one shared buffer: both deliveries of a duplicated
// message hold the buffer the sender built, not copies of it.
TEST_F(FaultPlanTest, DuplicatesShareOneBuffer) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  plan_.add(FaultRule::link(a, b).duplicate(1.0));
  const sim::Payload sent(toBytes("one buffer, two deliveries"));
  std::vector<sim::Payload> received;
  net_.setHandler(b, [&](NodeAddr, const Message& msg) {
    received.push_back(msg.payload);
  });
  net_.send(a, b, Message{"m", sent});
  sim_.run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0].data(), sent.data());
  EXPECT_EQ(received[1].data(), sent.data());
}

// Corruption copies before it flips: the sender's buffer keeps its bytes,
// and the flipped copy is made once, before duplication, so both
// deliveries share it.
TEST_F(FaultPlanTest, CorruptionFlipsACopyThatDuplicatesShare) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  plan_.add(FaultRule::link(a, b).duplicate(1.0).corrupt(1.0));
  const util::Bytes original = rng_.bytes(64);
  const sim::Payload sent{util::Bytes(original)};
  std::vector<sim::Payload> received;
  net_.setHandler(b, [&](NodeAddr, const Message& msg) {
    received.push_back(msg.payload);
  });
  net_.send(a, b, Message{"m", sent});
  sim_.run();
  EXPECT_TRUE(std::equal(sent.begin(), sent.end(), original.begin(),
                         original.end()));
  ASSERT_EQ(received.size(), 2u);
  EXPECT_NE(received[0].data(), sent.data());
  EXPECT_EQ(received[1].data(), received[0].data());
  ASSERT_EQ(received[0].size(), original.size());
  EXPECT_FALSE(std::equal(received[0].begin(), received[0].end(),
                          original.begin(), original.end()));
  EXPECT_EQ(metrics_.counter("net.corrupted"), 1u);
}

TEST_F(FaultPlanTest, DelaySpikePostponesDelivery) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  plan_.add(FaultRule::link(a, b).delay(2 * kSecond));
  SimTime deliveredAt = 0;
  net_.setHandler(b, [&](NodeAddr, const Message&) { deliveredAt = sim_.now(); });
  net_.send(a, b, Message{"m", {}});
  sim_.run();
  EXPECT_EQ(deliveredAt, 2 * kSecond + 10 * kMillisecond);
}

TEST_F(FaultPlanTest, DropOverrideReplacesBaseLoss) {
  // The rule's drop(0.0) must override a lossy link back to reliable.
  util::Rng rng(7);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{kMillisecond, 0, 0.9}, rng);
  FaultPlan plan;
  plan.add(FaultRule::global().drop(0.0));
  net.setFaultPlan(&plan);
  const NodeAddr a = net.addNode();
  const NodeAddr b = net.addNode();
  int count = 0;
  net.setHandler(b, [&](NodeAddr, const Message&) { ++count; });
  for (int i = 0; i < 50; ++i) net.send(a, b, Message{"m", {}});
  sim.run();
  EXPECT_EQ(count, 50);
}

// --- Determinism: same seed + same plan => byte-identical delivery trace ---

struct TraceEntry {
  SimTime at;
  NodeAddr from;
  NodeAddr to;
  std::string type;
  util::Bytes payload;

  bool operator==(const TraceEntry&) const = default;
};

std::vector<TraceEntry> runFaultyWorkload(std::uint64_t seed) {
  util::Rng rng(seed);
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{10 * kMillisecond, 5 * kMillisecond, 0.05},
                   rng);
  std::vector<NodeAddr> nodes;
  for (int i = 0; i < 8; ++i) nodes.push_back(net.addNode());

  FaultPlan plan;
  plan.between(2 * kSecond, 6 * kSecond, FaultRule::global().drop(0.25));
  plan.add(FaultRule::link(nodes[0], nodes[1]).duplicate(0.5));
  plan.at(1 * kSecond, FaultRule::node(nodes[2]).corrupt(0.5));
  plan.add(FaultRule::link(nodes[3], nodes[4]).delay(800 * kMillisecond, 0.5));
  plan.partition("racks", {nodes[5], nodes[6]}, 3 * kSecond, 7 * kSecond);
  net.setFaultPlan(&plan);

  auto trace = std::make_shared<std::vector<TraceEntry>>();
  for (const NodeAddr node : nodes) {
    net.setHandler(node, [trace, node, &simulator](NodeAddr from,
                                                   const Message& msg) {
      trace->push_back({simulator.now(), from, node, msg.type,
                        util::Bytes(msg.payload.begin(), msg.payload.end())});
    });
  }
  // Fixed message schedule; all randomness (loss, jitter, fault draws) flows
  // through the seeded rng inside the network.
  for (std::uint64_t t = 0; t < 100; ++t) {
    const NodeAddr from = nodes[t % nodes.size()];
    const NodeAddr to = nodes[(t * 3 + 1) % nodes.size()];
    simulator.scheduleAt(t * 100 * kMillisecond, [&net, from, to, t] {
      util::Bytes payload(1 + t % 32, static_cast<std::uint8_t>(t));
      net.send(from, to, Message{"w" + std::to_string(t % 4), std::move(payload)});
    });
  }
  simulator.run();
  return *trace;
}

TEST(FaultDeterminism, SameSeedSamePlanSameTrace) {
  const auto first = runFaultyWorkload(1234);
  const auto second = runFaultyWorkload(1234);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // byte-identical, corruption bits included
}

TEST(FaultDeterminism, DifferentSeedDifferentTrace) {
  EXPECT_NE(runFaultyWorkload(1234), runFaultyWorkload(5678));
}

// --- Kademlia under 20% drop + healed partition: retries earn their keep ---

struct SwarmOutcome {
  std::size_t successes = 0;
  std::size_t lookups = 0;
  std::uint64_t retries = 0;
};

SwarmOutcome runKademliaUnderFaults(bool withRetries) {
  constexpr std::size_t kPeers = 30;
  constexpr std::size_t kItems = 20;
  constexpr std::size_t kLookups = 40;

  util::Rng rng(99);
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{10 * kMillisecond, 5 * kMillisecond, 0.0},
                   rng);
  sim::Metrics metrics;
  net.setMetrics(&metrics);

  KademliaConfig config;
  config.k = 8;
  config.alpha = 3;
  config.rpcTimeout = 250 * kMillisecond;
  config.storeWidth = 2;  // few replicas: the find_value RPC has to land
  if (withRetries) {
    config.retry = RetryPolicy{4, 200 * kMillisecond, 2.0};
  }

  std::vector<std::unique_ptr<KademliaNode>> peers;
  for (std::size_t i = 0; i < kPeers; ++i) {
    peers.push_back(
        std::make_unique<KademliaNode>(net, OverlayId::random(rng), config));
  }
  const Contact seed{peers[0]->id(), peers[0]->addr()};
  for (std::size_t i = 1; i < kPeers; ++i) {
    peers[i]->bootstrap(seed);
    simulator.run();
  }
  std::vector<OverlayId> keys;
  for (std::size_t i = 0; i < kItems; ++i) {
    keys.push_back(OverlayId::hash("faulty-" + std::to_string(i)));
    peers[i % kPeers]->store(keys.back(), toBytes("v"), {});
    simulator.run();
  }

  // Faults start only now: a healthy overlay hit by a storm + a partition.
  const SimTime t0 = simulator.now();
  FaultPlan plan;
  plan.at(t0, FaultRule::global().drop(0.20));
  std::set<NodeAddr> island;
  for (std::size_t i = 10; i < 16; ++i) island.insert(peers[i]->addr());
  plan.partition("storm-island", island, t0, t0 + 30 * kSecond);
  net.setFaultPlan(&plan);

  auto outcome = std::make_shared<SwarmOutcome>();
  outcome->lookups = kLookups;
  for (std::size_t q = 0; q < kLookups; ++q) {
    simulator.scheduleAt(t0 + q * 2 * kSecond, [&, q] {
      peers[(q * 7) % kPeers]->findValue(keys[q % kItems],
                                         [outcome](overlay::LookupResult r) {
                                           if (r.value) ++outcome->successes;
                                         });
    });
  }
  simulator.run();
  for (const auto& peer : peers) outcome->retries += peer->rpcRetries();
  if (withRetries) {
    // The per-type metrics see every retry the nodes made.
    std::uint64_t metricRetries = 0;
    for (const auto& [name, value] : metrics.countersWithPrefix("rpc.kad.")) {
      if (name.ends_with(".retries")) metricRetries += value;
    }
    EXPECT_EQ(metricRetries, outcome->retries);
  }
  return *outcome;
}

TEST(KademliaFaults, RetriesLiftLookupSuccessUnderDropAndPartition) {
  const SwarmOutcome without = runKademliaUnderFaults(false);
  const SwarmOutcome with = runKademliaUnderFaults(true);
  EXPECT_EQ(without.retries, 0u);
  EXPECT_GT(with.retries, 0u);
  // Absolute bar: with retries the overlay still answers >= 75% of lookups
  // under a 20% storm plus a six-node island that heals mid-run.
  EXPECT_GE(with.successes, (with.lookups * 3) / 4)
      << with.successes << "/" << with.lookups;
  // And the improvement over single-shot RPCs is measurable.
  EXPECT_GT(with.successes, without.successes)
      << "with=" << with.successes << " without=" << without.successes;
}

// --- Corruption: handlers reject cleanly, AEAD never lies ---

TEST(CorruptionFaults, CorruptedPayloadsNeverCrashOrForgeValues) {
  constexpr std::size_t kPeers = 20;
  constexpr std::size_t kItems = 15;

  util::Rng rng(1717);
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{10 * kMillisecond, 5 * kMillisecond, 0.0},
                   rng);
  sim::Metrics metrics;
  net.setMetrics(&metrics);

  KademliaConfig config;
  config.k = 8;
  config.alpha = 3;
  config.rpcTimeout = 250 * kMillisecond;
  config.retry = RetryPolicy{3, 100 * kMillisecond, 2.0};

  std::vector<std::unique_ptr<KademliaNode>> peers;
  for (std::size_t i = 0; i < kPeers; ++i) {
    peers.push_back(
        std::make_unique<KademliaNode>(net, OverlayId::random(rng), config));
  }
  const Contact seed{peers[0]->id(), peers[0]->addr()};
  for (std::size_t i = 1; i < kPeers; ++i) {
    peers[i]->bootstrap(seed);
    simulator.run();
  }

  // Store AEAD-sealed payloads while the network is still clean so the
  // ground truth is well-defined.
  const util::Bytes key = rng.bytes(32);
  std::vector<OverlayId> ids;
  std::vector<util::Bytes> plaintexts;
  for (std::size_t i = 0; i < kItems; ++i) {
    ids.push_back(OverlayId::hash("sealed-" + std::to_string(i)));
    plaintexts.push_back(rng.bytes(64 + i));
    const util::Bytes box = crypto::sealWithNonce(key, plaintexts[i], rng);
    peers[i % kPeers]->store(ids[i], box, {});
    simulator.run();
  }

  // Now every third message gets its bits flipped. Every handler (kad RPCs,
  // codec parsing, AEAD) must reject garbage without crashing, and a fetch
  // that does decrypt must yield the original plaintext.
  FaultPlan plan;
  plan.add(FaultRule::global().corrupt(0.34).drop(0.05));
  net.setFaultPlan(&plan);

  std::size_t opened = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < kItems; ++i) {
      peers[rng.uniform(kPeers)]->findValue(
          ids[i], [&, i](overlay::LookupResult r) {
            if (!r.value) return;
            const auto plain = crypto::openWithNonce(key, *r.value);
            if (!plain) {
              ++rejected;  // corrupted in flight, AEAD refused — correct
              return;
            }
            ++opened;
            EXPECT_EQ(*plain, plaintexts[i]);
          });
      simulator.run();
    }
  }
  EXPECT_GT(metrics.counter("net.corrupted"), 0u);
  EXPECT_GT(opened, 0u);  // the sweep exercised the happy path too
  (void)rejected;
}

// --- Replica store/fetch RPCs: retry/backoff and single-shot failure ---

TEST(ReplicaRpc, StoreFetchRoundTripClean) {
  util::Rng rng(5);
  sim::Simulator simulator;
  sim::Network net(simulator, sim::LatencyModel{10 * kMillisecond, 0, 0.0}, rng);
  overlay::ReplicaHost host(net);
  overlay::ReplicaClient client(net);
  const OverlayId item = OverlayId::hash("item");
  bool stored = false;
  client.store(host.addr(), item, toBytes("hello"), [&](bool ok) { stored = ok; });
  simulator.run();
  EXPECT_TRUE(stored);
  ASSERT_TRUE(host.hasBlock(item));
  EXPECT_EQ(host.store().get(item).value(), toBytes("hello"));
  std::optional<util::Bytes> fetched;
  client.fetch(host.addr(), item, [&](std::optional<util::Bytes> v) {
    fetched = std::move(v);
  });
  simulator.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, toBytes("hello"));
  EXPECT_EQ(client.rpcRetries(), 0u);
}

TEST(ReplicaRpc, RetriesRecoverFromLossyHost) {
  util::Rng rng(6);
  sim::Simulator simulator;
  sim::Network net(simulator, sim::LatencyModel{10 * kMillisecond, 0, 0.0}, rng);
  sim::Metrics metrics;
  net.setMetrics(&metrics);
  overlay::ReplicaHost host(net);
  overlay::ReplicaClient client(net, RetryPolicy{6, 100 * kMillisecond, 2.0},
                                200 * kMillisecond);
  FaultPlan plan;
  plan.add(FaultRule::node(host.addr()).drop(0.4));
  net.setFaultPlan(&plan);

  const OverlayId item = OverlayId::hash("flaky");
  int storeCallbacks = 0;
  bool stored = false;
  client.store(host.addr(), item, toBytes("v"), [&](bool ok) {
    ++storeCallbacks;
    stored = ok;
  });
  simulator.run();
  EXPECT_EQ(storeCallbacks, 1);
  EXPECT_TRUE(stored);
  std::optional<util::Bytes> fetched;
  int fetchCallbacks = 0;
  client.fetch(host.addr(), item, [&](std::optional<util::Bytes> v) {
    ++fetchCallbacks;
    fetched = std::move(v);
  });
  simulator.run();
  EXPECT_EQ(fetchCallbacks, 1);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, toBytes("v"));
  EXPECT_GT(client.rpcRetries(), 0u);
  EXPECT_EQ(metrics.counter("rpc.repl.store.retries") +
                metrics.counter("rpc.repl.fetch.retries"),
            client.rpcRetries());
}

TEST(ReplicaRpc, SingleShotFailureFiresOnceAtTimeout) {
  util::Rng rng(8);
  sim::Simulator simulator;
  sim::Network net(simulator, sim::LatencyModel{10 * kMillisecond, 0, 0.0}, rng);
  overlay::ReplicaHost host(net);
  overlay::ReplicaClient client(net, RetryPolicy{1},
                                300 * kMillisecond);
  FaultPlan plan;
  plan.add(FaultRule::global().drop(1.0));
  net.setFaultPlan(&plan);

  int callbacks = 0;
  SimTime firedAt = 0;
  bool ok = true;
  client.store(host.addr(), OverlayId::hash("x"), toBytes("v"), [&](bool r) {
    ++callbacks;
    ok = r;
    firedAt = simulator.now();
  });
  simulator.runUntil(100 * kSecond);
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(ok);
  EXPECT_EQ(firedAt, 300 * kMillisecond);
  EXPECT_EQ(client.rpcFailures(), 1u);
}

// --- Single-shot timeout paths: flooding, super-peer, federation ---
// A query whose every probe is dropped must invoke its callback exactly once,
// with nullopt, at the timeout — never twice, never late.

TEST(TimeoutSingleShot, FloodingAllProbesDropped) {
  util::Rng rng(31);
  sim::Simulator simulator;
  sim::Network net(simulator, sim::LatencyModel{10 * kMillisecond, 0, 0.0}, rng);
  overlay::FloodingNode a(net, OverlayId::hash("a"));
  overlay::FloodingNode b(net, OverlayId::hash("b"));
  overlay::linkNodes(a, b);
  b.publish(OverlayId::hash("key"), toBytes("v"));

  FaultPlan plan;
  plan.add(FaultRule::global().drop(1.0));
  net.setFaultPlan(&plan);

  int callbacks = 0;
  std::optional<util::Bytes> result = toBytes("sentinel");
  SimTime firedAt = 0;
  a.search(OverlayId::hash("key"), /*ttl=*/3, /*timeout=*/2 * kSecond,
           [&](std::optional<util::Bytes> v) {
             ++callbacks;
             result = std::move(v);
             firedAt = simulator.now();
           });
  simulator.runUntil(100 * kSecond);
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(firedAt, 2 * kSecond);
}

TEST(TimeoutSingleShot, FloodingLateHitDoesNotFireTwice) {
  util::Rng rng(32);
  sim::Simulator simulator;
  sim::Network net(simulator, sim::LatencyModel{10 * kMillisecond, 0, 0.0}, rng);
  overlay::FloodingNode a(net, OverlayId::hash("a"));
  overlay::FloodingNode b(net, OverlayId::hash("b"));
  overlay::linkNodes(a, b);
  const OverlayId key = OverlayId::hash("key");
  b.publish(key, toBytes("v"));

  // The query reaches b normally but b's hit limps home after the timeout.
  FaultPlan plan;
  plan.add(FaultRule::link(b.addr(), a.addr()).delay(3 * kSecond));
  net.setFaultPlan(&plan);

  int callbacks = 0;
  std::optional<util::Bytes> result = toBytes("sentinel");
  a.search(key, /*ttl=*/2, /*timeout=*/1 * kSecond,
           [&](std::optional<util::Bytes> v) {
             ++callbacks;
             result = std::move(v);
           });
  simulator.runUntil(100 * kSecond);  // the late hit arrives around t=3s
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(result.has_value());
}

TEST(TimeoutSingleShot, SuperPeerAllProbesDropped) {
  util::Rng rng(33);
  sim::Simulator simulator;
  sim::Network net(simulator, sim::LatencyModel{10 * kMillisecond, 0, 0.0}, rng);
  overlay::SuperPeer sp(net);
  overlay::LeafPeer owner(net, sp.addr());
  overlay::LeafPeer searcher(net, sp.addr());
  const OverlayId key = OverlayId::hash("key");
  owner.publish(key, toBytes("v"));
  simulator.run();

  FaultPlan plan;
  plan.add(FaultRule::global().drop(1.0));
  net.setFaultPlan(&plan);

  int callbacks = 0;
  std::optional<util::Bytes> result = toBytes("sentinel");
  SimTime firedAt = 0;
  const SimTime start = simulator.now();
  searcher.search(key, /*timeout=*/2 * kSecond,
                  [&](std::optional<util::Bytes> v) {
                    ++callbacks;
                    result = std::move(v);
                    firedAt = simulator.now();
                  });
  simulator.runUntil(start + 100 * kSecond);
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(firedAt, start + 2 * kSecond);
}

TEST(TimeoutSingleShot, FederationAllProbesDropped) {
  util::Rng rng(34);
  sim::Simulator simulator;
  sim::Network net(simulator, sim::LatencyModel{10 * kMillisecond, 0, 0.0}, rng);
  overlay::FederationDirectory directory;
  overlay::FederatedServer home(net, directory);
  overlay::FederatedServer remote(net, directory);
  directory.assign("alice", home.addr());
  home.storeLocal("alice", "post", toBytes("v"));

  FaultPlan plan;
  plan.add(FaultRule::global().drop(1.0));
  net.setFaultPlan(&plan);

  int callbacks = 0;
  std::optional<util::Bytes> result = toBytes("sentinel");
  SimTime firedAt = 0;
  remote.query("alice", "post", /*timeout=*/2 * kSecond,
               [&](std::optional<util::Bytes> v) {
                 ++callbacks;
                 result = std::move(v);
                 firedAt = simulator.now();
               });
  simulator.runUntil(100 * kSecond);
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(firedAt, 2 * kSecond);
}

}  // namespace
}  // namespace dosn

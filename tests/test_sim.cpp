// Tests for the discrete-event simulator, network, churn and metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
#include <utility>

#include "dosn/sim/churn.hpp"
#include "dosn/sim/message_type.hpp"
#include "dosn/sim/metrics.hpp"
#include "dosn/sim/network.hpp"
#include "dosn/sim/pool.hpp"
#include "dosn/sim/simulator.hpp"
#include "dosn/util/error.hpp"

namespace dosn::sim {
namespace {

TEST(Simulator, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, TiesBreakByInsertionOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(5, [&] { order.push_back(1); });
  sim.schedule(5, [&] { order.push_back(2); });
  sim.schedule(5, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, HandlersCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) sim.schedule(10, tick);
  };
  sim.schedule(10, tick);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 50u);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int ran = 0;
  sim.schedule(10, [&] { ++ran; });
  sim.schedule(20, [&] { ++ran; });
  sim.schedule(30, [&] { ++ran; });
  sim.runUntil(20);
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(sim.now(), 20u);
  EXPECT_EQ(sim.pendingEvents(), 1u);
  sim.run();
  EXPECT_EQ(ran, 3);
}

TEST(Simulator, SchedulingInPastThrows) {
  Simulator sim;
  sim.schedule(10, [] {});
  sim.run();
  EXPECT_THROW(sim.scheduleAt(5, [] {}), util::NetError);
}

TEST(Simulator, MaxEventsGuard) {
  Simulator sim;
  std::function<void()> forever = [&] { sim.schedule(1, forever); };
  sim.schedule(1, forever);
  const std::size_t executed = sim.run(1000);
  EXPECT_EQ(executed, 1000u);
}

// --- Network ---

class NetworkTest : public ::testing::Test {
 protected:
  util::Rng rng_{42};
  Simulator sim_;
  Network net_{sim_, LatencyModel{10 * kMillisecond, 0, 0.0}, rng_};
};

TEST_F(NetworkTest, MessageDelivered) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  std::string received;
  net_.setHandler(b, [&](NodeAddr from, const Message& msg) {
    EXPECT_EQ(from, a);
    received = msg.type;
  });
  net_.send(a, b, Message{"hello", util::toBytes("x")});
  sim_.run();
  EXPECT_EQ(received, "hello");
  EXPECT_EQ(net_.messagesSent(), 1u);
  EXPECT_EQ(net_.messagesDelivered(), 1u);
}

TEST_F(NetworkTest, LatencyApplied) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  SimTime deliveredAt = 0;
  net_.setHandler(b, [&](NodeAddr, const Message&) { deliveredAt = sim_.now(); });
  net_.send(a, b, Message{"m", {}});
  sim_.run();
  EXPECT_EQ(deliveredAt, 10 * kMillisecond);
}

TEST_F(NetworkTest, OfflineSenderDropsSilently) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  int delivered = 0;
  net_.setHandler(b, [&](NodeAddr, const Message&) { ++delivered; });
  net_.setOnline(a, false);
  net_.send(a, b, Message{"m", {}});
  sim_.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net_.messagesSent(), 0u);
}

TEST_F(NetworkTest, ReceiverOfflineAtDeliveryDrops) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  int delivered = 0;
  net_.setHandler(b, [&](NodeAddr, const Message&) { ++delivered; });
  net_.send(a, b, Message{"m", {}});
  // b goes offline while the message is in flight.
  sim_.schedule(5 * kMillisecond, [&] { net_.setOnline(b, false); });
  sim_.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net_.messagesSent(), 1u);
  EXPECT_EQ(net_.messagesDelivered(), 0u);
}

TEST_F(NetworkTest, StatusHookFires) {
  const NodeAddr a = net_.addNode();
  std::vector<bool> transitions;
  net_.addStatusObserver([&](NodeAddr node, bool online) {
    EXPECT_EQ(node, a);
    transitions.push_back(online);
  });
  net_.setOnline(a, false);
  net_.setOnline(a, false);  // no-op
  net_.setOnline(a, true);
  EXPECT_EQ(transitions, (std::vector<bool>{false, true}));
}

TEST_F(NetworkTest, UnknownNodeThrows) {
  const NodeAddr a = net_.addNode();
  EXPECT_THROW(net_.send(a, 9999, Message{"m", {}}), util::NetError);
  EXPECT_THROW(net_.isOnline(9999), util::NetError);
}

TEST_F(NetworkTest, PerTypeAccounting) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  net_.setHandler(b, [](NodeAddr, const Message&) {});
  net_.send(a, b, Message{"x", util::Bytes(10, 0)});
  net_.send(a, b, Message{"x", util::Bytes(5, 0)});
  net_.send(a, b, Message{"y", {}});
  EXPECT_EQ(net_.messagesByType().at("x"), 2u);
  EXPECT_EQ(net_.messagesByType().at("y"), 1u);
  EXPECT_EQ(net_.bytesSent(), 15u);
  net_.resetStats();
  EXPECT_EQ(net_.messagesSent(), 0u);
}

TEST_F(NetworkTest, SentVersusDeliveredAccountingSplit) {
  // Regression: messages lost in flight used to be indistinguishable from
  // delivered ones in the per-type/bytes stats. "Sent" must count every
  // send, "delivered" only what reached a live handler.
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  net_.setHandler(b, [](NodeAddr, const Message&) {});
  net_.send(a, b, Message{"ok", util::Bytes(10, 0)});  // arrives at 10ms
  sim_.schedule(15 * kMillisecond, [&] { net_.setOnline(b, false); });
  // b offline while these two are in flight: sent, never delivered.
  sim_.schedule(20 * kMillisecond, [&] {
    net_.send(a, b, Message{"lost", util::Bytes(7, 0)});
    net_.send(a, b, Message{"lost", util::Bytes(3, 0)});
  });
  sim_.run();
  EXPECT_EQ(net_.messagesSent(), 3u);
  EXPECT_EQ(net_.messagesDelivered(), 1u);
  EXPECT_EQ(net_.messagesDropped(), 2u);
  EXPECT_EQ(net_.bytesSent(), 20u);
  EXPECT_EQ(net_.bytesDelivered(), 10u);
  EXPECT_EQ(net_.messagesByType().at("ok"), 1u);
  EXPECT_EQ(net_.messagesByType().at("lost"), 2u);
  EXPECT_EQ(net_.deliveredByType().at("ok"), 1u);
  EXPECT_EQ(net_.deliveredByType().count("lost"), 0u);
}

TEST(NetworkLoss, LinkLossExcludedFromDeliveredStats) {
  util::Rng rng(7);
  Simulator sim;
  Network net(sim, LatencyModel{kMillisecond, 0, 1.0}, rng);
  const NodeAddr a = net.addNode();
  const NodeAddr b = net.addNode();
  int delivered = 0;
  net.setHandler(b, [&](NodeAddr, const Message&) { ++delivered; });
  for (int i = 0; i < 20; ++i) net.send(a, b, Message{"m", util::Bytes(4, 0)});
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messagesSent(), 20u);
  EXPECT_EQ(net.messagesByType().at("m"), 20u);  // sends are still counted
  EXPECT_EQ(net.messagesDelivered(), 0u);
  EXPECT_EQ(net.messagesDropped(), 20u);
  EXPECT_EQ(net.bytesDelivered(), 0u);
  EXPECT_TRUE(net.deliveredByType().empty());
}

TEST(NetworkLoss, LossyLinkDropsSome) {
  util::Rng rng(7);
  Simulator sim;
  Network net(sim, LatencyModel{kMillisecond, 0, 0.5}, rng);
  const NodeAddr a = net.addNode();
  const NodeAddr b = net.addNode();
  int delivered = 0;
  net.setHandler(b, [&](NodeAddr, const Message&) { ++delivered; });
  for (int i = 0; i < 200; ++i) net.send(a, b, Message{"m", {}});
  sim.run();
  EXPECT_GT(delivered, 60);
  EXPECT_LT(delivered, 140);
}

// --- Churn ---

TEST(Churn, SteadyStateAvailabilityMatchesExpectation) {
  util::Rng rng(11);
  Simulator sim;
  Network net(sim, LatencyModel{}, rng);
  std::vector<NodeAddr> nodes;
  for (int i = 0; i < 200; ++i) nodes.push_back(net.addNode());
  ChurnConfig config;
  config.meanOnlineSeconds = 100;
  config.meanOfflineSeconds = 300;
  config.initialOnlineFraction = 0.25;
  ChurnProcess churn(net, config, nodes);
  EXPECT_NEAR(expectedAvailability(config), 0.25, 1e-9);

  // Sample online fraction over a long horizon.
  double sum = 0;
  int samples = 0;
  for (int s = 1; s <= 50; ++s) {
    sim.runUntil(static_cast<SimTime>(s) * 100 * kSecond);
    sum += static_cast<double>(net.onlineCount()) / static_cast<double>(nodes.size());
    ++samples;
  }
  churn.stop();
  EXPECT_NEAR(sum / samples, 0.25, 0.06);
}

TEST(Churn, TimeWeightedAvailabilityConvergesToExpectation) {
  // Empirical per-node availability (time-integrated via a status observer, not
  // point samples) over a long run must converge to expectedAvailability.
  util::Rng rng(17);
  Simulator sim;
  Network net(sim, LatencyModel{}, rng);
  std::vector<NodeAddr> nodes;
  for (int i = 0; i < 100; ++i) nodes.push_back(net.addNode());
  ChurnConfig config;
  config.meanOnlineSeconds = 60;
  config.meanOfflineSeconds = 180;
  config.initialOnlineFraction = expectedAvailability(config);
  ChurnProcess churn(net, config, nodes);
  EXPECT_NEAR(expectedAvailability(config), 0.25, 1e-9);

  struct Tracker {
    SimTime lastChange = 0;
    bool online = false;
    double onlineTime = 0;
  };
  std::vector<Tracker> trackers(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    trackers[i].online = net.isOnline(nodes[i]);
  }
  // Addresses are dense, so a node's tracker is at its offset from the first.
  net.addStatusObserver([&](NodeAddr node, bool online) {
    Tracker& t = trackers[node - nodes.front()];
    if (t.online) {
      t.onlineTime += static_cast<double>(sim.now() - t.lastChange);
    }
    t.lastChange = sim.now();
    t.online = online;
  });
  const SimTime horizon = 20'000 * kSecond;
  sim.runUntil(horizon);
  churn.stop();
  double onlineTotal = 0;
  for (Tracker& t : trackers) {
    if (t.online) t.onlineTime += static_cast<double>(horizon - t.lastChange);
    onlineTotal += t.onlineTime;
  }
  const double availability =
      onlineTotal / (static_cast<double>(horizon) * static_cast<double>(nodes.size()));
  EXPECT_NEAR(availability, expectedAvailability(config), 0.02);
}

TEST(Churn, StopHaltsTransitions) {
  util::Rng rng(13);
  Simulator sim;
  Network net(sim, LatencyModel{}, rng);
  std::vector<NodeAddr> nodes;
  for (int i = 0; i < 20; ++i) nodes.push_back(net.addNode());
  // Fast churn (1s/1s sessions) so a leak after stop() would surface within
  // the long horizon below.
  ChurnProcess churn(net, ChurnConfig{1, 1, 1.0}, nodes);
  int transitions = 0;
  net.addStatusObserver([&](NodeAddr, bool) { ++transitions; });
  sim.runUntil(10 * kSecond);
  const int beforeStop = transitions;
  EXPECT_GT(beforeStop, 0);
  churn.stop();
  sim.runUntil(1000 * kSecond);
  // No transition fires after stop — in-flight events become no-ops.
  EXPECT_EQ(transitions, beforeStop);
  // Nodes all started online (fraction 1.0) and are now frozen in whatever
  // state stop() caught them; the states must stop changing too.
  std::vector<bool> frozen;
  for (const NodeAddr node : nodes) frozen.push_back(net.isOnline(node));
  sim.runUntil(2000 * kSecond);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(net.isOnline(nodes[i]), frozen[i]);
  }
}

// --- Metrics ---

TEST(Metrics, CountersAccumulate) {
  Metrics m;
  m.increment("a");
  m.increment("a", 4);
  EXPECT_EQ(m.counter("a"), 5u);
  EXPECT_EQ(m.counter("missing"), 0u);
}

TEST(Metrics, HistogramStats) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.mean(), 3.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 5.0);
  EXPECT_THROW(h.percentile(101), std::invalid_argument);
}

TEST(Metrics, EmptyHistogramReturnsNaN) {
  // 0.0 from an empty histogram is indistinguishable from a measured zero in
  // a report; NaN is unmistakable.
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_TRUE(std::isnan(h.mean()));
  EXPECT_TRUE(std::isnan(h.min()));
  EXPECT_TRUE(std::isnan(h.max()));
  EXPECT_TRUE(std::isnan(h.percentile(0)));
  EXPECT_TRUE(std::isnan(h.percentile(50)));
  EXPECT_TRUE(std::isnan(h.percentile(100)));
  // Range validation still applies to an empty histogram.
  EXPECT_THROW(h.percentile(-1), std::invalid_argument);
  EXPECT_THROW(h.percentile(101), std::invalid_argument);
}

TEST(Metrics, SingleElementHistogram) {
  Histogram h;
  h.record(7.5);
  EXPECT_DOUBLE_EQ(h.mean(), 7.5);
  EXPECT_DOUBLE_EQ(h.min(), 7.5);
  EXPECT_DOUBLE_EQ(h.max(), 7.5);
  EXPECT_DOUBLE_EQ(h.percentile(0), 7.5);
  EXPECT_DOUBLE_EQ(h.percentile(50), 7.5);
  EXPECT_DOUBLE_EQ(h.percentile(100), 7.5);
}

TEST(Metrics, TwoSamplePercentileInterpolatesLinearly) {
  Histogram h;
  h.record(20.0);
  h.record(10.0);  // out of order: percentile sorts first
  EXPECT_DOUBLE_EQ(h.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(25), 12.5);
  EXPECT_DOUBLE_EQ(h.percentile(50), 15.0);
  EXPECT_DOUBLE_EQ(h.percentile(75), 17.5);
  EXPECT_DOUBLE_EQ(h.percentile(100), 20.0);
  // Recording after a percentile query re-sorts before the next query.
  h.record(0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 10.0);
}

TEST(Metrics, GaugesKeepLastValueAndNaNWhenUnset) {
  Metrics m;
  EXPECT_TRUE(std::isnan(m.gaugeValue("rtt.srtt")));
  m.gauge("rtt.srtt", 42.0);
  EXPECT_DOUBLE_EQ(m.gaugeValue("rtt.srtt"), 42.0);
  m.gauge("rtt.srtt", 17.5);  // last value wins, no accumulation
  EXPECT_DOUBLE_EQ(m.gaugeValue("rtt.srtt"), 17.5);
  EXPECT_EQ(m.gauges().size(), 1u);
}

TEST(Metrics, CountersWithPrefixHandlesOverlappingPrefixes) {
  // The endpoint's counter families nest ("rpc." contains "rpc.rtt."): the
  // prefix scan must honor full-prefix matches only, in name order.
  Metrics m;
  m.increment("rpc.req.sent", 3);
  m.increment("rpc.rtt.req.samples", 2);
  m.increment("rpcx.other");   // shares the characters but not the prefix
  m.increment("gossip.sent");

  const auto all = m.countersWithPrefix("rpc.");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "rpc.req.sent");
  EXPECT_EQ(all[0].second, 3u);
  EXPECT_EQ(all[1].first, "rpc.rtt.req.samples");

  const auto rtt = m.countersWithPrefix("rpc.rtt.");
  ASSERT_EQ(rtt.size(), 1u);
  EXPECT_EQ(rtt[0].first, "rpc.rtt.req.samples");

  // The empty prefix matches everything; a non-existent one, nothing.
  EXPECT_EQ(m.countersWithPrefix("").size(), 4u);
  EXPECT_TRUE(m.countersWithPrefix("zzz.").empty());
}

// ---- Interned message types (DESIGN.md §3d) ----

TEST(MessageTypeIntern, RoundTripsIdAndName) {
  const MessageType t("intern.roundtrip");
  EXPECT_EQ(t.name(), "intern.roundtrip");
  EXPECT_EQ(MessageType::fromId(t.id()).name(), "intern.roundtrip");
  EXPECT_EQ(internMessageType("intern.roundtrip"), t.id());
}

TEST(MessageTypeIntern, DuplicateRegistrationReturnsSameId) {
  const MessageType a("intern.dup");
  const MessageType b(std::string("intern.dup"));
  const MessageType c(std::string_view("intern.dup"));
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.id(), c.id());
  EXPECT_EQ(a, b);
  // A distinct spelling gets a distinct id.
  EXPECT_NE(a, MessageType("intern.dup2"));
}

TEST(MessageTypeIntern, DefaultIsTheEmptyNameWithIdZero) {
  const MessageType def;
  EXPECT_EQ(def.id(), 0u);
  EXPECT_EQ(def.name(), "");
  EXPECT_EQ(MessageType("").id(), 0u);
}

TEST(MessageTypeIntern, StringComparisonNeverInterns) {
  const MessageType t("intern.compare");
  const std::size_t before = messageTypeCount();
  EXPECT_FALSE(t == "intern.nobody-sends-this");
  EXPECT_TRUE(t != std::string("intern.nor-this"));
  EXPECT_TRUE(t == "intern.compare");
  EXPECT_EQ(messageTypeCount(), before);
}

TEST(MessageTypeIntern, CountGrowsMonotonically) {
  const std::size_t before = messageTypeCount();
  const MessageType t("intern.growth-probe");
  EXPECT_EQ(messageTypeCount(), before + 1);
  EXPECT_LT(t.id(), messageTypeCount());
  // Re-interning does not grow the table.
  internMessageType("intern.growth-probe");
  EXPECT_EQ(messageTypeCount(), before + 1);
}

TEST(MessageTypeIntern, ForgedIdThrows) {
  EXPECT_THROW(messageTypeName(static_cast<MessageTypeId>(~0u)),
               util::DosnError);
}

TEST_F(NetworkTest, TypeCounterViewMatchesDenseLookups) {
  const NodeAddr a = net_.addNode();
  const NodeAddr b = net_.addNode();
  net_.setHandler(b, [](NodeAddr, const Message&) {});
  const MessageType ping("view.ping");
  const MessageType pong("view.pong");
  net_.send(a, b, Message{ping, util::toBytes("x")});
  net_.send(a, b, Message{ping, util::toBytes("y")});
  net_.send(a, b, Message{pong, util::toBytes("z")});
  sim_.run();

  // Dense per-id counters and the string-keyed views must agree exactly.
  EXPECT_EQ(net_.sentOfType(ping), 2u);
  EXPECT_EQ(net_.sentOfType(pong), 1u);
  EXPECT_EQ(net_.deliveredOfType(ping), 2u);
  const auto sent = net_.messagesByType();
  const auto delivered = net_.deliveredByType();
  EXPECT_EQ(sent.at("view.ping"), 2u);
  EXPECT_EQ(sent.at("view.pong"), 1u);
  EXPECT_EQ(delivered.at("view.ping"), 2u);
  EXPECT_EQ(delivered.at("view.pong"), 1u);
  // Zero-count types are omitted from the views (the old map behavior).
  const MessageType silent("view.never-sent");
  EXPECT_EQ(net_.sentOfType(silent), 0u);
  EXPECT_EQ(sent.count("view.never-sent"), 0u);
}

// ---- Event pool and shared payloads (DESIGN.md §3d) ----

TEST(PoolTest, ReusesFreedBlocks) {
  Pool pool(64, 8);
  void* first = pool.allocate(64);
  pool.deallocate(first, 64);
  void* second = pool.allocate(64);
  EXPECT_EQ(first, second);  // LIFO free list hands the hot block back
  EXPECT_EQ(pool.blockAllocs(), 2u);
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.spills(), 0u);
  pool.deallocate(second, 64);
}

TEST(PoolTest, OversizedRequestsSpill) {
  Pool pool(64, 8);
  void* big = pool.allocate(65);
  EXPECT_NE(big, nullptr);
  EXPECT_EQ(pool.spills(), 1u);
  EXPECT_EQ(pool.liveSpills(), 1u);
  EXPECT_EQ(pool.blockAllocs(), 0u);
  pool.deallocate(big, 65);
  EXPECT_EQ(pool.liveSpills(), 0u);
}

TEST(PoolTest, CarvesNewSlabsOnDemand) {
  Pool pool(32, 4);
  std::vector<void*> blocks;
  for (int i = 0; i < 9; ++i) blocks.push_back(pool.allocate(32));
  EXPECT_EQ(pool.slabCount(), 3u);  // 4 + 4 + 1
  EXPECT_EQ(pool.liveBlocks(), 9u);
  for (void* p : blocks) pool.deallocate(p, 32);
  EXPECT_EQ(pool.liveBlocks(), 0u);
}

TEST(PoolTest, ReuseUnderChurn) {
  // Steady-state simulation shape: allocate/free cycling far more blocks
  // than one slab holds must reuse the free list, not grow slabs.
  Pool pool(64, 16);
  for (int round = 0; round < 100; ++round) {
    std::vector<void*> live;
    for (int i = 0; i < 8; ++i) live.push_back(pool.allocate(64));
    for (void* p : live) pool.deallocate(p, 64);
  }
  EXPECT_EQ(pool.slabCount(), 1u);
  EXPECT_EQ(pool.blockAllocs(), 800u);
  EXPECT_GE(pool.reuses(), 800u - 16u);
  EXPECT_EQ(pool.liveBlocks(), 0u);
}

TEST(PayloadTest, AdoptsTheVectorAndCopiesShareIt) {
  util::Bytes bytes(200, 0x77);
  const std::uint8_t* storage = bytes.data();
  const Payload payload(std::move(bytes));
  EXPECT_EQ(payload.data(), storage);  // adopted, not copied
  EXPECT_EQ(payload.size(), 200u);
  const Payload copy = payload;
  EXPECT_EQ(copy.data(), storage);  // a copy is a second handle
  const util::BytesView view = copy;
  EXPECT_EQ(view.data(), storage);
  EXPECT_EQ(view.size(), 200u);
  EXPECT_TRUE(Payload().empty());
  EXPECT_EQ(Payload().view().size(), 0u);
}

TEST(EventClosureTest, DroppedUnrunClosureReleasesItsBlock) {
  Pool pool(256, 16);
  bool ran = false;
  // Captures larger than the header's block make the closure take a pool
  // block; dropping it unrun must destroy the capture and free the block.
  {
    EventClosure closure(pool, [&ran] { ran = true; });
    EXPECT_TRUE(static_cast<bool>(closure));
    EXPECT_EQ(pool.liveBlocks(), 1u);
  }
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.liveBlocks(), 0u);
}

TEST(EventClosureTest, RunReleasesAndClears) {
  Pool pool(256, 16);
  int calls = 0;
  EventClosure closure(pool, [&calls] { ++calls; });
  closure();
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(static_cast<bool>(closure));
  EXPECT_EQ(pool.liveBlocks(), 0u);
  // The freed block recycles to the next closure.
  EventClosure next(pool, [&calls] { ++calls; });
  EXPECT_EQ(pool.reuses(), 1u);
  next();
  EXPECT_EQ(calls, 2);
}

}  // namespace
}  // namespace dosn::sim

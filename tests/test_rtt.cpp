// Per-destination RTT estimation (net/rtt.hpp) and its wiring through the
// shared RPC endpoint (CallOptions::adaptiveTimeout):
//
//  - the RFC 6298 arithmetic against hand-computed values (first sample,
//    the RTTVAR-before-SRTT update order, the SRTT+4*RTTVAR timeout);
//  - Karn's rule enforced by the endpoint: a call that was retransmitted
//    never samples, a call answered on its first attempt always does;
//  - an adaptive call's own retry.attempts are the floor of the
//    destination's budget;
//  - clamp bounds and the persistent cross-call backoff that lets a
//    mis-trained estimator escape the "timeout < RTT forever" trap;
//  - PeerStateTable LRU semantics (deterministic eviction, no clocks);
//  - two deterministic latency-model sweeps through sim/faults.hpp delay
//    rules — bimodal (half the fleet slow) and drifting (a global delay
//    window) — asserting that at the same seed the adaptive policy completes
//    no fewer calls than the fixed baseline while firing strictly fewer
//    timeouts and retransmissions.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "dosn/net/rpc_endpoint.hpp"
#include "dosn/net/rtt.hpp"
#include "dosn/sim/faults.hpp"
#include "dosn/sim/metrics.hpp"
#include "dosn/sim/network.hpp"
#include "dosn/util/codec.hpp"

namespace dosn {
namespace {

using net::CallOptions;
using net::PeerStateTable;
using net::RetryPolicy;
using net::RpcEndpoint;
using net::RttEstimator;
using sim::kMillisecond;
using sim::kSecond;
using sim::Message;
using sim::NodeAddr;
using sim::SimTime;

// --- RFC 6298 arithmetic -------------------------------------------------

TEST(RttEstimator, FirstSampleInitializesPerRfc6298) {
  RttEstimator est;
  EXPECT_FALSE(est.hasSample());
  est.addSample(100 * kMillisecond);
  EXPECT_TRUE(est.hasSample());
  // SRTT = R, RTTVAR = R/2, timeout = SRTT + 4*RTTVAR = 3R.
  EXPECT_DOUBLE_EQ(est.srtt(), 100000.0);
  EXPECT_DOUBLE_EQ(est.rttvar(), 50000.0);
  EXPECT_EQ(est.timeout(0), 300 * kMillisecond);
}

TEST(RttEstimator, SubsequentSamplesFollowRfc6298Arithmetic) {
  RttEstimator est;
  est.addSample(100 * kMillisecond);
  // R = 50ms. RTTVAR first (using the OLD srtt), then SRTT:
  //   RTTVAR = 0.75*50000 + 0.25*|100000 - 50000| = 50000
  //   SRTT   = 0.875*100000 + 0.125*50000        = 93750
  est.addSample(50 * kMillisecond);
  EXPECT_DOUBLE_EQ(est.rttvar(), 50000.0);
  EXPECT_DOUBLE_EQ(est.srtt(), 93750.0);
  EXPECT_EQ(est.timeout(0), SimTime{293750});
  // R = 150ms:
  //   RTTVAR = 0.75*50000 + 0.25*|93750 - 150000| = 51562.5
  //   SRTT   = 0.875*93750 + 0.125*150000         = 100781.25
  est.addSample(150 * kMillisecond);
  EXPECT_DOUBLE_EQ(est.rttvar(), 51562.5);
  EXPECT_DOUBLE_EQ(est.srtt(), 100781.25);
  EXPECT_EQ(est.samples(), 3u);
}

TEST(RttEstimator, FallbackRulesBeforeFirstSample) {
  RttEstimator est;
  // No opinion yet: the caller's fixed timeout passes through...
  EXPECT_EQ(est.timeout(400 * kMillisecond), 400 * kMillisecond);
  // ...but still backs off on timeouts (the escape hatch works even before
  // the first sample) and clamps.
  est.onTimeout();
  EXPECT_EQ(est.timeout(400 * kMillisecond), 800 * kMillisecond);
  est.onTimeout();
  EXPECT_EQ(est.timeout(400 * kMillisecond), 1600 * kMillisecond);
}

TEST(RttEstimator, TimeoutClampsToMinimum) {
  RttEstimator est;
  est.addSample(1 * kMillisecond);  // raw SRTT+4*RTTVAR = 3ms, under the floor
  EXPECT_EQ(est.timeout(0), RttEstimator::kMinTimeout);
}

TEST(RttEstimator, TimeoutClampsToMaximum) {
  RttEstimator est;
  est.addSample(5 * kSecond);  // raw = 15s, over the 10s ceiling
  EXPECT_EQ(est.timeout(0), RttEstimator::kMaxTimeout);
}

TEST(RttEstimator, BackoffDoublesAndCollapsesOnSample) {
  RttEstimator est;
  est.addSample(100 * kMillisecond);
  EXPECT_EQ(est.timeout(0), 300 * kMillisecond);
  est.onTimeout();
  EXPECT_EQ(est.consecutiveTimeouts(), 1u);
  EXPECT_EQ(est.timeout(0), 600 * kMillisecond);
  est.onTimeout();
  EXPECT_EQ(est.timeout(0), 1200 * kMillisecond);
  // A valid sample collapses the backoff entirely:
  //   RTTVAR = 0.75*50000 + 0.25*0 = 37500, SRTT = 100000.
  est.addSample(100 * kMillisecond);
  EXPECT_EQ(est.consecutiveTimeouts(), 0u);
  EXPECT_EQ(est.timeout(0), SimTime{250000});
}

TEST(RttEstimator, BackoffSaturatesWithoutOverflow) {
  RttEstimator est;
  est.addSample(100 * kMillisecond);
  for (int i = 0; i < 200; ++i) est.onTimeout();
  // 2^200 would overflow any integer type; the clamp catches the inf/huge
  // double and the counter saturates instead of wrapping.
  EXPECT_EQ(est.timeout(0), RttEstimator::kMaxTimeout);
  EXPECT_LE(est.consecutiveTimeouts(), 63u);
}

// --- PeerStateTable ------------------------------------------------------

TEST(PeerStateTable, CreatesOnFirstUseAndFindsWithoutCreating) {
  PeerStateTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(7), nullptr);
  EXPECT_EQ(table.size(), 0u);  // find() never creates
  table.state(7).rtt.addSample(80 * kMillisecond);
  ASSERT_NE(table.find(7), nullptr);
  EXPECT_TRUE(table.find(7)->rtt.hasSample());
  EXPECT_EQ(table.size(), 1u);
}

// Touches peers 1..n in order, filling a table to its LRU bound when
// n == kMaxPeers.
void touchPeers(PeerStateTable& table, NodeAddr n) {
  for (NodeAddr peer = 1; peer <= n; ++peer) table.state(peer);
}

TEST(PeerStateTable, EvictsLeastRecentlyUsed) {
  constexpr NodeAddr kFull = PeerStateTable::kMaxPeers;
  PeerStateTable table;
  touchPeers(table, kFull);
  EXPECT_EQ(table.size(), PeerStateTable::kMaxPeers);
  table.state(kFull + 1);  // evicts 1, the least recently touched
  EXPECT_EQ(table.size(), PeerStateTable::kMaxPeers);
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_NE(table.find(2), nullptr);
  EXPECT_NE(table.find(kFull + 1), nullptr);
}

TEST(PeerStateTable, TouchRefreshesLruOrder) {
  constexpr NodeAddr kFull = PeerStateTable::kMaxPeers;
  PeerStateTable table;
  touchPeers(table, kFull);
  table.state(1);  // refresh: 2 is now the oldest
  table.state(kFull + 1);
  EXPECT_NE(table.find(1), nullptr);
  EXPECT_EQ(table.find(2), nullptr);
  EXPECT_NE(table.find(3), nullptr);
  EXPECT_NE(table.find(kFull + 1), nullptr);
}

TEST(PeerStateTable, NewEntryIsNeverItsOwnEvictionVictim) {
  constexpr NodeAddr kFull = PeerStateTable::kMaxPeers;
  PeerStateTable table;
  touchPeers(table, kFull);
  PeerStateTable::PeerState& next = table.state(kFull + 1);
  next.rtt.addSample(60 * kMillisecond);
  EXPECT_EQ(table.size(), PeerStateTable::kMaxPeers);
  EXPECT_EQ(table.find(1), nullptr);
  ASSERT_NE(table.find(kFull + 1), nullptr);  // the entry just handed out
  EXPECT_TRUE(table.find(kFull + 1)->rtt.hasSample());
}

TEST(PeerStateTable, EraseAndSampledPeers) {
  PeerStateTable table;
  table.state(1).rtt.addSample(50 * kMillisecond);
  table.state(2);  // tracked but never sampled
  EXPECT_EQ(table.sampledPeers(), 1u);
  EXPECT_TRUE(table.erase(1));
  EXPECT_FALSE(table.erase(1));
  EXPECT_EQ(table.sampledPeers(), 0u);
  EXPECT_EQ(table.size(), 1u);
}

// --- endpoint wiring: Karn's rule, sampling, gauges ----------------------

class AdaptiveRpcTest : public ::testing::Test {
 protected:
  static constexpr SimTime kLatency = 100 * kMillisecond;  // RTT = 200ms

  util::Rng rng_{7};
  sim::Simulator sim_;
  sim::Network net_{sim_, sim::LatencyModel{kLatency, 0, 0.0}, rng_};
  sim::Metrics metrics_;

  void SetUp() override { net_.setMetrics(&metrics_); }

  /// A raw node answering every "req" with one "resp" echoing the rpcId.
  NodeAddr addEchoServer() {
    const NodeAddr addr = net_.addNode();
    net_.setHandler(addr, [this, addr](NodeAddr from, const Message& msg) {
      util::Reader r(msg.payload);
      const std::uint64_t id = r.u64();
      util::Writer w;
      w.u64(id);
      w.str("pong");
      net_.send(addr, from, Message{"resp", w.take()});
    });
    return addr;
  }
};

TEST_F(AdaptiveRpcTest, KarnRuleRetransmittedCallNeverSamples) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = addEchoServer();

  // Fallback 150ms < the 200ms RTT: the first attempt times out, the call
  // completes on the late reply — ambiguous under Karn, so no sample. The
  // budget allows the retransmission that makes the reply ambiguous.
  CallOptions options;
  options.timeout = 150 * kMillisecond;
  options.retry = RetryPolicy{3, 50 * kMillisecond, 2.0};
  options.adaptiveTimeout = true;
  bool ok = false;
  client.call(server, "req", {}, options,
              [&](bool replied, util::BytesView) { ok = replied; });
  sim_.run();
  EXPECT_TRUE(ok);
  const PeerStateTable::PeerState* state = client.peerStates().find(server);
  ASSERT_NE(state, nullptr);
  EXPECT_FALSE(state->rtt.hasSample());
  EXPECT_GE(state->rtt.consecutiveTimeouts(), 1u);

  // Second call: the backed-off timeout (2 x 150ms = 300ms > RTT) lets the
  // attempt survive unretransmitted — the classic escape from the trap —
  // and the 200ms sample is exact (zero jitter).
  ok = false;
  client.call(server, "req", {}, options,
              [&](bool replied, util::BytesView) { ok = replied; });
  sim_.run();
  EXPECT_TRUE(ok);
  ASSERT_TRUE(state->rtt.hasSample());
  EXPECT_DOUBLE_EQ(state->rtt.srtt(), 200000.0);
  EXPECT_EQ(state->rtt.consecutiveTimeouts(), 0u);
}

TEST_F(AdaptiveRpcTest, CallAttemptsAreTheAdaptiveBudgetFloor) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr silent = net_.addNode();  // no handler: never answers

  // No history against `silent` yet, so its budget is exactly the call's
  // attempts; the adaptive path neither ignores nor lowers them.
  CallOptions options;
  options.retry.attempts = 3;
  options.adaptiveTimeout = true;
  bool done = false;
  bool ok = true;
  client.call(silent, "req", {}, options, [&](bool replied, util::BytesView) {
    done = true;
    ok = replied;
  });
  sim_.run();
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
  EXPECT_EQ(metrics_.counter("rpc.req.sent"), 3u);
  EXPECT_EQ(metrics_.counter("rpc.req.retries"), 2u);
  EXPECT_EQ(metrics_.counter("rpc.req.failed"), 1u);
}

TEST_F(AdaptiveRpcTest, CleanCallSamplesAndExportsGauges) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = addEchoServer();

  CallOptions options;
  options.timeout = 500 * kMillisecond;  // comfortably above the 200ms RTT
  options.adaptiveTimeout = true;
  client.call(server, "req", {}, options, {});
  sim_.run();

  EXPECT_EQ(metrics_.counter("rpc.rtt.req.samples"), 1u);
  EXPECT_DOUBLE_EQ(metrics_.gaugeValue("rpc.rtt.req.srtt"), 200.0);
  EXPECT_DOUBLE_EQ(metrics_.gaugeValue("rpc.rtt.req.rttvar"), 100.0);
  // timeout gauge = SRTT + 4*RTTVAR = 600ms.
  EXPECT_DOUBLE_EQ(metrics_.gaugeValue("rpc.rtt.req.timeout"), 600.0);
  EXPECT_EQ(client.peerStates().sampledPeers(), 1u);
}

TEST_F(AdaptiveRpcTest, ChurnNoticeEvictsDepartedPeerState) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = addEchoServer();

  CallOptions options;
  options.timeout = 500 * kMillisecond;
  options.adaptiveTimeout = true;
  client.call(server, "req", {}, options, {});
  sim_.run();
  ASSERT_NE(client.peerStates().find(server), nullptr);

  // Authoritative churn notice: the node leaves, its estimator state goes
  // with it — a rejoining instance starts from the fixed fallback instead of
  // inheriting a dead node's RTT history.
  net_.setOnline(server, false);
  EXPECT_EQ(client.peerStates().find(server), nullptr);

  // Coming back online does not resurrect anything.
  net_.setOnline(server, true);
  EXPECT_EQ(client.peerStates().find(server), nullptr);
  // And the endpoint still works against the rejoined peer.
  bool ok = false;
  client.call(server, "req", {}, options,
              [&](bool replied, util::BytesView) { ok = replied; });
  sim_.run();
  EXPECT_TRUE(ok);
  EXPECT_NE(client.peerStates().find(server), nullptr);
}

TEST_F(AdaptiveRpcTest, DestroyedEndpointDeregistersChurnObserver) {
  const NodeAddr server = addEchoServer();
  {
    RpcEndpoint client(net_);
    client.peerStates().state(server);
  }
  // The endpoint is gone; a churn flip must not invoke its observer.
  net_.setOnline(server, false);
  net_.setOnline(server, true);
}

TEST_F(AdaptiveRpcTest, FixedTimeoutCallsLeaveTheTableUntouched) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = addEchoServer();
  CallOptions options;
  options.timeout = 500 * kMillisecond;  // adaptiveTimeout defaults to off
  client.call(server, "req", {}, options, {});
  sim_.run();
  EXPECT_EQ(client.peerStates().size(), 0u);
  EXPECT_EQ(metrics_.counter("rpc.rtt.req.samples"), 0u);
}

// --- deterministic latency-model sweeps ----------------------------------

struct SweepOutcome {
  std::uint64_t completed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t retransmits = 0;
};

// Round-robin `calls` echo RPCs from one client to `servers`, with the given
// delay rules active, under either the fixed policy or the per-destination
// adaptive one. Everything is seeded and jitter-free, so each configuration
// yields one exact outcome.
SweepOutcome runSweep(bool adaptive, std::size_t farServers,
                      const std::function<void(sim::FaultPlan&,
                                               const std::vector<NodeAddr>&)>&
                          addRules) {
  util::Rng rng(7);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{20 * kMillisecond, 0, 0.0}, rng);
  sim::Metrics metrics;
  net.setMetrics(&metrics);

  constexpr std::size_t kServers = 4;
  constexpr std::size_t kCalls = 40;
  std::vector<NodeAddr> servers;
  for (std::size_t i = 0; i < kServers; ++i) {
    const NodeAddr addr = net.addNode();
    net.setHandler(addr, [&net, addr](NodeAddr from, const Message& msg) {
      util::Reader r(msg.payload);
      const std::uint64_t id = r.u64();
      util::Writer w;
      w.u64(id);
      net.send(addr, from, Message{"resp", w.take()});
    });
    servers.push_back(addr);
  }

  RpcEndpoint client(net);
  client.addReplyChannel("resp");
  const RetryPolicy retry{4, 100 * kMillisecond, 2.0};

  sim::FaultPlan plan;
  addRules(plan, std::vector<NodeAddr>(servers.end() - farServers,
                                       servers.end()));
  net.setFaultPlan(&plan);

  CallOptions options;
  options.timeout = 150 * kMillisecond;
  options.retry = retry;
  options.adaptiveTimeout = adaptive;
  // Calls start on a fixed absolute cadence (not serially), so time-windowed
  // fault rules hit the same calls under both policies.
  constexpr SimTime kInterval = 200 * kMillisecond;
  for (std::size_t i = 0; i < kCalls; ++i) {
    sim.scheduleAt(static_cast<SimTime>(i) * kInterval,
                   [&client, &servers, &options, i] {
                     client.call(servers[i % kServers], "req", {}, options, {});
                   });
  }
  sim.run();

  SweepOutcome out;
  out.completed = metrics.counter("rpc.req.completed");
  out.timeouts = metrics.counter("rpc.req.timeouts");
  out.retransmits = metrics.counter("rpc.req.retries");
  return out;
}

TEST(LatencyModelSweep, BimodalDelaysAdaptiveBeatsFixedAtSameSeed) {
  // Half the servers sit behind +300ms each way (RTT 640ms vs 40ms near).
  // The fixed 150ms timeout fires 2-3 times per far call forever; the
  // adaptive policy pays a bounded warmup per destination and then completes
  // far calls on their first attempt.
  const auto bimodal = [](sim::FaultPlan& plan,
                          const std::vector<NodeAddr>& far) {
    for (const NodeAddr addr : far) {
      plan.add(sim::FaultRule::node(addr).delay(300 * kMillisecond));
    }
  };
  const SweepOutcome fixed = runSweep(false, 2, bimodal);
  const SweepOutcome adaptive = runSweep(true, 2, bimodal);

  // Both policies complete every call (the lossless late reply always lands
  // inside the fixed policy's retry window)...
  EXPECT_EQ(fixed.completed, 40u);
  EXPECT_EQ(adaptive.completed, 40u);
  // ...but the fixed policy pays for every far call, wave after wave, while
  // the adaptive one stops timing out once each destination is learned. The
  // links are lossless and every call completes, so every timeout here is
  // spurious: its reply was late, not lost.
  EXPECT_GT(fixed.timeouts, 0u);
  EXPECT_LT(adaptive.timeouts, fixed.timeouts);
  EXPECT_LT(adaptive.retransmits, fixed.retransmits);
}

TEST(LatencyModelSweep, DriftingLatencyAdaptiveBeatsFixedAtSameSeed) {
  // All links drift slow for a window (+230ms each way -> RTT 500ms) and
  // then recover. The fixed timeout fires throughout the window; the
  // adaptive estimator tracks the drift up (a few backoff probes), rides it,
  // and simply relaxes back afterwards.
  const auto drifting = [](sim::FaultPlan& plan, const std::vector<NodeAddr>&) {
    plan.between(2 * kSecond, 6 * kSecond,
                 sim::FaultRule::global().delay(230 * kMillisecond));
  };
  const SweepOutcome fixed = runSweep(false, 0, drifting);
  const SweepOutcome adaptive = runSweep(true, 0, drifting);

  // Lossless and all completed, as above: every timeout is spurious.
  EXPECT_EQ(fixed.completed, 40u);
  EXPECT_EQ(adaptive.completed, 40u);
  EXPECT_GT(fixed.timeouts, 0u);
  EXPECT_LT(adaptive.timeouts, fixed.timeouts);
  EXPECT_LT(adaptive.retransmits, fixed.retransmits);
}

}  // namespace
}  // namespace dosn

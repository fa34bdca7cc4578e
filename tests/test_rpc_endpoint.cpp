// The shared RPC endpoint layer (net/rpc_endpoint.hpp): correlation edge
// cases that every overlay now inherits instead of hand-rolling —
//
//  - a reply arriving after the final timeout is ignored (counted as an
//    orphan), the callback having fired exactly once already;
//  - fault-duplicated replies complete the call exactly once;
//  - a corrupted reply rejected by the channel's validating observer leaves
//    the call pending until the deadline — no crash, no bogus completion;
//  - a retransmission racing a late reply to the first attempt: the late
//    reply completes the call, the second attempt's reply is an orphan;
//  - a call's frame is one shared buffer: every attempt delivers it, a
//    corrupted attempt gets its own flipped copy, and a duplicate that
//    lands after the call completed still reads it;
//  - every counter the endpoint writes is per message type: rpc.<type>.*
//    (orphans under the reply channel's type), beside the network's net.*;
//  - RetryPolicy's closed-form backoff matches iterated multiplication and
//    clamps at kMaxBackoff instead of overflowing SimTime;
//  - AdaptiveRetryPolicy grows the attempt budget above its floor as
//    observed timeouts accumulate and decays it back on successes;
//  - gossip anti-entropy converges under a drop storm with single-attempt
//    digests (the next round is its retry), with uniform
//    rpc.gossip.digest.* counters to show for it.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dosn/net/rpc_endpoint.hpp"
#include "dosn/net/retry.hpp"
#include "dosn/overlay/gossip.hpp"
#include "dosn/sim/faults.hpp"
#include "dosn/sim/metrics.hpp"
#include "dosn/sim/network.hpp"
#include "dosn/util/codec.hpp"

namespace dosn {
namespace {

using net::AdaptiveRetryPolicy;
using net::CallOptions;
using net::RetryPolicy;
using net::RpcEndpoint;
using sim::FaultPlan;
using sim::FaultRule;
using sim::kMillisecond;
using sim::kSecond;
using sim::Message;
using sim::NodeAddr;
using sim::SimTime;

/// A call frame carrying `body`.
util::Writer frameOf(std::string_view body) {
  util::Writer frame = RpcEndpoint::frame(body.size());
  frame.raw(util::asBytes(body));
  return frame;
}

class RpcEndpointTest : public ::testing::Test {
 protected:
  static constexpr SimTime kLatency = 50 * kMillisecond;

  util::Rng rng_{7};
  sim::Simulator sim_;
  sim::Network net_{sim_, sim::LatencyModel{kLatency, 0, 0.0}, rng_};
  sim::Metrics metrics_;

  void SetUp() override { net_.setMetrics(&metrics_); }

  /// A raw node that answers every "req" with `copies` "resp" frames echoing
  /// the rpcId, after `extraDelay` of local processing.
  NodeAddr addEchoServer(std::size_t copies = 1, SimTime extraDelay = 0) {
    const NodeAddr addr = net_.addNode();
    net_.setHandler(addr, [this, addr, copies, extraDelay](NodeAddr from,
                                                          const Message& msg) {
      util::Reader r(msg.payload);
      const std::uint64_t id = r.u64();
      sim_.schedule(extraDelay, [this, addr, from, copies, id] {
        for (std::size_t i = 0; i < copies; ++i) {
          util::Writer w;
          w.u64(id);
          w.str("pong");
          net_.send(addr, from, Message{"resp", w.take()});
        }
      });
    });
    return addr;
  }
};

TEST_F(RpcEndpointTest, ReplyAfterTimeoutIsOrphanedAndCallbackFiresOnce) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  // Server sits on the reply for 300ms; the call gives up after 150ms.
  const NodeAddr server = addEchoServer(1, 300 * kMillisecond);

  int callbacks = 0;
  bool lastOk = true;
  CallOptions options;
  options.timeout = 150 * kMillisecond;
  client.call(server, "req", frameOf("ping"), options,
              [&](bool ok, util::BytesView) {
                ++callbacks;
                lastOk = ok;
              });
  sim_.run();

  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(lastOk);
  EXPECT_EQ(client.failures(), 1u);
  EXPECT_EQ(client.pendingCalls(), 0u);
  EXPECT_EQ(metrics_.counter("rpc.resp.orphans"), 1u);
  EXPECT_EQ(metrics_.counter("rpc.req.failed"), 1u);
  EXPECT_EQ(metrics_.counter("rpc.req.completed"), 0u);
}

TEST_F(RpcEndpointTest, DuplicateRepliesCompleteOnce) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = addEchoServer(/*copies=*/3);

  int callbacks = 0;
  client.call(server, "req", frameOf("ping"), CallOptions{},
              [&](bool ok, util::BytesView) {
                ++callbacks;
                EXPECT_TRUE(ok);
              });
  sim_.run();

  EXPECT_EQ(callbacks, 1);
  EXPECT_EQ(metrics_.counter("rpc.req.completed"), 1u);
  EXPECT_EQ(metrics_.counter("rpc.resp.orphans"), 2u);  // the two duplicates
}

TEST_F(RpcEndpointTest, CorruptedReplyRejectedByObserverLeavesCallPending) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  // The observer insists the body parses as a string; the server below sends
  // a body too short for its declared length.
  client.setReplyObserver("resp", [](NodeAddr, util::BytesView body) {
    util::Reader r(body);
    r.str();
  });
  const NodeAddr server = net_.addNode();
  net_.setHandler(server, [this, server](NodeAddr from, const Message& msg) {
    util::Reader r(msg.payload);
    util::Writer w;
    w.u64(r.u64());
    w.u32(1000);  // declares a 1000-byte string that is not there
    net_.send(server, from, Message{"resp", w.take()});
  });

  int callbacks = 0;
  bool lastOk = true;
  SimTime failedAt = 0;
  CallOptions options;
  options.timeout = 200 * kMillisecond;
  client.call(server, "req", frameOf("ping"), options,
              [&](bool ok, util::BytesView) {
                ++callbacks;
                lastOk = ok;
                failedAt = sim_.now();
              });
  sim_.run();

  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(lastOk);
  EXPECT_EQ(failedAt, 200 * kMillisecond);  // at the deadline, not the reply
  EXPECT_EQ(metrics_.counter("rpc.req.completed"), 0u);
  EXPECT_EQ(metrics_.counter("rpc.req.timeouts"), 1u);
}

TEST_F(RpcEndpointTest, RetryRacingLateFirstReplyCompletesOnceViaLateReply) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  // One-way latency 50ms + 150ms server think time = 250ms round trip; the
  // call times out at 200ms and retransmits after a 40ms backoff (240ms,
  // strictly before the first reply lands). The first attempt's reply then
  // completes the call at 250ms and the second attempt's reply (490ms) must
  // be an orphan.
  const NodeAddr server = addEchoServer(1, 150 * kMillisecond);

  int callbacks = 0;
  bool lastOk = false;
  SimTime completedAt = 0;
  CallOptions options;
  options.timeout = 200 * kMillisecond;
  options.retry.attempts = 3;
  options.retry.backoffBase = 40 * kMillisecond;
  client.call(server, "req", frameOf("ping"), options,
              [&](bool ok, util::BytesView) {
                ++callbacks;
                lastOk = ok;
                completedAt = sim_.now();
              });
  sim_.run();

  EXPECT_EQ(callbacks, 1);
  EXPECT_TRUE(lastOk);
  EXPECT_EQ(completedAt, 250 * kMillisecond);
  EXPECT_EQ(client.retries(), 1u);
  EXPECT_EQ(client.failures(), 0u);
  EXPECT_EQ(metrics_.counter("rpc.req.sent"), 2u);
  EXPECT_EQ(metrics_.counter("rpc.req.completed"), 1u);
  EXPECT_EQ(metrics_.counter("rpc.resp.orphans"), 1u);  // attempt 2's reply
}

// A call keeps one frame for all its attempts: with the first attempt
// dropped by the fault plan, the retransmission that arrives is the frame
// the call built, `rpcId | body`, byte for byte, and both attempts put the
// same number of bytes on the wire.
TEST_F(RpcEndpointTest, RetransmissionResendsTheFirstFrame) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = net_.addNode();
  std::vector<util::Bytes> received;
  net_.setHandler(server, [&](NodeAddr from, const Message& msg) {
    received.emplace_back(msg.payload.begin(), msg.payload.end());
    util::Writer w;
    w.u64(util::Reader(msg.payload).u64());
    net_.send(server, from, Message{"resp", w.take()});
  });
  FaultPlan plan;
  plan.between(0, kMillisecond, FaultRule::link(client.addr(), server).drop(1.0));
  net_.setFaultPlan(&plan);

  const util::Bytes body = util::toBytes("the request body");
  CallOptions options;
  options.timeout = 200 * kMillisecond;
  options.retry.attempts = 3;
  options.retry.backoffBase = 10 * kMillisecond;
  bool completed = false;
  const net::RpcId id =
      client.call(server, "req", frameOf("the request body"), options,
                  [&](bool ok, util::BytesView) { completed = ok; });
  sim_.run();

  ASSERT_TRUE(completed);
  EXPECT_EQ(client.retries(), 1u);
  EXPECT_EQ(metrics_.counter("net.dropped.fault"), 1u);
  util::Writer frame;
  frame.u64(id);
  frame.raw(body);
  ASSERT_EQ(received.size(), 1u);  // the retransmission only
  EXPECT_EQ(received[0], frame.buffer());
  EXPECT_EQ(net_.sentOfType("req"), 2u);
  const std::uint64_t repliesBytes = 8;  // one reply: its rpcId
  EXPECT_EQ(net_.bytesSent(), 2 * frame.buffer().size() + repliesBytes);
}

// Attempts share one buffer: every retransmission delivers the buffer the
// first attempt carried, not a copy of it.
TEST_F(RpcEndpointTest, EveryAttemptDeliversTheFirstAttemptsBuffer) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = net_.addNode();
  std::vector<sim::Payload> received;
  net_.setHandler(server, [&](NodeAddr from, const Message& msg) {
    received.push_back(msg.payload);
    if (received.size() < 3) return;  // sit on the first two attempts
    util::Writer w;
    w.u64(util::Reader(msg.payload).u64());
    net_.send(server, from, Message{"resp", w.take()});
  });

  CallOptions options;
  options.timeout = 200 * kMillisecond;
  options.retry.attempts = 3;
  options.retry.backoffBase = 10 * kMillisecond;
  bool completed = false;
  client.call(server, "req", frameOf("one frame"), options,
              [&](bool ok, util::BytesView) { completed = ok; });
  sim_.run();

  ASSERT_TRUE(completed);
  EXPECT_EQ(client.retries(), 2u);
  ASSERT_EQ(received.size(), 3u);
  EXPECT_EQ(received[1].data(), received[0].data());
  EXPECT_EQ(received[2].data(), received[0].data());
}

// Only a corrupted delivery pays for a copy: it gets its own flipped bytes,
// while the pending call's frame stays intact, so the retransmission
// carries the frame byte for byte.
TEST_F(RpcEndpointTest, CorruptedAttemptLeavesTheFrameIntact) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = net_.addNode();
  std::vector<sim::Payload> received;
  util::Bytes expected;  // the call's frame, known once call() returns
  net_.setHandler(server, [&](NodeAddr from, const Message& msg) {
    received.push_back(msg.payload);
    // Answer only an intact frame, as a checksum would.
    if (!std::equal(msg.payload.begin(), msg.payload.end(), expected.begin(),
                    expected.end())) {
      return;
    }
    util::Writer w;
    w.u64(util::Reader(msg.payload).u64());
    net_.send(server, from, Message{"resp", w.take()});
  });
  FaultPlan plan;
  plan.between(0, kMillisecond,
               FaultRule::link(client.addr(), server).corrupt(1.0));
  net_.setFaultPlan(&plan);

  CallOptions options;
  options.timeout = 200 * kMillisecond;
  options.retry.attempts = 2;
  options.retry.backoffBase = 10 * kMillisecond;
  bool completed = false;
  const net::RpcId id =
      client.call(server, "req", frameOf("the request body"), options,
                  [&](bool ok, util::BytesView) { completed = ok; });
  util::Writer frame;
  frame.u64(id);
  frame.raw(util::asBytes("the request body"));
  expected = frame.take();
  sim_.run();

  ASSERT_TRUE(completed);
  EXPECT_EQ(metrics_.counter("net.corrupted"), 1u);
  ASSERT_EQ(received.size(), 2u);
  EXPECT_NE(received[0].data(), received[1].data());
  ASSERT_EQ(received[0].size(), expected.size());
  EXPECT_FALSE(std::equal(received[0].begin(), received[0].end(),
                          expected.begin(), expected.end()));
  EXPECT_TRUE(std::equal(received[1].begin(), received[1].end(),
                         expected.begin(), expected.end()));
}

// A fault-plan duplicate can land after its call completed and the pending
// call let go of its frame. The delivery holds the shared buffer, so it
// still reads the frame's bytes (a freed buffer would fail under ASan).
TEST(RpcEndpointSharingTest, DuplicateAfterCompletionReadsValidBytes) {
  util::Rng rng(11);
  sim::Simulator sim;
  // 1 ms base latency and up to 100 ms of jitter: a request's two copies
  // often land further apart than a whole round trip.
  sim::Network net(sim, sim::LatencyModel{kMillisecond, 100 * kMillisecond, 0.0},
                   rng);
  RpcEndpoint client(net);
  client.addReplyChannel("resp");
  const NodeAddr server = net.addNode();
  FaultPlan plan;
  plan.add(FaultRule::link(client.addr(), server).duplicate(1.0));
  net.setFaultPlan(&plan);

  std::map<net::RpcId, util::Bytes> frames;
  std::set<net::RpcId> completed;
  std::size_t lateCopies = 0;
  net.setHandler(server, [&](NodeAddr from, const Message& msg) {
    const net::RpcId id = util::Reader(msg.payload).u64();
    if (completed.count(id) != 0) ++lateCopies;
    EXPECT_EQ(util::Bytes(msg.payload.begin(), msg.payload.end()),
              frames.at(id));
    util::Writer w;
    w.u64(id);
    net.send(server, from, Message{"resp", w.take()});
  });
  for (int i = 0; i < 16; ++i) {
    const std::string body = "request " + std::to_string(i);
    auto slot = std::make_shared<net::RpcId>(0);
    const net::RpcId id = client.call(
        server, "req", frameOf(body), CallOptions{},
        [&completed, slot](bool ok, util::BytesView) {
          if (ok) completed.insert(*slot);
        });
    *slot = id;
    util::Writer frame;
    frame.u64(id);
    frame.raw(util::asBytes(body));
    frames[id] = frame.take();
  }
  sim.run();

  EXPECT_EQ(completed.size(), 16u);
  EXPECT_EQ(client.pendingCalls(), 0u);
  EXPECT_GT(lateCopies, 0u);
}

TEST_F(RpcEndpointTest, EveryCounterIsPerMessageType) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  // The late-reply race above: the first attempt's reply completes the
  // retried call and the second attempt's reply is an orphan.
  const NodeAddr slow = addEchoServer(1, 150 * kMillisecond);
  CallOptions retried;
  retried.timeout = 200 * kMillisecond;
  retried.retry.attempts = 2;
  retried.retry.backoffBase = 40 * kMillisecond;
  bool completed = false;
  client.call(slow, "req", frameOf("ping"), retried,
              [&](bool ok, util::BytesView) { completed = ok; });
  // A node that never answers: the single-shot call fails at its deadline.
  const NodeAddr silent = net_.addNode();
  net_.setHandler(silent, [](NodeAddr, const Message&) {});
  bool failed = false;
  CallOptions once;
  once.timeout = 100 * kMillisecond;
  client.call(silent, "ask", frameOf("ping"), once,
              [&](bool ok, util::BytesView) { failed = !ok; });
  sim_.run();

  EXPECT_TRUE(completed);
  EXPECT_TRUE(failed);
  EXPECT_EQ(client.retries(), 1u);
  EXPECT_EQ(client.failures(), 1u);
  EXPECT_EQ(metrics_.counter("rpc.req.retries"), 1u);
  EXPECT_EQ(metrics_.counter("rpc.ask.failed"), 1u);
  EXPECT_EQ(metrics_.counter("rpc.resp.orphans"), 1u);
  for (const auto& [name, value] : metrics_.counters()) {
    EXPECT_TRUE(name.starts_with("rpc.") || name.starts_with("net."))
        << name << " = " << value;
  }
}

TEST_F(RpcEndpointTest, RttHistogramRecordsCompletedCallsOnly) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = addEchoServer();

  client.call(server, "req", frameOf("ping"), CallOptions{},
              [](bool, util::BytesView) {});
  sim_.run();

  const auto& rtt = metrics_.histogram("rpc.req.rtt_ms");
  ASSERT_EQ(rtt.count(), 1u);
  EXPECT_DOUBLE_EQ(rtt.mean(), 100.0);  // 2 * 50ms fixed latency
}

// --- Metric slots: names appear exactly when bumped, in the attached Metrics ---

template <class Map>
std::vector<std::string> namesOf(const Map& map) {
  std::vector<std::string> names;
  for (const auto& [name, value] : map) names.push_back(name);
  return names;
}

// An answered adaptive call writes the sent and completed counters, the RTT
// histogram, the sample counter and the three estimator gauges: nothing
// else, and no name without a value recorded under it.
TEST_F(RpcEndpointTest, AnsweredAdaptiveCallCreatesOnlyItsMetricNames) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = addEchoServer();
  CallOptions options;
  options.adaptiveTimeout = true;
  bool completed = false;
  client.call(server, "req", frameOf("ping"), options,
              [&](bool ok, util::BytesView) { completed = ok; });
  sim_.run();

  ASSERT_TRUE(completed);
  EXPECT_EQ(namesOf(metrics_.counters()),
            (std::vector<std::string>{"rpc.req.completed", "rpc.req.sent",
                                      "rpc.rtt.req.samples"}));
  for (const auto& [name, value] : metrics_.counters()) {
    EXPECT_EQ(value, 1u) << name;
  }
  EXPECT_EQ(namesOf(metrics_.gauges()),
            (std::vector<std::string>{"rpc.rtt.req.rttvar", "rpc.rtt.req.srtt",
                                      "rpc.rtt.req.timeout"}));
  EXPECT_DOUBLE_EQ(metrics_.gaugeValue("rpc.rtt.req.srtt"), 100.0);
  EXPECT_DOUBLE_EQ(metrics_.gaugeValue("rpc.rtt.req.rttvar"), 50.0);
  EXPECT_DOUBLE_EQ(metrics_.gaugeValue("rpc.rtt.req.timeout"), 300.0);
  EXPECT_EQ(namesOf(metrics_.histograms()),
            std::vector<std::string>{"rpc.req.rtt_ms"});
  EXPECT_EQ(metrics_.histogram("rpc.req.rtt_ms").count(), 1u);
}

// timeouts, retries and failed appear only once something bumps them.
TEST_F(RpcEndpointTest, TimedOutCallAddsOnlyBumpedCounters) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr silent = net_.addNode();
  net_.setHandler(silent, [](NodeAddr, const Message&) {});
  CallOptions once;
  once.timeout = 100 * kMillisecond;
  client.call(silent, "once", frameOf("ping"), once, {});
  sim_.run();
  EXPECT_EQ(metrics_.countersWithPrefix("rpc.once."),
            (std::vector<std::pair<std::string, std::uint64_t>>{
                {"rpc.once.failed", 1},
                {"rpc.once.sent", 1},
                {"rpc.once.timeouts", 1}}));

  CallOptions twice = once;
  twice.retry.attempts = 2;
  client.call(silent, "twice", frameOf("ping"), twice, {});
  sim_.run();
  EXPECT_EQ(metrics_.countersWithPrefix("rpc.twice."),
            (std::vector<std::pair<std::string, std::uint64_t>>{
                {"rpc.twice.failed", 1},
                {"rpc.twice.retries", 1},
                {"rpc.twice.sent", 2},
                {"rpc.twice.timeouts", 2}}));

  // Answered late, by the first attempt's reply, after one retry: no
  // `failed`.
  const NodeAddr slow = addEchoServer(1, 150 * kMillisecond);
  CallOptions retried;
  retried.timeout = 200 * kMillisecond;
  retried.retry.attempts = 2;
  retried.retry.backoffBase = 40 * kMillisecond;
  client.call(slow, "late", frameOf("ping"), retried, {});
  sim_.run();
  EXPECT_EQ(metrics_.countersWithPrefix("rpc.late."),
            (std::vector<std::pair<std::string, std::uint64_t>>{
                {"rpc.late.completed", 1},
                {"rpc.late.retries", 1},
                {"rpc.late.sent", 2},
                {"rpc.late.timeouts", 1}}));
  EXPECT_TRUE(metrics_.gauges().empty());  // no adaptive call
}

// Slots belong to the Metrics they were resolved in: attaching another one
// sends later bumps there (the endpoint's and the network's drop counters
// alike) and leaves the first one's values alone; detaching counts nothing.
TEST_F(RpcEndpointTest, MetricSlotsFollowTheAttachedMetrics) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = addEchoServer();
  const NodeAddr offline = net_.addNode();
  net_.setOnline(offline, false);
  const auto exchange = [&] {
    client.call(server, "req", frameOf("ping"), CallOptions{}, {});
    client.send(offline, "note", util::toBytes("lost"));
    sim_.run();
  };

  exchange();
  const auto firstCounters = metrics_.counters();
  EXPECT_EQ(firstCounters.at("rpc.req.sent"), 1u);
  EXPECT_EQ(firstCounters.at("net.dropped.offline"), 1u);

  sim::Metrics second;
  net_.setMetrics(&second);
  exchange();
  exchange();
  EXPECT_EQ(metrics_.counters(), firstCounters);
  EXPECT_EQ(metrics_.histogram("rpc.req.rtt_ms").count(), 1u);
  EXPECT_EQ(second.counter("rpc.req.sent"), 2u);
  EXPECT_EQ(second.counter("rpc.req.completed"), 2u);
  EXPECT_EQ(second.counter("net.dropped.offline"), 2u);
  EXPECT_EQ(second.histogram("rpc.req.rtt_ms").count(), 2u);

  net_.setMetrics(nullptr);
  const auto secondCounters = second.counters();
  exchange();
  EXPECT_EQ(metrics_.counters(), firstCounters);
  EXPECT_EQ(second.counters(), secondCounters);
  EXPECT_EQ(second.histogram("rpc.req.rtt_ms").count(), 2u);

  net_.setMetrics(&metrics_);
  exchange();
  EXPECT_EQ(metrics_.counter("rpc.req.sent"), 2u);
  EXPECT_EQ(metrics_.counter("net.dropped.offline"), 2u);
}

// A Metrics built in the storage of a destroyed one has the same address;
// slots are keyed by the network's attach generation, not by the address,
// so it receives only its own bumps (and ASan sees no access to the old
// one's freed names).
TEST_F(RpcEndpointTest, MetricsRecreatedInPlaceGetOnlyTheirOwnBumps) {
  RpcEndpoint client(net_);
  client.addReplyChannel("resp");
  const NodeAddr server = addEchoServer();
  CallOptions options;
  options.adaptiveTimeout = true;
  std::optional<sim::Metrics> slot;

  slot.emplace();
  const sim::Metrics* address = &*slot;
  net_.setMetrics(&*slot);
  client.call(server, "req", frameOf("ping"), options, {});
  client.call(server, "req", frameOf("ping"), options, {});
  sim_.run();
  EXPECT_EQ(slot->counter("rpc.req.completed"), 2u);

  slot.reset();
  slot.emplace();
  ASSERT_EQ(&*slot, address);
  net_.setMetrics(&*slot);
  client.call(server, "req", frameOf("ping"), options, {});
  sim_.run();
  EXPECT_EQ(slot->counter("rpc.req.sent"), 1u);
  EXPECT_EQ(slot->counter("rpc.req.completed"), 1u);
  EXPECT_EQ(slot->counter("rpc.rtt.req.samples"), 1u);
  EXPECT_EQ(slot->histogram("rpc.req.rtt_ms").count(), 1u);
  EXPECT_EQ(slot->gauges().size(), 3u);
  net_.setMetrics(&metrics_);
}

// --- RetryPolicy backoff: closed form + clamp ---

TEST(RetryPolicyTest, ClosedFormMatchesIteratedMultiplication) {
  RetryPolicy policy;
  policy.backoffBase = 100 * kMillisecond;
  policy.backoffMultiplier = 2.0;
  SimTime expected = policy.backoffBase;
  for (std::size_t attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(policy.backoff(attempt), expected) << "attempt " << attempt;
    expected *= 2;
  }
}

TEST(RetryPolicyTest, BackoffClampsAtMaxInsteadOfOverflowing) {
  RetryPolicy policy;
  policy.backoffBase = 100 * kMillisecond;
  policy.backoffMultiplier = 2.0;
  ASSERT_EQ(RetryPolicy::kMaxBackoff, 60 * kSecond);
  // 2^1000 overflows every integer type; the clamp must win first.
  EXPECT_EQ(policy.backoff(1000), RetryPolicy::kMaxBackoff);
  // The crossover attempt: first delay at or past the clamp.
  EXPECT_EQ(policy.backoff(11), 60 * kSecond);  // 100ms * 2^10 = 102.4s
  EXPECT_EQ(policy.backoff(10), SimTime{100 * kMillisecond} * 512);
  // Degenerate multipliers cannot smuggle NaN/inf through the cast.
  RetryPolicy weird;
  weird.backoffBase = 0;
  weird.backoffMultiplier = 1e308;
  EXPECT_LE(weird.backoff(50), RetryPolicy::kMaxBackoff);
}

TEST(RetryPolicyTest, ZeroJitterConsumesNoRngDraws) {
  RetryPolicy policy;
  policy.backoffBase = 100 * kMillisecond;
  // Same-seeded rngs: if the zero-jitter path drew anything, the second rng
  // would desynchronize from the first and the next draws would differ —
  // which would silently reshuffle every existing fixed-seed experiment.
  util::Rng a(99);
  util::Rng b(99);
  for (std::size_t attempt = 1; attempt <= 4; ++attempt) {
    EXPECT_EQ(policy.backoff(attempt, a), policy.backoff(attempt));
  }
  EXPECT_EQ(a.next(), b.next());
}

TEST(RetryPolicyTest, JitteredBackoffStaysInBoundsAndIsSeedDeterministic) {
  RetryPolicy policy;
  policy.backoffBase = 100 * kMillisecond;
  policy.backoffMultiplier = 2.0;
  policy.jitterFraction = 0.3;
  util::Rng rng(7);
  util::Rng replay(7);
  bool sawJitter = false;
  for (std::size_t attempt = 1; attempt <= 6; ++attempt) {
    const SimTime flat = policy.backoff(attempt);
    const SimTime jittered = policy.backoff(attempt, rng);
    EXPECT_GE(jittered, static_cast<SimTime>(static_cast<double>(flat) * 0.7) - 1);
    EXPECT_LE(jittered, static_cast<SimTime>(static_cast<double>(flat) * 1.3) + 1);
    EXPECT_LE(jittered, RetryPolicy::kMaxBackoff);
    if (jittered != flat) sawJitter = true;
    // Deterministic per seed: a same-seeded replay produces the same delay.
    EXPECT_EQ(policy.backoff(attempt, replay), jittered);
  }
  EXPECT_TRUE(sawJitter);
  // At the clamp, jitter scales downward from kMaxBackoff (spreading even the
  // saturated cohort) but can never exceed it.
  const SimTime clamped = policy.backoff(1000, rng);
  const double maxBackoff = static_cast<double>(RetryPolicy::kMaxBackoff);
  EXPECT_LE(clamped, RetryPolicy::kMaxBackoff);
  EXPECT_GE(clamped, static_cast<SimTime>(maxBackoff * 0.7) - 1);
}

// --- AdaptiveRetryPolicy ---

TEST(AdaptiveRetryPolicyTest, BudgetGrowsWithTimeoutsAndDecaysWithSuccesses) {
  AdaptiveRetryPolicy adaptive;

  // Nothing observed: the budget is the floor (and at least one attempt).
  EXPECT_EQ(adaptive.attempts(1), 1u);
  EXPECT_EQ(adaptive.attempts(3), 3u);
  EXPECT_EQ(adaptive.attempts(0), 1u);
  EXPECT_DOUBLE_EQ(adaptive.timeoutRate(), 0.0);

  for (int i = 0; i < 50; ++i) adaptive.observeAttempt(true);
  EXPECT_GT(adaptive.timeoutRate(), 0.8);
  // rate^n never meets 1%: every floor grows to the ceiling...
  EXPECT_EQ(adaptive.attempts(1), AdaptiveRetryPolicy::kMaxAttempts);
  EXPECT_EQ(adaptive.attempts(4), AdaptiveRetryPolicy::kMaxAttempts);
  // ...and a floor above the ceiling is kept as it is.
  EXPECT_EQ(adaptive.attempts(8), 8u);

  for (int i = 0; i < 100; ++i) adaptive.observeAttempt(false);
  EXPECT_LT(adaptive.timeoutRate(), 0.01);
  // Healthy again: the budget shrinks back to the floor.
  EXPECT_EQ(adaptive.attempts(1), 1u);
  EXPECT_EQ(adaptive.attempts(2), 2u);
}

TEST(AdaptiveRetryPolicyTest, ModerateLossPicksIntermediateBudget) {
  AdaptiveRetryPolicy adaptive;
  // Alternate 1 timeout : 4 successes -> EWMA settles near 20%.
  for (int i = 0; i < 200; ++i) adaptive.observeAttempt(i % 5 == 0);
  const double rate = adaptive.timeoutRate();
  EXPECT_GT(rate, 0.05);
  EXPECT_LT(rate, 0.45);
  // smallest n with rate^n <= 0.01 for rate in (0.05, 0.45) is 2 or 3.
  const std::size_t budget = adaptive.attempts(1);
  EXPECT_GE(budget, 2u);
  EXPECT_LE(budget, 3u);
  // The floor only ever raises it.
  EXPECT_EQ(adaptive.attempts(budget), budget);
  EXPECT_EQ(adaptive.attempts(5), 5u);
}

// --- Gossip over the endpoint: anti-entropy under loss ---

TEST(GossipRetryTest, AntiEntropyConvergesUnderDropStormWithRetries) {
  util::Rng rng(1234);
  sim::Simulator sim;
  sim::Network net(sim, sim::LatencyModel{10 * kMillisecond, 0, 0.0}, rng);
  sim::Metrics metrics;
  net.setMetrics(&metrics);
  FaultPlan plan;
  plan.add(FaultRule::global().drop(0.35));
  net.setFaultPlan(&plan);

  overlay::GossipConfig config;
  config.interval = 200 * kMillisecond;
  config.fanout = 2;

  std::vector<std::unique_ptr<overlay::GossipNode>> nodes;
  for (int i = 0; i < 8; ++i) {
    nodes.push_back(std::make_unique<overlay::GossipNode>(net, config));
  }
  std::vector<NodeAddr> addrs;
  for (const auto& n : nodes) addrs.push_back(n->addr());
  for (const auto& n : nodes) n->setPeers(addrs);

  const overlay::OverlayId key = overlay::OverlayId::hash("post");
  nodes[0]->put(key, util::toBytes("hello"), 1);
  for (const auto& n : nodes) n->start();
  sim.schedule(30 * kSecond, [&] {
    for (const auto& n : nodes) n->stop();
  });
  sim.run();

  std::size_t have = 0;
  for (const auto& n : nodes) {
    if (n->get(key)) ++have;
  }
  EXPECT_EQ(have, nodes.size()) << "anti-entropy did not converge";

  // The uniform rpc.* surface exists and shows the storm's work: digests
  // are single-attempt, so a lost one fails and the next round (not the
  // endpoint) retries the exchange.
  EXPECT_GT(metrics.counter("rpc.gossip.digest.sent"), 0u);
  EXPECT_EQ(metrics.counter("rpc.gossip.digest.retries"), 0u);
  EXPECT_GT(metrics.counter("rpc.gossip.digest.failed"), 0u);
  EXPECT_GT(metrics.counter("rpc.gossip.digest.completed"), 0u);
  EXPECT_GT(metrics.histogram("rpc.gossip.digest.rtt_ms").count(), 0u);
}

}  // namespace
}  // namespace dosn

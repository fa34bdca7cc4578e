#include "dosn/net/rpc_endpoint.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "dosn/sim/metrics.hpp"
#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::net {

namespace {

template <class Table>
auto* findByType(Table& table, sim::MessageTypeId id) {
  for (auto& [key, handler] : table) {
    if (key == id) return &handler;
  }
  using Handler = std::remove_reference_t<decltype(table.front().second)>;
  return static_cast<Handler*>(nullptr);
}

// A metric name is `<family><type><event>`.
struct MetricName {
  const char* family;
  const char* event;
};
// Indexed by RpcEndpoint::Counter and RpcEndpoint::Gauge.
constexpr MetricName kCounterNames[] = {
    {"rpc.", ".sent"},      {"rpc.", ".retries"}, {"rpc.", ".timeouts"},
    {"rpc.", ".completed"}, {"rpc.", ".failed"},  {"rpc.", ".orphans"},
    {"rpc.rtt.", ".samples"}};
constexpr MetricName kGaugeNames[] = {
    {"rpc.rtt.", ".srtt"}, {"rpc.rtt.", ".rttvar"}, {"rpc.rtt.", ".timeout"}};
constexpr MetricName kRttHistogramName = {"rpc.", ".rtt_ms"};

std::string metricName(const MetricName& name, sim::MessageType type) {
  return name.family + type.name() + name.event;
}

/// The frame's bytes with `id` written over the eight frame() reserved.
util::Bytes stamp(util::Writer& frame, RpcId id) {
  util::Bytes bytes = frame.take();
  if (bytes.size() < sizeof(RpcId)) {
    throw util::DosnError("RpcEndpoint: frame not begun with frame()");
  }
  const auto le = util::encodeU64(id);
  std::copy(le.begin(), le.end(), bytes.begin());
  return bytes;
}

}  // namespace

RpcEndpoint::RpcEndpoint(sim::Network& network)
    : network_(network),
      addr_(network.addNode()),
      state_(std::make_shared<State>()) {
  network_.setHandler(addr_, [this](sim::NodeAddr from, const sim::Message& msg) {
    handleMessage(from, msg);
  });
  // Authoritative churn notice: a departed peer's RTT estimate and retry
  // budget describe a node that no longer exists — evict rather than let a
  // rejoining peer (or LRU pressure) inherit stale state.
  statusToken_ = network_.addStatusObserver(
      [this](sim::NodeAddr node, bool online) {
        if (!online && node != addr_) peers_.erase(node);
      });
}

RpcEndpoint::~RpcEndpoint() {
  // Unhook from the network so in-flight deliveries to this address are
  // counted as offline drops instead of invoking a dangling handler. Timeout
  // closures hold a weak_ptr to state_ and expire with it.
  network_.setHandler(addr_, nullptr);
  network_.removeStatusObserver(statusToken_);
}

void RpcEndpoint::onRequest(sim::MessageType type, RequestHandler handler) {
  if (auto* existing = findByType(requestHandlers_, type.id())) {
    *existing = std::move(handler);
    return;
  }
  requestHandlers_.emplace_back(type.id(), std::move(handler));
}

void RpcEndpoint::onMessage(sim::MessageType type, MessageHandler handler) {
  if (auto* existing = findByType(messageHandlers_, type.id())) {
    *existing = std::move(handler);
    return;
  }
  messageHandlers_.emplace_back(type.id(), std::move(handler));
}

void RpcEndpoint::addReplyChannel(sim::MessageType type) {
  if (std::find(replyChannels_.begin(), replyChannels_.end(), type.id()) ==
      replyChannels_.end()) {
    replyChannels_.push_back(type.id());
  }
}

void RpcEndpoint::setReplyObserver(sim::MessageType type,
                                   ReplyObserver observer) {
  if (auto* existing = findByType(replyObservers_, type.id())) {
    *existing = std::move(observer);
    return;
  }
  replyObservers_.emplace_back(type.id(), std::move(observer));
}

RpcEndpoint::MetricSlots* RpcEndpoint::metricSlots(sim::MessageType type) {
  if (!network_.metrics()) return nullptr;
  if (metricsGeneration_ != network_.metricsGeneration()) {
    metricSlots_.clear();  // another Metrics: resolve every name again
    metricsGeneration_ = network_.metricsGeneration();
  }
  if (type.id() >= metricSlots_.size()) metricSlots_.resize(type.id() + 1);
  return &metricSlots_[type.id()];
}

void RpcEndpoint::bump(sim::MessageType type, Counter counter) {
  MetricSlots* slots = metricSlots(type);
  if (!slots) return;
  std::uint64_t*& slot = slots->counters[counter];
  if (!slot) {
    slot = &network_.metrics()->counterSlot(
        metricName(kCounterNames[counter], type));
  }
  ++*slot;
}

void RpcEndpoint::setGauge(sim::MessageType type, Gauge gauge, double value) {
  MetricSlots* slots = metricSlots(type);
  if (!slots) return;
  double*& slot = slots->gauges[gauge];
  if (!slot) {
    slot = &network_.metrics()->gaugeSlot(metricName(kGaugeNames[gauge], type));
  }
  *slot = value;
}

util::Writer RpcEndpoint::frame(std::size_t bodyBytes) {
  static constexpr std::array<std::uint8_t, sizeof(RpcId)> kUnset{};
  util::Writer w(sizeof(RpcId) + bodyBytes);
  w.raw(kUnset);  // call() or reply() writes the rpcId here
  return w;
}

RpcId RpcEndpoint::call(sim::NodeAddr to, sim::MessageType type,
                        util::Writer frame, const CallOptions& options,
                        ReplyCallback onReply) {
  const RpcId id =
      (static_cast<RpcId>(addr_) << 32) | static_cast<RpcId>(nextCallId_++);
  util::Bytes bytes = stamp(frame, id);

  PendingCall& pending = state_->pending[id];
  pending.type = type;
  pending.onReply = std::move(onReply);
  pending.startedAt = network_.simulator().now();
  pending.bytes = std::move(bytes);
  pending.peer = to;
  pending.timeout = options.timeout;
  pending.retry = options.retry;
  pending.adaptive = options.adaptiveTimeout;
  sim::SimTime wait = options.timeout;
  if (options.adaptiveTimeout) {
    // One lookup of the destination's state serves the budget and the
    // first attempt's timeout.
    PeerStateTable::PeerState& peer = peers_.state(to);
    pending.retry.attempts = peer.retry.attempts(options.retry.attempts);
    wait = peer.rtt.timeout(options.timeout);
  }
  transmit(id, pending, wait);
  return id;
}

sim::SimTime RpcEndpoint::attemptTimeout(const PendingCall& call) {
  // Adaptive calls take each attempt's timeout from the destination's
  // estimator at send time, so a backoff applied after an earlier timeout —
  // possibly by a concurrent call to the same peer — is already reflected.
  // `call.timeout` stays the caller's fixed value and doubles as the
  // pre-sample fallback.
  return call.adaptive ? peers_.state(call.peer).rtt.timeout(call.timeout)
                       : call.timeout;
}

void RpcEndpoint::transmit(RpcId id, PendingCall& call, sim::SimTime wait) {
  bump(call.type, kSent);
  try {
    network_.send(addr_, call.peer, sim::Message{call.type, call.bytes});
  } catch (const util::NetError&) {
    // Unroutable address (e.g. a contact learned from a corrupted reply):
    // treat like a black hole and let the timeout/retry path run its course.
  }
  armTimeout(id, wait);
}

void RpcEndpoint::armTimeout(RpcId id, sim::SimTime wait) {
  network_.simulator().schedule(
      wait, [this, weak = std::weak_ptr<State>(state_), id] {
        // The lock keeps the state alive while a callback runs, even one
        // that destroys this endpoint.
        if (const auto state = weak.lock()) onTimeout(id);
      });
}

void RpcEndpoint::onTimeout(RpcId id) {
  PendingCall* call = state_->pending.find(id);
  if (!call) return;  // answered in time
  bump(call->type, kTimeouts);
  if (call->adaptive) {
    PeerStateTable::PeerState& ps = peers_.state(call->peer);
    ps.rtt.onTimeout();
    ps.retry.observeAttempt(true);
  }
  if (call->attempt < call->retry.attempts) {
    call->retransmitted = true;
    ++state_->retries;
    bump(call->type, kRetries);
    network_.simulator().schedule(
        call->retry.backoff(call->attempt, network_.rng()),
        [this, weak = std::weak_ptr<State>(state_), id] {
          const auto state = weak.lock();
          if (!state) return;  // endpoint destroyed
          PendingCall* again = state->pending.find(id);
          if (!again) return;  // answered during backoff
          ++again->attempt;
          transmit(id, *again, attemptTimeout(*again));
        });
    return;
  }
  ++state_->failures;
  bump(call->type, kFailed);
  auto callback = std::move(call->onReply);
  state_->pending.erase(id);
  if (callback) callback(false, {});
}

RpcId RpcEndpoint::openCall(sim::MessageType opType, sim::SimTime timeout,
                            sim::Payload tag, ReplyCallback onReply) {
  const RpcId id =
      (static_cast<RpcId>(addr_) << 32) | static_cast<RpcId>(nextCallId_++);
  PendingCall& pending = state_->pending[id];
  pending.type = opType;
  pending.onReply = std::move(onReply);
  pending.startedAt = network_.simulator().now();
  pending.bytes = std::move(tag);
  bump(opType, kSent);
  // One attempt and no adaptivity: the deadline fails the slot.
  armTimeout(id, timeout);
  return id;
}

bool RpcEndpoint::complete(RpcId id, util::BytesView payload) {
  if (!state_->pending.contains(id)) return false;
  finish(id, true, payload);
  return true;
}

std::optional<util::BytesView> RpcEndpoint::tag(RpcId id) const {
  const PendingCall* call = state_->pending.find(id);
  if (!call) return std::nullopt;
  return call->bytes.view();
}

void RpcEndpoint::finish(RpcId id, bool ok, util::BytesView payload) {
  PendingCall* call = state_->pending.find(id);
  if (!call) return;
  const sim::MessageType type = call->type;
  if (ok) {
    bump(type, kCompleted);
    const sim::SimTime rtt = network_.simulator().now() - call->startedAt;
    if (MetricSlots* slots = metricSlots(type)) {
      if (!slots->rttMs) {
        slots->rttMs =
            &network_.metrics()->histogram(metricName(kRttHistogramName, type));
      }
      slots->rttMs->record(static_cast<double>(rtt) /
                           static_cast<double>(sim::kMillisecond));
    }
    if (call->adaptive) {
      PeerStateTable::PeerState& ps = peers_.state(call->peer);
      ps.retry.observeAttempt(false);
      // Karn's rule: only calls answered on their first attempt yield an
      // unambiguous sample.
      if (!call->retransmitted) recordRttSample(ps, type, rtt);
    }
  }
  auto callback = std::move(call->onReply);
  state_->pending.erase(id);
  if (callback) callback(ok, payload);
}

void RpcEndpoint::recordRttSample(PeerStateTable::PeerState& peer,
                                  sim::MessageType type, sim::SimTime rtt) {
  RttEstimator& est = peer.rtt;
  est.addSample(rtt);
  constexpr double kMs = static_cast<double>(sim::kMillisecond);
  bump(type, kRttSamples);
  setGauge(type, kSrtt, est.srtt() / kMs);
  setGauge(type, kRttvar, est.rttvar() / kMs);
  setGauge(type, kRttTimeout, static_cast<double>(est.timeout(0)) / kMs);
}

void RpcEndpoint::reply(sim::NodeAddr to, sim::MessageType replyType,
                        RpcId rpcId, util::Writer frame) {
  network_.send(addr_, to, sim::Message{replyType, stamp(frame, rpcId)});
}

void RpcEndpoint::send(sim::NodeAddr to, sim::MessageType type,
                       util::Bytes payload) {
  network_.send(addr_, to, sim::Message{type, std::move(payload)});
}

void RpcEndpoint::handleReply(sim::NodeAddr from, const sim::Message& msg) {
  RpcId id = 0;
  try {
    util::Reader r(msg.payload);
    id = r.u64();
  } catch (const util::CodecError&) {
    return;  // frame too short to carry an rpcId
  }
  const util::BytesView body = msg.payload.view().subspan(8);
  if (const ReplyObserver* observer =
          findByType(replyObservers_, msg.type.id())) {
    try {
      (*observer)(from, body);
    } catch (const util::DosnError&) {
      // The observer doubles as a frame validator: a corrupted reply is
      // dropped and the call stays pending for a retry or the timeout.
      return;
    }
  }
  if (!state_->pending.contains(id)) {
    bump(msg.type, kOrphans);
    return;  // timed out already, or a fault-duplicated reply
  }
  finish(id, true, body);
}

void RpcEndpoint::handleMessage(sim::NodeAddr from, const sim::Message& msg) {
  const sim::MessageTypeId typeId = msg.type.id();
  if (std::find(replyChannels_.begin(), replyChannels_.end(), typeId) !=
      replyChannels_.end()) {
    handleReply(from, msg);
    return;
  }
  if (const RequestHandler* request = findByType(requestHandlers_, typeId)) {
    try {
      util::Reader r(msg.payload);
      const RpcId id = r.u64();
      (*request)(from, msg.payload.view().subspan(8), id);
    } catch (const util::DosnError&) {
      // Malformed payload or unroutable wire-derived address: drop.
    }
    return;
  }
  if (const MessageHandler* handler = findByType(messageHandlers_, typeId)) {
    try {
      (*handler)(from, msg.payload);
    } catch (const util::DosnError&) {
      // Malformed payload or unroutable wire-derived address: drop.
    }
  }
  // Unknown type: ignore (matches the old per-overlay handlers).
}

}  // namespace dosn::net

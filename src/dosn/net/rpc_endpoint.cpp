#include "dosn/net/rpc_endpoint.hpp"

#include <algorithm>
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

RpcEndpoint::TypeMetricNames& RpcEndpoint::metricNames(sim::MessageType type) {
  const std::size_t id = type.id();
  if (id >= typeMetricNames_.size()) typeMetricNames_.resize(id + 1);
  auto& slot = typeMetricNames_[id];
  if (!slot) {
    slot = std::make_unique<TypeMetricNames>();
    const std::string& t = type.name();
    slot->sent = "rpc." + t + ".sent";
    slot->retries = "rpc." + t + ".retries";
    slot->timeouts = "rpc." + t + ".timeouts";
    slot->completed = "rpc." + t + ".completed";
    slot->failed = "rpc." + t + ".failed";
    slot->orphans = "rpc." + t + ".orphans";
    slot->rttMs = "rpc." + t + ".rtt_ms";
    slot->rttSamples = "rpc.rtt." + t + ".samples";
    slot->rttSrtt = "rpc.rtt." + t + ".srtt";
    slot->rttRttvar = "rpc.rtt." + t + ".rttvar";
    slot->rttTimeout = "rpc.rtt." + t + ".timeout";
  }
  return *slot;
}

void RpcEndpoint::bump(sim::MessageType type,
                       std::string TypeMetricNames::* event) {
  if (auto* m = network_.metrics()) {
    m->increment(metricNames(type).*event);
  }
}

RpcId RpcEndpoint::call(sim::NodeAddr to, sim::MessageType type,
                        util::BytesView body, const CallOptions& options,
                        ReplyCallback onReply) {
  const RpcId id =
      (static_cast<RpcId>(addr_) << 32) | static_cast<RpcId>(nextCallId_++);
  util::Writer w;
  w.reserve(sizeof(RpcId) + body.size());
  w.u64(id);
  w.raw(body);

  PendingCall& pending = state_->pending[id];
  pending.type = type;
  pending.onReply = std::move(onReply);
  pending.startedAt = network_.simulator().now();
  pending.peer = to;
  pending.adaptive = options.adaptiveTimeout;

  RetryPolicy retry = options.retry;
  if (options.adaptiveTimeout) {
    retry.attempts = peers_.state(to).retry.attempts(options.retry.attempts);
  }
  transmit(to, type, std::make_shared<const util::Bytes>(w.take()), id, 1,
           options.timeout, retry, options.adaptiveTimeout);
  return id;
}

void RpcEndpoint::transmit(sim::NodeAddr to, sim::MessageType type,
                           std::shared_ptr<const util::Bytes> frame, RpcId id,
                           std::size_t attempt, sim::SimTime timeout,
                           const RetryPolicy& retry, bool adaptive) {
  bump(type, &TypeMetricNames::sent);
  try {
    network_.send(addr_, to, sim::Message{type, *frame});
  } catch (const util::NetError&) {
    // Unroutable address (e.g. a contact learned from a corrupted reply):
    // treat like a black hole and let the timeout/retry path run its course.
  }
  // Adaptive calls take each attempt's timeout from the destination's
  // estimator at send time, so a backoff applied after an earlier timeout —
  // possibly by a concurrent call to the same peer — is already reflected.
  // `timeout` stays the caller's fixed value and doubles as the pre-sample
  // fallback.
  const sim::SimTime wait =
      adaptive ? peers_.state(to).rtt.timeout(timeout) : timeout;
  // The timeout closure and every retransmission share the call's one frame.
  std::weak_ptr<State> weak = state_;
  network_.simulator().schedule(
      wait, [this, weak, to, type, frame = std::move(frame), id, attempt,
             timeout, retry, adaptive]() mutable {
        const auto state = weak.lock();
        if (!state) return;  // endpoint destroyed
        PendingCall* call = state->pending.find(id);
        if (!call) return;  // answered in time
        bump(type, &TypeMetricNames::timeouts);
        if (adaptive) {
          PeerStateTable::PeerState& ps = peers_.state(to);
          ps.rtt.onTimeout();
          ps.retry.observeAttempt(true);
        }
        if (attempt < retry.attempts) {
          call->retransmitted = true;
          ++state->retries;
          bump(type, &TypeMetricNames::retries);
          network_.simulator().schedule(
              retry.backoff(attempt, network_.rng()),
              [this, weak, to, type, frame = std::move(frame), id, attempt,
               timeout, retry, adaptive]() mutable {
                const auto s = weak.lock();
                if (!s) return;
                if (!s->pending.contains(id)) return;  // answered during backoff
                transmit(to, type, std::move(frame), id, attempt + 1, timeout,
                         retry, adaptive);
              });
          return;
        }
        ++state->failures;
        bump(type, &TypeMetricNames::failed);
        auto callback = std::move(call->onReply);
        state->pending.erase(id);
        if (callback) callback(false, {});
      });
}

RpcId RpcEndpoint::openCall(sim::MessageType opType, sim::SimTime timeout,
                            util::Bytes tag, ReplyCallback onReply) {
  const RpcId id =
      (static_cast<RpcId>(addr_) << 32) | static_cast<RpcId>(nextCallId_++);
  PendingCall& pending = state_->pending[id];
  pending.type = opType;
  pending.onReply = std::move(onReply);
  pending.startedAt = network_.simulator().now();
  pending.tag = std::move(tag);
  bump(opType, &TypeMetricNames::sent);

  std::weak_ptr<State> weak = state_;
  network_.simulator().schedule(timeout, [this, weak, opType, id] {
    const auto state = weak.lock();
    if (!state) return;
    PendingCall* call = state->pending.find(id);
    if (!call) return;  // completed in time
    bump(opType, &TypeMetricNames::timeouts);
    ++state->failures;
    bump(opType, &TypeMetricNames::failed);
    auto callback = std::move(call->onReply);
    state->pending.erase(id);
    if (callback) callback(false, {});
  });
  return id;
}

bool RpcEndpoint::complete(RpcId id, util::BytesView payload) {
  if (!state_->pending.contains(id)) return false;
  finish(id, true, payload);
  return true;
}

const util::Bytes* RpcEndpoint::tag(RpcId id) const {
  const PendingCall* call = state_->pending.find(id);
  return call ? &call->tag : nullptr;
}

void RpcEndpoint::finish(RpcId id, bool ok, util::BytesView payload) {
  PendingCall* call = state_->pending.find(id);
  if (!call) return;
  const sim::MessageType type = call->type;
  if (ok) {
    bump(type, &TypeMetricNames::completed);
    const sim::SimTime rtt =
        network_.simulator().now() - call->startedAt;
    if (auto* m = network_.metrics()) {
      const double rttMs =
          static_cast<double>(rtt) / static_cast<double>(sim::kMillisecond);
      m->histogram(metricNames(type).rttMs).record(rttMs);
    }
    if (call->adaptive) {
      PeerStateTable::PeerState& ps = peers_.state(call->peer);
      ps.retry.observeAttempt(false);
      // Karn's rule: only calls answered on their first attempt yield an
      // unambiguous sample.
      if (!call->retransmitted) recordRttSample(call->peer, type, rtt);
    }
  }
  auto callback = std::move(call->onReply);
  state_->pending.erase(id);
  if (callback) callback(ok, payload);
}

void RpcEndpoint::recordRttSample(sim::NodeAddr peer, sim::MessageType type,
                                  sim::SimTime rtt) {
  RttEstimator& est = peers_.state(peer).rtt;
  est.addSample(rtt);
  if (auto* m = network_.metrics()) {
    constexpr double kMs = static_cast<double>(sim::kMillisecond);
    const TypeMetricNames& names = metricNames(type);
    m->increment(names.rttSamples);
    m->gauge(names.rttSrtt, est.srtt() / kMs);
    m->gauge(names.rttRttvar, est.rttvar() / kMs);
    m->gauge(names.rttTimeout, static_cast<double>(est.timeout(0)) / kMs);
  }
}

void RpcEndpoint::reply(sim::NodeAddr to, sim::MessageType replyType,
                        RpcId rpcId, util::BytesView body) {
  util::Writer w;
  w.reserve(sizeof(RpcId) + body.size());
  w.u64(rpcId);
  w.raw(body);
  network_.send(addr_, to, sim::Message{replyType, w.take()});
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
  const util::BytesView body = util::BytesView(msg.payload).subspan(8);
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
    bump(msg.type, &TypeMetricNames::orphans);
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
      (*request)(from, util::BytesView(msg.payload).subspan(8), id);
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

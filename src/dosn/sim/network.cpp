#include "dosn/sim/network.hpp"

#include <vector>

#include "dosn/sim/faults.hpp"
#include "dosn/sim/metrics.hpp"
#include "dosn/util/error.hpp"

namespace dosn::sim {

SimTime LatencyModel::sample(util::Rng& rng) const {
  SimTime t = base;
  if (jitter > 0) t += rng.uniform(jitter + 1);
  return t;
}

Network::Network(Simulator& sim, LatencyModel latency, util::Rng& rng)
    : sim_(sim), latency_(latency), rng_(rng) {}

NodeAddr Network::addNode() {
  handlers_.emplace_back();
  online_.push_back(1);
  return static_cast<NodeAddr>(handlers_.size());
}

void Network::validate(NodeAddr node) const {
  if (node == 0 || node > handlers_.size()) {
    throw util::NetError("Network: unknown node");
  }
}

void Network::setHandler(NodeAddr node, Handler handler) {
  validate(node);
  handlers_[node - 1] = std::move(handler);
}

std::uint64_t Network::addStatusObserver(StatusObserver observer) {
  const std::uint64_t token = nextObserverToken_++;
  statusObservers_.emplace(token, std::move(observer));
  return token;
}

void Network::removeStatusObserver(std::uint64_t token) {
  statusObservers_.erase(token);
}

void Network::setOnline(NodeAddr node, bool online) {
  validate(node);
  if (static_cast<bool>(online_[node - 1]) == online) return;
  online_[node - 1] = online ? 1 : 0;
  // Copy the tokens first: an observer may add/remove observers while
  // running (e.g. an endpoint tearing down in reaction to churn).
  std::vector<std::uint64_t> tokens;
  tokens.reserve(statusObservers_.size());
  for (const auto& [token, hook] : statusObservers_) tokens.push_back(token);
  for (const std::uint64_t token : tokens) {
    const auto it = statusObservers_.find(token);
    if (it != statusObservers_.end() && it->second) it->second(node, online);
  }
}

bool Network::isOnline(NodeAddr node) const {
  validate(node);
  return online_[node - 1] != 0;
}

std::size_t Network::onlineCount() const {
  std::size_t count = 0;
  for (const std::uint8_t flag : online_) {
    if (flag) ++count;
  }
  return count;
}

void Network::setMetrics(Metrics* metrics) {
  metrics_ = metrics;
  ++metricsGeneration_;
  dropSlots_.fill(nullptr);
}

void Network::count(DropCounter counter) {
  if (!metrics_) return;
  static const std::array<std::string, kDropCounterCount> kNames = {
      "net.dropped.loss", "net.dropped.fault", "net.dropped.offline",
      "net.duplicated",   "net.corrupted",     "net.partitioned"};
  std::uint64_t*& slot = dropSlots_[counter];
  if (!slot) slot = &metrics_->counterSlot(kNames[counter]);
  ++*slot;
}

void Network::bumpTypeCounter(std::vector<std::uint64_t>& counters,
                              MessageTypeId id) {
  if (id >= counters.size()) counters.resize(id + 1, 0);
  ++counters[id];
}

std::map<std::string, std::uint64_t> Network::typeCounterView(
    const std::vector<std::uint64_t>& counters) {
  std::map<std::string, std::uint64_t> view;
  for (MessageTypeId id = 0; id < counters.size(); ++id) {
    if (counters[id] != 0) view.emplace(messageTypeName(id), counters[id]);
  }
  return view;
}

std::map<std::string, std::uint64_t> Network::messagesByType() const {
  return typeCounterView(sentByType_);
}

std::map<std::string, std::uint64_t> Network::deliveredByType() const {
  return typeCounterView(deliveredByType_);
}

std::uint64_t Network::sentOfType(MessageType type) const {
  return type.id() < sentByType_.size() ? sentByType_[type.id()] : 0;
}

std::uint64_t Network::deliveredOfType(MessageType type) const {
  return type.id() < deliveredByType_.size() ? deliveredByType_[type.id()] : 0;
}

void Network::recordSent(const Message& msg) {
  ++messagesSent_;
  bytesSent_ += msg.payload.size();
  bumpTypeCounter(sentByType_, msg.type.id());
}

void Network::recordDelivered(const Message& msg) {
  ++messagesDelivered_;
  bytesDelivered_ += msg.payload.size();
  bumpTypeCounter(deliveredByType_, msg.type.id());
}

void Network::deliver(NodeAddr from, NodeAddr to, SimTime delay, Message msg) {
  sim_.schedule(delay, [this, from, to, msg = std::move(msg)]() mutable {
    // `to` was validated at send time and nodes are never removed, so only
    // the flag and handler need rechecking at delivery time.
    Handler& handler = handlers_[to - 1];
    if (!online_[to - 1] || !handler) {
      ++messagesDropped_;
      count(kDroppedOffline);
      return;
    }
    recordDelivered(msg);
    handler(from, msg);
  });
}

void Network::send(NodeAddr from, NodeAddr to, Message msg) {
  validate(from);
  validate(to);
  if (!online_[from - 1]) return;

  recordSent(msg);

  if (faults_ && !faults_->empty()) {
    const FaultPlan::Decision d =
        faults_->decide(sim_.now(), from, to, latency_.lossProbability, rng_);
    if (d.dropped()) {
      ++messagesDropped_;
      if (d.partitioned) count(kPartitioned);
      if (d.droppedByFault) count(kDroppedFault);
      if (d.droppedByLoss) count(kDroppedLoss);
      return;
    }
    if (d.corrupt) {
      corruptPayload(msg.payload, rng_);
      count(kCorrupted);
    }
    if (d.copies > 1) count(kDuplicated);
    for (std::size_t i = 0; i < d.copies; ++i) {
      const SimTime delay = latency_.sample(rng_) + d.extraDelay;
      // Every copy but the last shares the payload; the last takes the
      // message.
      if (i + 1 < d.copies) {
        deliver(from, to, delay, msg);
      } else {
        deliver(from, to, delay, std::move(msg));
      }
    }
    return;
  }

  if (latency_.lossProbability > 0 && rng_.chance(latency_.lossProbability)) {
    ++messagesDropped_;
    count(kDroppedLoss);
    return;
  }
  deliver(from, to, latency_.sample(rng_), std::move(msg));
}

void Network::resetStats() {
  messagesSent_ = 0;
  messagesDelivered_ = 0;
  messagesDropped_ = 0;
  bytesSent_ = 0;
  bytesDelivered_ = 0;
  sentByType_.assign(sentByType_.size(), 0);
  deliveredByType_.assign(deliveredByType_.size(), 0);
}

}  // namespace dosn::sim

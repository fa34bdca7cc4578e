// Simulated message network: typed messages between addressable nodes over
// links with configurable latency, jitter and loss. Messages to offline nodes
// are dropped (at delivery time — a node can go offline while a message is in
// flight), matching the availability semantics the DOSN literature assumes.
//
// Hot-path layout (DESIGN.md §3d): message types are interned MessageType
// ids, so per-type traffic counters are flat arrays indexed by id (no string
// hashing per send); a payload is one immutable buffer shared by every
// attempt, fault-plan duplicate and delivery of a message; and per-node
// state is stored in columns indexed directly by the densely-assigned
// NodeAddr — a deque of handlers (deque, not vector: a delivery handler may
// addNode(), and deque growth never moves the handler currently executing)
// and a byte vector of online flags. A delivery touches one handler row and
// one flag byte; at 100k+ nodes that is the difference between one cache
// miss per event and three.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dosn/sim/message_type.hpp"
#include "dosn/sim/simulator.hpp"
#include "dosn/util/bytes.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::sim {

class FaultPlan;
class Metrics;

using NodeAddr = std::uint64_t;
inline constexpr NodeAddr kNoAddr = ~NodeAddr{0};

/// The bytes of an in-flight message: one immutable buffer, shared. A
/// call's frame is built once, and its attempts, fault-plan duplicates and
/// deliveries all hold that buffer, so copying a Payload copies a handle.
/// It reads as a util::BytesView. Nothing converts it to util::Bytes
/// implicitly, so every byte copy is spelled out where it happens.
class Payload {
 public:
  Payload() = default;
  /// Adopts the vector's storage; the bytes are not copied.
  Payload(util::Bytes&& bytes)
      : bytes_(std::make_shared<const util::Bytes>(std::move(bytes))) {}

  const std::uint8_t* data() const { return bytes_ ? bytes_->data() : nullptr; }
  std::size_t size() const { return bytes_ ? bytes_->size() : 0; }
  bool empty() const { return size() == 0; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size(); }

  util::BytesView view() const { return {data(), size()}; }
  operator util::BytesView() const { return view(); }

 private:
  std::shared_ptr<const util::Bytes> bytes_;
};

struct Message {
  MessageType type;
  Payload payload;
};

/// Latency distribution of a link: base + uniform jitter, plus loss.
struct LatencyModel {
  SimTime base = 20 * kMillisecond;
  SimTime jitter = 10 * kMillisecond;  // uniform in [0, jitter]
  double lossProbability = 0.0;

  SimTime sample(util::Rng& rng) const;
};

class Network {
 public:
  using Handler = std::function<void(NodeAddr from, const Message& msg)>;
  /// Called when churn (or a test) flips a node online/offline.
  using StatusObserver = std::function<void(NodeAddr node, bool online)>;

  Network(Simulator& sim, LatencyModel latency, util::Rng& rng);

  /// Registers a node (online, no handler). Returns its address.
  /// Addresses are dense: 1, 2, 3, ... — the node table is indexed by them.
  NodeAddr addNode();

  void setHandler(NodeAddr node, Handler handler);

  /// Registers a network-wide status observer, invoked whenever any node
  /// flips online/offline. Returns a token for removeStatusObserver.
  /// Endpoints use this as the authoritative churn signal to evict per-peer
  /// state for departed nodes.
  std::uint64_t addStatusObserver(StatusObserver observer);
  void removeStatusObserver(std::uint64_t token);

  void setOnline(NodeAddr node, bool online);
  bool isOnline(NodeAddr node) const;
  std::size_t nodeCount() const { return handlers_.size(); }
  std::size_t onlineCount() const;

  /// Sends a message. Silently dropped if the sender is offline, the link
  /// loses it, an active fault swallows it, or the receiver is offline at
  /// delivery time.
  void send(NodeAddr from, NodeAddr to, Message msg);

  /// Attaches a fault plan (nullptr detaches). Not owned; must outlive use.
  void setFaultPlan(const FaultPlan* plan) { faults_ = plan; }
  /// Attaches a metrics sink for fault/drop counters (nullptr detaches):
  /// `net.dropped.loss`, `net.dropped.fault`, `net.dropped.offline`,
  /// `net.duplicated`, `net.corrupted`, `net.partitioned`.
  void setMetrics(Metrics* metrics);
  Metrics* metrics() { return metrics_; }
  /// Changes on every setMetrics(), so code that caches references into
  /// the attached Metrics (metric slots) knows when to resolve them again.
  /// A generation, not the pointer: a new Metrics can reuse a freed
  /// address.
  std::uint64_t metricsGeneration() const { return metricsGeneration_; }

  Simulator& simulator() { return sim_; }
  util::Rng& rng() { return rng_; }

  // Traffic accounting (for the overhead experiments). "Sent" counts every
  // send() by an online sender; "delivered" counts handler invocations, so
  // the two differ by losses, faults and offline receivers (and duplicated
  // messages can be delivered more often than sent).
  std::uint64_t messagesSent() const { return messagesSent_; }
  std::uint64_t messagesDelivered() const { return messagesDelivered_; }
  std::uint64_t messagesDropped() const { return messagesDropped_; }
  std::uint64_t bytesSent() const { return bytesSent_; }
  std::uint64_t bytesDelivered() const { return bytesDelivered_; }

  // String-keyed views over the dense per-type counter arrays, built on
  // demand (name-sorted, zero-count types omitted — exactly what the old
  // std::map-backed counters exposed). The hot path only ever touches the
  // arrays; these views are for printers, tests and JSON artifacts.
  std::map<std::string, std::uint64_t> messagesByType() const;
  std::map<std::string, std::uint64_t> deliveredByType() const;
  /// Dense counter lookups for a single interned type (no map building).
  std::uint64_t sentOfType(MessageType type) const;
  std::uint64_t deliveredOfType(MessageType type) const;

  void resetStats();

 private:
  // The drop and fault counters setMetrics() documents, in that order.
  enum DropCounter : std::size_t {
    kDroppedLoss,
    kDroppedFault,
    kDroppedOffline,
    kDuplicated,
    kCorrupted,
    kPartitioned,
    kDropCounterCount
  };

  /// Throws util::NetError unless `node` names a registered node.
  void validate(NodeAddr node) const;
  void count(DropCounter counter);
  void deliver(NodeAddr from, NodeAddr to, SimTime delay, Message msg);

  // The single place each direction of the traffic accounting is updated
  // (send() and deliver() both used to hand-roll these increments).
  void recordSent(const Message& msg);
  void recordDelivered(const Message& msg);
  static void bumpTypeCounter(std::vector<std::uint64_t>& counters,
                              MessageTypeId id);
  static std::map<std::string, std::uint64_t> typeCounterView(
      const std::vector<std::uint64_t>& counters);

  Simulator& sim_;
  LatencyModel latency_;
  util::Rng& rng_;
  const FaultPlan* faults_ = nullptr;
  Metrics* metrics_ = nullptr;
  std::uint64_t metricsGeneration_ = 0;
  // metrics_'s counter for each DropCounter, resolved at its first bump.
  std::array<std::uint64_t*, kDropCounterCount> dropSlots_{};
  // Column-per-field node table; NodeAddr a lives at row a - 1.
  std::deque<Handler> handlers_;
  std::vector<std::uint8_t> online_;
  // Token-keyed (not NodeAddr-keyed) and iterated in ascending token order
  // when fanning out status flips — that order is part of the deterministic
  // trace, so this deliberately stays an ordered map.
  std::map<std::uint64_t, StatusObserver> statusObservers_;
  std::uint64_t nextObserverToken_ = 1;

  std::uint64_t messagesSent_ = 0;
  std::uint64_t messagesDelivered_ = 0;
  std::uint64_t messagesDropped_ = 0;
  std::uint64_t bytesSent_ = 0;
  std::uint64_t bytesDelivered_ = 0;
  // Indexed by MessageTypeId, grown on first use of an id.
  std::vector<std::uint64_t> sentByType_;
  std::vector<std::uint64_t> deliveredByType_;
};

}  // namespace dosn::sim

// Unstructured overlay (paper §II-B): no index anywhere; lookups are TTL-
// limited floods over a random neighbor graph. "This kind of management has
// almost zero overhead" — zero *maintenance* overhead, paid for at query time.
//
// A search is a net::RpcEndpoint openCall(): the endpoint allocates the
// globally unique query id (deduplicated across the flood via seenQueries_),
// owns the overall deadline, and records flood.search latency/outcome
// metrics; the flood probes themselves are one-way messages.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "dosn/net/rpc_endpoint.hpp"
#include "dosn/overlay/node_id.hpp"
#include "dosn/sim/network.hpp"

namespace dosn::overlay {

class FloodingNode {
 public:
  FloodingNode(sim::Network& network, OverlayId id);

  const OverlayId& id() const { return id_; }
  sim::NodeAddr addr() const { return endpoint_.addr(); }

  /// Adds a bidirectional link (call on both nodes, or use linkNodes).
  void addNeighbor(sim::NodeAddr neighbor);
  const std::vector<sim::NodeAddr>& neighbors() const { return neighbors_; }

  /// Publishes a value locally (floods nothing; unstructured storage is
  /// owner-local).
  void publish(const OverlayId& key, util::Bytes value);

  /// Floods a query with the given TTL. The callback fires once: with the
  /// value on the first hit, or std::nullopt when `timeout` sim-time passes.
  void search(const OverlayId& key, int ttl, sim::SimTime timeout,
              std::function<void(std::optional<util::Bytes>)> done);

 private:
  void onQuery(sim::NodeAddr from, util::BytesView payload);

  sim::Network& network_;
  OverlayId id_;
  net::RpcEndpoint endpoint_;
  std::vector<sim::NodeAddr> neighbors_;
  std::map<OverlayId, util::Bytes> store_;
  std::set<std::uint64_t> seenQueries_;
};

/// Convenience: creates a bidirectional link.
void linkNodes(FloodingNode& a, FloodingNode& b);

}  // namespace dosn::overlay

// Semi-structured overlay (paper §II-B, Supernova-style): a subset of peers
// act as super peers that index the content of their assigned leaf peers and
// answer searches by consulting the other super peers (one hop).
//
// A leaf search is a net::RpcEndpoint openCall(): the endpoint allocates the
// query id, carries the searched key as the call tag across the
// query -> owner -> fetch chain, owns the one overall deadline, and records
// sp.search latency/outcome metrics.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "dosn/net/rpc_endpoint.hpp"
#include "dosn/overlay/node_id.hpp"
#include "dosn/sim/network.hpp"

namespace dosn::overlay {

class SuperPeer {
 public:
  explicit SuperPeer(sim::Network& network);

  sim::NodeAddr addr() const { return endpoint_.addr(); }

  /// Super peers know each other (small, stable set).
  void setPeers(std::vector<sim::NodeAddr> otherSuperPeers);

  std::size_t indexSize() const { return index_.size(); }

 private:
  net::RpcEndpoint endpoint_;
  std::vector<sim::NodeAddr> peers_;
  // key -> owner leaf address (the index; values stay on the owner).
  std::map<OverlayId, sim::NodeAddr> index_;
};

class LeafPeer {
 public:
  LeafPeer(sim::Network& network, sim::NodeAddr superPeer);

  sim::NodeAddr addr() const { return endpoint_.addr(); }

  /// Stores locally and registers the key with the assigned super peer.
  void publish(const OverlayId& key, util::Bytes value);

  /// Asks the super-peer tier; fetches the value from the owning leaf.
  void search(const OverlayId& key, sim::SimTime timeout,
              std::function<void(std::optional<util::Bytes>)> done);

 private:
  sim::Network& network_;
  net::RpcEndpoint endpoint_;
  sim::NodeAddr superPeer_;
  std::map<OverlayId, util::Bytes> store_;
};

}  // namespace dosn::overlay

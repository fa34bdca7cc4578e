// Gossip / epidemic dissemination (paper §II-B "flooding or gossip-based
// communication"; Cachet's "gossip-based caching"). Periodic push-pull
// anti-entropy of a versioned key-value cache over random peers.
//
// A round's digest exchange is a paired RPC on the shared net::RpcEndpoint
// ("gossip.digest" -> "gossip.sync"), which buys the anti-entropy path what
// every other overlay already had: correlation and per-RPC metrics. Each
// digest is one attempt with the endpoint's default 500 ms deadline; a
// dropped digest or sync is retried by the next anti-entropy round.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "dosn/net/rpc_endpoint.hpp"
#include "dosn/overlay/node_id.hpp"
#include "dosn/sim/network.hpp"
#include "dosn/util/codec.hpp"

namespace dosn::overlay {

struct GossipConfig {
  sim::SimTime interval = 1 * sim::kSecond;  // anti-entropy round period
  std::size_t fanout = 1;                    // peers contacted per round
};

class GossipNode {
 public:
  GossipNode(sim::Network& network, GossipConfig config = {});
  ~GossipNode();

  GossipNode(const GossipNode&) = delete;
  GossipNode& operator=(const GossipNode&) = delete;

  sim::NodeAddr addr() const { return endpoint_.addr(); }

  /// Peers gossiped with (typically the whole group or a random subset).
  void setPeers(std::vector<sim::NodeAddr> peers);

  /// Inserts/updates an entry; newer versions win everywhere.
  void put(const OverlayId& key, util::Bytes value, std::uint64_t version);

  /// Local cache lookup only (no network).
  std::optional<util::Bytes> get(const OverlayId& key) const;
  std::optional<std::uint64_t> version(const OverlayId& key) const;
  std::size_t cacheSize() const { return store_.size(); }

  /// Begins periodic anti-entropy rounds.
  void start();
  void stop();

  /// Hook invoked when a new/updated entry arrives via gossip.
  void onUpdate(std::function<void(const OverlayId&, const util::Bytes&)> hook) {
    updateHook_ = std::move(hook);
  }

 private:
  struct Entry {
    util::Bytes value;
    std::uint64_t version = 0;
  };

  void round();
  void exchangeWith(sim::NodeAddr peer);
  /// A digest call frame: every held key with its version.
  util::Writer digestFrame() const;
  util::Bytes encodeEntries(const std::vector<OverlayId>& keys) const;
  void applyEntries(util::Reader& r);

  sim::Network& network_;
  GossipConfig config_;
  net::RpcEndpoint endpoint_;
  std::vector<sim::NodeAddr> peers_;
  std::map<OverlayId, Entry> store_;
  std::shared_ptr<bool> running_;
  std::function<void(const OverlayId&, const util::Bytes&)> updateHook_;
};

}  // namespace dosn::overlay

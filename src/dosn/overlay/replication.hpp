// Replica placement and availability tracking — the paper's §I motivation:
// "replication and caching are proven techniques to ensure availability",
// at the price of replicas becoming "another kind of service provider in a
// small scale" (the survey's central observation).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "dosn/net/rpc_endpoint.hpp"
#include "dosn/overlay/node_id.hpp"
#include "dosn/overlay/placement.hpp"
#include "dosn/overlay/retry.hpp"
#include "dosn/sim/network.hpp"
#include "dosn/store/block_store.hpp"
#include "dosn/util/bytes.hpp"

namespace dosn::overlay {

/// Tracks which nodes hold a replica of each item and answers availability
/// queries against the network's live/offline state. Replica targets are
/// chosen by a pluggable PlacementPolicy; the default (null) policy is
/// VanillaPolicy, which reproduces the historical uniform-shuffle placement
/// byte for byte.
class ReplicationManager {
 public:
  /// `placement` is borrowed (not owned) and must outlive the manager; null
  /// selects an internally owned VanillaPolicy.
  explicit ReplicationManager(sim::Network& network,
                              PlacementPolicy* placement = nullptr);

  /// Places `replicas` copies of the item on distinct nodes drawn from
  /// `candidates` (policy-ranked; VanillaPolicy = uniformly at random).
  /// `owner` is the item's owning user — the social anchor recorded with the
  /// item so repair() recruits with the same context. Returns the chosen
  /// replica set in placement-preference order.
  std::vector<sim::NodeAddr> place(
      const OverlayId& item, std::size_t replicas,
      const std::vector<sim::NodeAddr>& candidates,
      std::optional<social::UserId> owner = std::nullopt);

  /// Maintenance pass: for every item whose ONLINE replica count fell below
  /// its placement target, recruits additional online candidates (and drops
  /// nothing — offline replicas may come back). Returns replicas added.
  /// This is the re-replication loop DOSN designs run to survive permanent
  /// departures, traded against extra storage/traffic.
  std::size_t repair(const std::vector<sim::NodeAddr>& candidates);

  /// Item is available iff at least one replica node is online.
  bool available(const OverlayId& item) const;

  /// Number of currently online replicas.
  std::size_t onlineReplicas(const OverlayId& item) const;

  /// The item's replica set, ascending by address (empty if unknown).
  const std::vector<sim::NodeAddr>& replicasOf(const OverlayId& item) const;

  /// How many distinct items a node can observe (it stores their replicas) —
  /// the "small-scale service provider" view-size metric. Pairs are sorted
  /// ascending by address (deterministic output path).
  std::vector<std::pair<sim::NodeAddr, std::size_t>> observerViewSizes() const;

  std::size_t itemCount() const { return items_.size(); }

 private:
  // Replica sets are small sorted vectors (k is single digits); the item
  // index is a sorted flat vector — at 100k-1M-node scale a tree node per
  // item/replica was all pointer chases (same rationale as sim/flat_map).
  struct ItemState {
    std::vector<sim::NodeAddr> replicas;  // sorted ascending
    std::size_t target = 0;
    std::optional<social::UserId> owner;  // social anchor for repair
  };

  ItemState* findItem(const OverlayId& item);
  const ItemState* findItem(const OverlayId& item) const;

  sim::Network& network_;
  std::unique_ptr<PlacementPolicy> ownedPolicy_;  // when none was injected
  PlacementPolicy* placement_;
  std::vector<std::pair<OverlayId, ItemState>> items_;  // sorted by id
};

/// Holds replica payloads at a simulated node and answers the replica wire
/// protocol: `repl.store` {reqId, item, value} -> `repl.ack` {reqId, ok} and
/// `repl.fetch` {reqId, item} -> `repl.value` {reqId, found, value}.
///
/// Storage is a pluggable store::BlockStore (DESIGN.md §3e); the default
/// MemoryStore preserves the historical hardwired-map behavior byte for
/// byte. A host over a durable stack (e.g. Crypt(Cache(Async(File)))) can be
/// torn down and rebuilt over the same backend: every block flushed before
/// teardown is re-served — the cold-restart recovery path E7c measures.
///
/// Error mapping at the wire: a put that throws StoreError nacks the store
/// RPC; a fetch whose block fails authentication (CorruptBlockError) answers
/// not-found — a tampered replica can deny a block, never forge one.
class ReplicaHost {
 public:
  /// `blocks` defaults to an in-memory store when null.
  explicit ReplicaHost(sim::Network& network,
                       std::unique_ptr<store::BlockStore> blocks = nullptr);

  sim::NodeAddr addr() const { return endpoint_.addr(); }

  // Narrow storage surface (the raw map accessor is gone — backends are
  // pluggable now): count, membership, and the store itself for wiring and
  // stats.
  std::size_t blockCount() const { return blocks_->size(); }
  bool hasBlock(const OverlayId& id) const { return blocks_->has(id); }
  store::BlockStore& store() { return *blocks_; }
  const store::BlockStore& store() const { return *blocks_; }

  /// Store-layer rejections observed at the wire (nacked puts + corrupt
  /// fetches), also counted in the attached Metrics as `repl.store.error` /
  /// `repl.fetch.corrupt`.
  std::uint64_t storeErrors() const { return storeErrors_; }

 private:
  // Declared before endpoint_: RPC handlers capture `this` and may touch the
  // store, so it must outlive the endpoint's registration.
  std::unique_ptr<store::BlockStore> blocks_;
  std::uint64_t storeErrors_ = 0;
  net::RpcEndpoint endpoint_;
};

/// Client side of the replica protocol: store/fetch against a ReplicaHost
/// with per-RPC timeout and retry-with-exponential-backoff — the defense the
/// fault-injection sweep (test_faults) exercises against lossy links. Fully
/// deterministic under the sim clock (no randomized jitter).
class ReplicaClient {
 public:
  /// `adaptiveTimeout` opts store/fetch RPCs into per-destination adaptive
  /// timeouts and retry budgets (net/rtt.hpp); `rpcTimeout` then serves as
  /// the pre-sample fallback and `retry.attempts` as the per-host budget
  /// floor.
  explicit ReplicaClient(sim::Network& network, RetryPolicy retry = {},
                         sim::SimTime rpcTimeout = 500 * sim::kMillisecond,
                         bool adaptiveTimeout = false);

  sim::NodeAddr addr() const { return endpoint_.addr(); }

  /// Stores `value` for `item` on `host`; done(ok) fires exactly once —
  /// true on ack, false after all attempts time out.
  void store(sim::NodeAddr host, const OverlayId& item, util::Bytes value,
             std::function<void(bool ok)> done);

  /// Fetches `item` from `host`; done fires exactly once — the value on a
  /// hit, nullopt if the host lacks it or all attempts time out.
  void fetch(sim::NodeAddr host, const OverlayId& item,
             std::function<void(std::optional<util::Bytes>)> done);

  // This client's robustness stats; the network-wide counts are
  // rpc.repl.{store,fetch}.{retries,failed}.
  std::uint64_t rpcRetries() const { return endpoint_.retries(); }
  std::uint64_t rpcFailures() const { return endpoint_.failures(); }

 private:
  void sendRpc(sim::NodeAddr host, const std::string& type, util::Bytes body,
               std::function<void(bool ok, util::BytesView reply)> onReply);

  net::RpcEndpoint endpoint_;
  RetryPolicy retry_;
  sim::SimTime rpcTimeout_;
  bool adaptiveTimeout_;
};

/// Samples availability of all items at fixed intervals; reports the mean.
class AvailabilityProbe {
 public:
  AvailabilityProbe(ReplicationManager& manager,
                    std::vector<OverlayId> items);

  /// Takes one sample now.
  void sample();

  /// Schedules `count` samples every `interval` on the simulator.
  void schedule(sim::Simulator& sim, sim::SimTime interval, std::size_t count);

  double meanAvailability() const;
  std::size_t sampleCount() const { return samples_; }

 private:
  ReplicationManager& manager_;
  std::vector<OverlayId> items_;
  std::size_t samples_ = 0;
  std::size_t availableObservations_ = 0;
};

}  // namespace dosn::overlay

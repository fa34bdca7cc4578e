// Kademlia-style DHT: the structured control overlay the paper's §II-B says
// "most of the recent DOSNs use ... distributed hash tables (DHTs) for the
// lookup service" (PrPl, PeerSoN, Safebook, Cachet).
//
// Implements k-bucket routing tables, iterative FIND_NODE / FIND_VALUE
// lookups with alpha-way parallelism, STORE on the k closest nodes, and RPC
// timeouts — all asynchronously on the discrete-event simulator. Request/
// response plumbing (rpcId correlation, retry/backoff, per-RPC metrics) is
// delegated to the shared net::RpcEndpoint.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "dosn/net/rpc_endpoint.hpp"
#include "dosn/overlay/node_id.hpp"
#include "dosn/overlay/placement.hpp"
#include "dosn/overlay/retry.hpp"
#include "dosn/sim/network.hpp"
#include "dosn/store/block_store.hpp"
#include "dosn/util/codec.hpp"

namespace dosn::overlay {

struct Contact {
  OverlayId id;
  sim::NodeAddr addr = sim::kNoAddr;

  bool operator==(const Contact& o) const { return id == o.id && addr == o.addr; }
};

struct KademliaConfig {
  std::size_t k = 20;       // bucket size / lookup width
  std::size_t alpha = 3;    // lookup parallelism
  sim::SimTime rpcTimeout = 500 * sim::kMillisecond;
  /// Nodes a store() places replicas on; 0 means "k" (classic Kademlia).
  /// Letting it differ from k keeps routing healthy while sweeping the
  /// replication factor (bench_microblog).
  std::size_t storeWidth = 0;
  /// Per-RPC retry with exponential backoff; default attempts=1 disables
  /// retries, preserving the classic single-shot timeout behavior.
  RetryPolicy retry;
  /// Per-destination adaptive timeouts (net/rtt.hpp): every RPC takes its
  /// timeout from an RFC 6298 estimator and its retry budget from an
  /// AdaptiveRetryPolicy keyed by the destination, with `rpcTimeout` as the
  /// pre-sample fallback and `retry.attempts` as the per-destination budget
  /// floor. Off by default: the classic fixed-timeout behavior is untouched.
  bool adaptiveTimeout = false;
  /// Optional placement policy for store(): when set, the `width` targets
  /// are chosen by policy from the XOR-closest contacts the lookup found
  /// (e.g. SocialPolicy prefers the owner's friends among them) instead of
  /// taking the closest prefix. Borrowed, not owned; must outlive the node.
  /// Null keeps the classic closest-prefix behavior byte for byte.
  PlacementPolicy* placement = nullptr;
  /// Factory for the node's local value store (DESIGN.md §3e). Null keeps
  /// the default in-memory backend; supply one to run replica nodes on a
  /// durable/encrypting stack, e.g. Crypt(Cache(Async(File))) via
  /// store::makeStack. Store-layer failures never cross the wire protocol:
  /// a put that throws is swallowed (the classic handler acked blindly) and
  /// a corrupt block reads as absent.
  std::function<std::unique_ptr<store::BlockStore>()> makeStore;
};

/// LRU k-bucket routing table.
class RoutingTable {
 public:
  RoutingTable(OverlayId self, std::size_t k);

  /// Records that a contact was seen (most-recently-seen goes last; a full
  /// bucket evicts its least-recently-seen entry).
  void observe(const Contact& contact);

  /// Replaces `out` with up to `count` contacts closest to `target`, nearest
  /// first. Visits only occupied buckets and orders only the distance ranges
  /// it takes contacts from; a caller that reuses `out` allocates nothing
  /// once it has grown.
  void closest(const OverlayId& target, std::size_t count,
               std::vector<Contact>& out) const;

  std::size_t size() const;

 private:
  struct Ranked {
    DistanceKey key;  // distance to the target of the current closest()
    const Contact* contact;
  };

  /// Appends bucket `index` to ranked_, each contact with its distance key.
  void rank(std::size_t index, const OverlayId& target) const;
  /// Orders ranked_ and moves its nearest contacts into `out`, up to
  /// `count`; true once `out` holds `count`.
  bool take(std::size_t count, std::vector<Contact>& out) const;

  OverlayId self_;
  std::size_t k_;
  std::array<std::vector<Contact>, kIdBits> buckets_;
  /// Bit i of occupied_[i / 64] is set while bucket i holds a contact.
  std::array<std::uint64_t, (kIdBits + 63) / 64> occupied_{};
  std::size_t size_ = 0;  // contacts over all buckets
  mutable std::vector<Ranked> ranked_;  // closest()'s scratch, reused
};

struct LookupResult {
  std::optional<util::Bytes> value;   // set for value lookups that hit
  std::vector<Contact> closest;       // k closest contacts found
  std::size_t messagesSent = 0;       // RPCs issued by this lookup
  std::size_t hops = 0;               // query rounds until termination
};

class KademliaNode {
 public:
  KademliaNode(sim::Network& network, OverlayId id, KademliaConfig config = {});

  const OverlayId& id() const { return id_; }
  sim::NodeAddr addr() const { return endpoint_.addr(); }
  const RoutingTable& routingTable() const { return table_; }
  net::RpcEndpoint& endpoint() { return endpoint_; }

  /// Seeds the routing table and performs a self-lookup.
  void bootstrap(const Contact& seed, std::function<void()> done = {});

  /// Stores key->value on the k closest nodes to the key.
  void store(const OverlayId& key, util::Bytes value,
             std::function<void(bool ok)> done = {});

  /// Owner-attributed store: identical to store(), but hands the owning
  /// user to the configured placement policy so socially-aware policies can
  /// rank the lookup's candidates. With no policy configured this is
  /// exactly store(). (A distinct name, not an overload: a brace-init
  /// callback would be ambiguous between UserId and std::function.)
  void storeAs(const OverlayId& key, util::Bytes value, social::UserId owner,
               std::function<void(bool ok)> done = {});

  /// Iterative value lookup.
  void findValue(const OverlayId& key,
                 std::function<void(LookupResult)> done);

  /// Iterative node lookup (no value retrieval).
  void findNode(const OverlayId& target,
                std::function<void(LookupResult)> done);

  /// The node's local block store (pluggable; default MemoryStore).
  const store::BlockStore& localStore() const { return *store_; }

  /// Re-joins after churn downtime: data survives locally, the routing table
  /// is refreshed via a self-lookup through the seed.
  void rejoin(const Contact& seed);

  // This node's RPC retry spend; the network-wide counts are
  // rpc.kad.<op>.retries.
  std::uint64_t rpcRetries() const { return endpoint_.retries(); }

 private:
  /// One iterative lookup, kept in lookups_ until it finishes.
  struct Lookup {
    struct Entry {
      DistanceKey key;  // distance to target, computed once
      Contact contact;
      bool queried = false;
    };

    /// Merges a contact into the shortlist at its distance rank, unless its
    /// id is listed already; the list keeps its k nearest entries.
    void merge(const Contact& contact, std::size_t k);

    std::uint64_t id = 0;
    OverlayId target;
    bool wantValue = false;
    std::function<void(LookupResult)> done;
    std::vector<Entry> shortlist;  // sorted by key, ids unique, at most k
    std::size_t inflight = 0;
    LookupResult result;
  };

  void setupRpcHandlers();
  void storeImpl(const OverlayId& key, util::Bytes value,
                 std::optional<social::UserId> owner,
                 std::function<void(bool ok)> done);
  /// Calls `to` with `senderId | payload`; the reply body handed to onReply
  /// still starts with the responder's id, which the reply observer read.
  void sendRpc(const Contact& to, sim::MessageType type,
               util::BytesView payload, net::RpcEndpoint::ReplyCallback onReply);
  /// A reply frame holding `id_`, with room for `bodyBytes` after it.
  util::Writer replyFrame(std::size_t bodyBytes) const;
  /// The reply listing this node's k contacts closest to `target`.
  util::Writer contactsReply(const OverlayId& target);
  void startLookup(const OverlayId& target, bool wantValue,
                   std::function<void(LookupResult)> done);
  /// The lookup with this id, or nullptr once it has finished.
  Lookup* findLookup(std::uint64_t lookupId);
  void lookupStep(std::uint64_t lookupId);
  void onLookupReply(std::uint64_t lookupId, bool ok, util::BytesView reply);
  void finishLookup(std::uint64_t lookupId);

  // Store-layer failures stay local (see KademliaConfig::makeStore).
  void localPut(const OverlayId& key, util::BytesView value);
  std::optional<util::Bytes> localGet(const OverlayId& key);

  sim::Network& network_;
  OverlayId id_;
  KademliaConfig config_;
  net::RpcEndpoint endpoint_;
  RoutingTable table_;
  std::unique_ptr<store::BlockStore> store_;
  // Lookups in flight, a handful per node, found by id. Their RPC callbacks
  // hold (this, id) only, so a reply that arrives after its lookup finished
  // finds nothing.
  std::vector<Lookup> lookups_;
  std::uint64_t nextLookupId_ = 1;
  std::vector<Contact> closest_;  // routing-table answers, reused
};

}  // namespace dosn::overlay

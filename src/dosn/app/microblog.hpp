// A decentralized microblogging service (Fethr [21] / Cuckoo [22] style) that
// ties the whole stack together: publishers keep hash-chained, ACL-encrypted
// timelines whose entries are stored in the Kademlia DHT; followers fetch a
// publisher's signed head record, walk the chain, verify every signature and
// decrypt what their circle membership allows.
//
// DHT layout (all values are replica-visible ciphertext/marshalled bytes):
//   mb:<user>:head      -> signed HeadRecord{length, headHash}
//   mb:<user>:<seq>     -> TimelineRecord{ChainEntry, Envelope}
//
// Trust model: replicas are untrusted. Content integrity and order are
// protected by the chain + signatures; confidentiality by the ACL envelope.
// A malicious replica can at worst serve a stale (shorter) but internally
// valid prefix — the §IV-B freshness limitation the fork-consistency
// machinery addresses at the provider level.
#pragma once

#include <functional>
#include <map>
#include <optional>

#include "dosn/integrity/hash_chain.hpp"
#include "dosn/overlay/kademlia.hpp"
#include "dosn/privacy/access_controller.hpp"
#include "dosn/social/content.hpp"
#include "dosn/store/cache_store.hpp"

namespace dosn::app {

using privacy::AccessController;
using social::UserId;

/// The publisher-signed head pointer for a timeline.
struct HeadRecord {
  std::uint64_t length = 0;
  crypto::Digest headHash{};
  pkcrypto::SchnorrSignature signature;

  util::Bytes signedBytes() const;
  util::Bytes serialize() const;
  static std::optional<HeadRecord> deserialize(util::BytesView data);
};

/// One stored timeline slot: the chain entry plus the encrypted post.
struct TimelineRecord {
  integrity::ChainEntry entry;
  privacy::Envelope envelope;

  util::Bytes serialize() const;
  static std::optional<TimelineRecord> deserialize(util::BytesView data);
};

/// A fetched, verified, decrypted view of someone's timeline.
struct FetchedTimeline {
  bool chainValid = false;          // signatures + hash chain verified
  bool headValid = false;           // head record signature verified
  std::vector<social::Post> posts;  // the posts this reader could decrypt
  std::size_t undecryptable = 0;    // entries the reader had no access to
};

/// One-hop friend-cache tier (DESIGN.md §3f): followers opportunistically
/// cache the timeline records they fetch in a bounded LruCache, answer
/// `mb.cache.get` probes from friends, and resolve entry fetches
/// cache-first — local cache, then up to two friend caches (the author's
/// own node first), then the DHT. The signed head record is NEVER cached:
/// it is the freshness anchor, so a stale cached entry is caught by
/// chain/head verification, invalidated, and re-fetched from the DHT.
struct FriendCacheConfig {
  bool enabled = false;
  std::size_t capacityBlocks = 256;
};

/// Fetch-side traffic accounting, kept per node so benches can compare
/// social/cached vs vanilla configurations without touching the shared
/// metrics surface: `hops` counts DHT query rounds plus one hop per remote
/// cache hit (a local hit is free).
struct FetchStats {
  std::uint64_t lookups = 0;            // DHT value lookups issued
  std::uint64_t hops = 0;
  std::uint64_t cacheLocalHits = 0;
  std::uint64_t cacheRemoteHits = 0;
  std::uint64_t cacheMisses = 0;        // fell through to the DHT
  std::uint64_t cacheInvalidations = 0; // stale cache detected + flushed
};

class MicroblogNode {
 public:
  /// The node owns its DHT presence; registry/ACL are shared infrastructure.
  MicroblogNode(sim::Network& network, overlay::OverlayId dhtId,
                const pkcrypto::DlogGroup& group, UserId user,
                social::IdentityRegistry& registry, AccessController& acl,
                util::Rng& rng, overlay::KademliaConfig dhtConfig = {},
                FriendCacheConfig cacheConfig = {});

  const UserId& user() const { return keyring_.user; }
  overlay::KademliaNode& dht() { return dht_; }

  /// Joins the DHT through a seed contact.
  void join(const overlay::Contact& seed, std::function<void()> done = {});

  // Circle management. Circle names are namespaced per user
  // ("alice/friends") so one access controller can serve every node; the
  // owner is a member of each circle it creates and cannot be revoked.
  std::string circleId(const std::string& circle) const;
  void createCircle(const std::string& circle);
  void addToCircle(const std::string& circle, const UserId& member);
  /// Revokes `member` through the ACL. Throws DosnError if `member` is this
  /// node's own user.
  privacy::RevocationReport removeFromCircle(const std::string& circle,
                                             const UserId& member);

  /// Encrypts, chains, and stores a post in the DHT; updates the signed head.
  /// `done(ok)` fires when both stores complete.
  void publish(const std::string& circle, const std::string& text,
               social::Timestamp now, util::Rng& rng,
               std::function<void(bool ok)> done = {});

  /// Fetches and verifies `author`'s full timeline from the DHT, decrypting
  /// as this node's user.
  void fetchTimeline(const UserId& author,
                     std::function<void(FetchedTimeline)> done);

  std::size_t publishedCount() const { return timeline_.size(); }

  // --- friend-cache tier (no-ops unless FriendCacheConfig::enabled) ---

  /// Registers a friend's node as a cache peer; `user`'s records may be
  /// probed there. Fetches of `user`'s timeline try that user's own entry
  /// first, then other registered peers, two probes at most. A fetch lists
  /// its peers when it starts, so a peer registered during a fetch is used
  /// from the next fetch on.
  void addFriendPeer(const UserId& user, sim::NodeAddr addr);

  /// The bounded friend cache, or nullptr when the tier is disabled.
  const store::LruCache* friendCache() const { return friendCache_.get(); }

  /// Per-node fetch traffic accounting (see FetchStats).
  const FetchStats& fetchStats() const { return fetchStats_; }

  static overlay::OverlayId headKey(const UserId& user);
  static overlay::OverlayId entryKey(const UserId& user, std::uint64_t seq);

 private:
  struct FetchState;
  void fetchEntries(const std::shared_ptr<FetchState>& state);
  void fetchRecord(const std::shared_ptr<FetchState>& state, std::uint64_t seq);
  /// Probes the fetch's `index`-th cache peer for entry `seq`, then the
  /// next one, then the DHT.
  void tryRemoteCache(const std::shared_ptr<FetchState>& state,
                      std::uint64_t seq, const overlay::OverlayId& key,
                      std::size_t index);
  void dhtFetch(const std::shared_ptr<FetchState>& state, std::uint64_t seq,
                const overlay::OverlayId& key);
  void finishFetch(const std::shared_ptr<FetchState>& state);
  void failFetch(const std::shared_ptr<FetchState>& state, FetchedTimeline out);
  std::vector<sim::NodeAddr> cachePeersFor(const UserId& author) const;

  const pkcrypto::DlogGroup& group_;
  social::IdentityRegistry& registry_;
  AccessController& acl_;
  social::Keyring keyring_;
  integrity::Timeline timeline_;
  overlay::KademliaNode dht_;
  social::PostId nextPostId_ = 1;
  std::unique_ptr<store::LruCache> friendCache_;  // null when disabled
  std::vector<std::pair<UserId, sim::NodeAddr>> friendPeers_;  // insert order
  FetchStats fetchStats_;
  // Per author: the longest chain this reader has verified, so a fetch
  // checks only the signatures of entries past it (integrity::ChainCursor).
  std::map<UserId, integrity::ChainCursor> chainCursors_;
};

}  // namespace dosn::app

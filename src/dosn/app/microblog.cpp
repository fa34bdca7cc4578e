#include "dosn/app/microblog.hpp"

#include <algorithm>
#include <array>
#include <charconv>

#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::app {

namespace {

// Friend-cache probe protocol, answered on the node's existing DHT endpoint
// (no extra network node, so the disabled-tier path stays byte-identical):
//   mb.cache.get {rpcId, key} -> mb.cache.value {rpcId, found, value}
const sim::MessageType kMsgCacheGet("mb.cache.get");
const sim::MessageType kMsgCacheValue("mb.cache.value");

// The friend cache's byte budget, alongside FriendCacheConfig::capacityBlocks.
constexpr std::size_t kCacheCapacityBytes = 256 * 1024;
// Remote friend caches probed per entry before falling back to the DHT.
constexpr std::size_t kCacheFanout = 2;
// Single-shot timeout per cache probe (no retries — the DHT is the fallback,
// not a retransmission).
constexpr sim::SimTime kCacheProbeTimeout = 200 * sim::kMillisecond;

}  // namespace

util::Bytes HeadRecord::signedBytes() const {
  util::Writer w;
  w.reserve(8 + crypto::kSha256DigestSize);
  w.u64(length);
  w.raw(util::BytesView(headHash));
  return w.take();
}

util::Bytes HeadRecord::serialize() const {
  util::Writer w;
  w.u64(length);
  w.raw(util::BytesView(headHash));
  w.bytes(signature.serialize());
  return w.take();
}

std::optional<HeadRecord> HeadRecord::deserialize(util::BytesView data) {
  try {
    util::Reader r(data);
    HeadRecord record;
    record.length = r.u64();
    r.rawInto(record.headHash);
    const auto sig = pkcrypto::SchnorrSignature::deserialize(r.bytesView());
    if (!sig) return std::nullopt;
    record.signature = *sig;
    r.expectEnd();
    return record;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

util::Bytes TimelineRecord::serialize() const {
  const util::Bytes entryBytes = entry.serialize();
  util::Writer w;
  w.reserve(4 + entryBytes.size() + 4 + envelope.scheme.size() + 4 +
            envelope.group.size() + 8 + 4 + envelope.blob.size());
  w.bytes(entryBytes);
  w.str(envelope.scheme);
  w.str(envelope.group);
  w.u64(envelope.serial);
  w.bytes(envelope.blob);
  return w.take();
}

std::optional<TimelineRecord> TimelineRecord::deserialize(util::BytesView data) {
  try {
    util::Reader r(data);
    TimelineRecord record;
    const auto entry = integrity::ChainEntry::deserialize(r.bytesView());
    if (!entry) return std::nullopt;
    record.entry = *entry;
    record.envelope.scheme = r.str();
    record.envelope.group = r.str();
    record.envelope.serial = r.u64();
    record.envelope.blob = r.bytes();
    r.expectEnd();
    return record;
  } catch (const util::CodecError&) {
    return std::nullopt;
  }
}

overlay::OverlayId MicroblogNode::headKey(const UserId& user) {
  // The id of "mb:<user>:head", streamed.
  crypto::Sha256 h;
  h.update(util::asBytes("mb:")).update(util::asBytes(user));
  h.update(util::asBytes(":head"));
  return overlay::OverlayId::hash(h);
}

overlay::OverlayId MicroblogNode::entryKey(const UserId& user,
                                           std::uint64_t seq) {
  // The id of "mb:<user>:<seq>", streamed.
  std::array<char, 20> digits{};
  const char* end =
      std::to_chars(digits.data(), digits.data() + digits.size(), seq).ptr;
  crypto::Sha256 h;
  h.update(util::asBytes("mb:")).update(util::asBytes(user));
  h.update(util::asBytes(":"));
  h.update(util::asBytes(std::string_view(digits.data(), end)));
  return overlay::OverlayId::hash(h);
}

MicroblogNode::MicroblogNode(sim::Network& network, overlay::OverlayId dhtId,
                             const pkcrypto::DlogGroup& group, UserId user,
                             social::IdentityRegistry& registry,
                             AccessController& acl, util::Rng& rng,
                             overlay::KademliaConfig dhtConfig,
                             FriendCacheConfig cacheConfig)
    : group_(group),
      registry_(registry),
      acl_(acl),
      keyring_(social::createKeyring(group, std::move(user), rng)),
      timeline_(group, keyring_),
      dht_(network, dhtId, dhtConfig) {
  registry_.registerIdentity(social::publicIdentity(keyring_));
  if (cacheConfig.enabled) {
    friendCache_ = std::make_unique<store::LruCache>(
        cacheConfig.capacityBlocks, kCacheCapacityBytes);
    dht_.endpoint().addReplyChannel(kMsgCacheValue);
    dht_.endpoint().onRequest(
        kMsgCacheGet,
        [this](sim::NodeAddr from, util::BytesView body, net::RpcId reqId) {
          util::Reader r(body);
          overlay::OverlayId key;
          r.rawInto(key.bytes);
          const auto value = friendCache_->get(key);
          util::Writer w =
              net::RpcEndpoint::frame(value ? 1 + 4 + value->size() : 1);
          if (value) {
            w.boolean(true);
            w.bytes(*value);
          } else {
            w.boolean(false);
          }
          dht_.endpoint().reply(from, kMsgCacheValue, reqId, std::move(w));
        });
  }
}

void MicroblogNode::addFriendPeer(const UserId& user, sim::NodeAddr addr) {
  for (auto& [peer, peerAddr] : friendPeers_) {
    if (peer == user) {
      peerAddr = addr;
      return;
    }
  }
  friendPeers_.emplace_back(user, addr);
}

std::vector<sim::NodeAddr> MicroblogNode::cachePeersFor(
    const UserId& author) const {
  // The author's own node first — it seeds its cache at publish time, so a
  // single probe there resolves a cold fetch in one hop; other registered
  // friends follow in registration order, capped at the fanout.
  // addFriendPeer keeps one entry per user, so the author adds at most one.
  std::vector<sim::NodeAddr> peers;
  for (const auto& [peer, addr] : friendPeers_) {
    if (peer == author) peers.push_back(addr);
  }
  for (const auto& [peer, addr] : friendPeers_) {
    if (peers.size() >= kCacheFanout) break;
    if (peer == author) continue;
    peers.push_back(addr);
  }
  return peers;
}

void MicroblogNode::join(const overlay::Contact& seed,
                         std::function<void()> done) {
  dht_.bootstrap(seed, std::move(done));
}

std::string MicroblogNode::circleId(const std::string& circle) const {
  return keyring_.user + "/" + circle;
}

void MicroblogNode::createCircle(const std::string& circle) {
  acl_.createGroup(circleId(circle));
  acl_.addMember(circleId(circle), keyring_.user);
}

void MicroblogNode::addToCircle(const std::string& circle,
                                const UserId& member) {
  acl_.addMember(circleId(circle), member);
}

privacy::RevocationReport MicroblogNode::removeFromCircle(
    const std::string& circle, const UserId& member) {
  if (member == keyring_.user) {
    throw util::DosnError("MicroblogNode: cannot revoke the circle owner");
  }
  return acl_.removeMember(circleId(circle), member);
}

void MicroblogNode::publish(const std::string& circle, const std::string& text,
                            social::Timestamp now, util::Rng& rng,
                            std::function<void(bool)> done) {
  social::Post post;
  post.author = keyring_.user;
  post.id = nextPostId_++;
  post.created = now;
  post.text = text;

  TimelineRecord record;
  record.envelope = acl_.encrypt(circleId(circle), post.serialize(), rng);
  // The chain entry commits to the stored ciphertext, binding order and
  // content even though replicas only ever see the envelope.
  record.entry =
      timeline_.append(crypto::sha256Bytes(record.envelope.blob), rng);
  const std::uint64_t seq = timeline_.size() - 1;
  const overlay::OverlayId key = entryKey(keyring_.user, seq);
  util::Bytes recordBytes = record.serialize();

  HeadRecord head;
  head.length = timeline_.size();
  head.headHash = timeline_.head();
  head.signature =
      pkcrypto::schnorrSign(group_, keyring_.signing, head.signedBytes(), rng);

  // Seed the publisher's own friend cache: followers probing the author
  // resolve a cold fetch in one hop instead of a full DHT lookup. The head
  // is deliberately not seeded — it stays a DHT-only freshness anchor.
  if (friendCache_) friendCache_->put(key, recordBytes);

  // Store the entry, then the head (owner-attributed, so a socially-aware
  // placement policy can rank the store targets; with no policy configured
  // this is the classic store()).
  auto shared = std::make_shared<std::pair<bool, bool>>(false, false);
  auto maybeDone = [shared, done]() {
    if (shared->first && shared->second && done) done(true);
  };
  dht_.storeAs(key, std::move(recordBytes), keyring_.user,
               [shared, maybeDone](bool) {
                 shared->first = true;
                 maybeDone();
               });
  dht_.storeAs(headKey(keyring_.user), head.serialize(), keyring_.user,
               [shared, maybeDone](bool) {
                 shared->second = true;
                 maybeDone();
               });
}

struct MicroblogNode::FetchState {
  UserId author;
  std::shared_ptr<const pkcrypto::SchnorrVerifyingKey> authorKey;
  // The friend caches probed for each entry, listed when the fetch starts:
  // a peer registered during a fetch is used from the next fetch on.
  std::vector<sim::NodeAddr> cachePeers;
  HeadRecord head;
  std::vector<std::optional<TimelineRecord>> records;
  std::size_t pending = 0;
  std::function<void(FetchedTimeline)> done;
  bool usedCache = false;   // any record came from a cache tier
  bool retried = false;     // one invalidate-and-refetch round already ran
  bool bypassCache = false; // retry round: resolve straight from the DHT
};

void MicroblogNode::fetchTimeline(const UserId& author,
                                  std::function<void(FetchedTimeline)> done) {
  auto authorKey = registry_.verifyingKey(author, group_);
  if (!authorKey) {
    done(FetchedTimeline{});
    return;
  }
  auto state = std::make_shared<FetchState>();
  state->author = author;
  state->authorKey = std::move(authorKey);
  if (friendCache_) state->cachePeers = cachePeersFor(author);
  state->done = std::move(done);

  ++fetchStats_.lookups;
  dht_.findValue(headKey(author), [this, state](overlay::LookupResult result) {
    fetchStats_.hops += result.hops;
    if (!result.value) {
      state->done(FetchedTimeline{});
      return;
    }
    const auto head = HeadRecord::deserialize(*result.value);
    if (!head ||
        !state->authorKey->verify(head->signedBytes(), head->signature)) {
      state->done(FetchedTimeline{});
      return;
    }
    state->head = *head;
    fetchEntries(state);
  });
}

void MicroblogNode::fetchEntries(const std::shared_ptr<FetchState>& state) {
  const std::size_t count = state->head.length;
  if (count == 0) {
    FetchedTimeline out;
    out.headValid = true;
    out.chainValid = true;
    state->done(std::move(out));
    return;
  }
  state->records.assign(count, std::nullopt);
  state->pending = count;
  for (std::uint64_t seq = 0; seq < count; ++seq) {
    fetchRecord(state, seq);
  }
}

void MicroblogNode::fetchRecord(const std::shared_ptr<FetchState>& state,
                                std::uint64_t seq) {
  const overlay::OverlayId key = entryKey(state->author, seq);
  if (friendCache_ && !state->bypassCache) {
    if (const auto cached = friendCache_->get(key)) {
      ++fetchStats_.cacheLocalHits;
      state->usedCache = true;
      state->records[seq] = TimelineRecord::deserialize(*cached);
      if (--state->pending == 0) finishFetch(state);
      return;
    }
    if (!state->cachePeers.empty()) {
      tryRemoteCache(state, seq, key, 0);
      return;
    }
  }
  if (friendCache_ && !state->bypassCache) ++fetchStats_.cacheMisses;
  dhtFetch(state, seq, key);
}

void MicroblogNode::tryRemoteCache(const std::shared_ptr<FetchState>& state,
                                   std::uint64_t seq,
                                   const overlay::OverlayId& key,
                                   std::size_t index) {
  if (index >= state->cachePeers.size()) {
    ++fetchStats_.cacheMisses;
    dhtFetch(state, seq, key);
    return;
  }
  util::Writer frame = net::RpcEndpoint::frame(overlay::kIdBytes);
  frame.raw(util::BytesView(key.bytes));
  net::CallOptions options;
  options.timeout = kCacheProbeTimeout;
  dht_.endpoint().call(
      state->cachePeers[index], kMsgCacheGet, std::move(frame), options,
      [this, state, seq, key, index](bool ok, util::BytesView reply) {
        if (ok) {
          try {
            util::Reader r(reply);
            if (r.boolean()) {
              const util::Bytes value = r.bytes();
              ++fetchStats_.cacheRemoteHits;
              ++fetchStats_.hops;  // one hop to the friend's cache
              state->usedCache = true;
              friendCache_->put(key, value);
              state->records[seq] = TimelineRecord::deserialize(value);
              if (--state->pending == 0) finishFetch(state);
              return;
            }
          } catch (const util::CodecError&) {
            // corrupted probe reply: treat as a miss at this peer
          }
        }
        tryRemoteCache(state, seq, key, index + 1);
      });
}

void MicroblogNode::dhtFetch(const std::shared_ptr<FetchState>& state,
                             std::uint64_t seq, const overlay::OverlayId& key) {
  ++fetchStats_.lookups;
  dht_.findValue(key, [this, state, seq, key](overlay::LookupResult result) {
    fetchStats_.hops += result.hops;
    if (result.value) {
      if (friendCache_) friendCache_->put(key, *result.value);
      state->records[seq] = TimelineRecord::deserialize(*result.value);
    }
    if (--state->pending == 0) finishFetch(state);
  });
}

void MicroblogNode::finishFetch(const std::shared_ptr<FetchState>& state) {
  FetchedTimeline out;
  out.headValid = true;

  // Assemble and verify the chain. Any failure routes through failFetch:
  // when a cache tier contributed records, the cached copies may simply be
  // stale (the author overwrote the timeline since they were cached) — the
  // cache is invalidated and the fetch retried once straight from the DHT.
  // The entries move out of the records: past this point only the
  // envelopes are read, and a retry refetches every record.
  std::vector<integrity::ChainEntry> entries;
  entries.reserve(state->records.size());
  for (auto& record : state->records) {
    if (!record) {
      failFetch(state, std::move(out));  // missing entry: chain invalid
      return;
    }
    entries.push_back(std::move(record->entry));
  }
  // verifyChain walks the whole fetched chain, then verifies only the
  // signatures past this reader's cursor for the author, under the author's
  // prepared key: the prefix it already verified is pinned by its last
  // entry's hash.
  if (!integrity::verifyChain(*state->authorKey, entries,
                              chainCursors_[state->author])) {
    failFetch(state, std::move(out));
    return;
  }
  // The signed head must match the reconstructed chain's head.
  if (entries.back().entryHash() != state->head.headHash) {
    failFetch(state, std::move(out));
    return;
  }
  // Each chain entry must commit to its envelope (payload = H(envelope)).
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const crypto::Digest commitment =
        crypto::sha256((*state->records[i]).envelope.blob);
    if (!std::equal(entries[i].payload.begin(), entries[i].payload.end(),
                    commitment.begin(), commitment.end())) {
      failFetch(state, std::move(out));
      return;
    }
  }
  out.chainValid = true;

  // Decrypt what we can.
  for (const auto& record : state->records) {
    const auto plain = acl_.decrypt(keyring_.user, record->envelope);
    if (!plain) {
      ++out.undecryptable;
      continue;
    }
    auto post = social::Post::deserialize(*plain);
    if (post) {
      out.posts.push_back(std::move(*post));
    } else {
      ++out.undecryptable;
    }
  }
  state->done(std::move(out));
}

void MicroblogNode::failFetch(const std::shared_ptr<FetchState>& state,
                              FetchedTimeline out) {
  if (friendCache_ && state->usedCache && !state->retried) {
    // Coherence: the freshly fetched (never cached) head disagreed with
    // cache-served records. Drop the author's cached entries and re-resolve
    // the whole timeline from the DHT, once.
    ++fetchStats_.cacheInvalidations;
    for (std::uint64_t seq = 0; seq < state->head.length; ++seq) {
      friendCache_->erase(entryKey(state->author, seq));
    }
    state->retried = true;
    state->bypassCache = true;
    state->usedCache = false;
    fetchEntries(state);
    return;
  }
  state->done(std::move(out));
}

}  // namespace dosn::app

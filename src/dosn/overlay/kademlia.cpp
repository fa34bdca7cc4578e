#include "dosn/overlay/kademlia.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "dosn/sim/metrics.hpp"
#include "dosn/store/memory_store.hpp"
#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::overlay {

namespace {

// Interned once at static-init; per-send dispatch is by dense id.
const sim::MessageType kMsgReply("kad.reply");
const sim::MessageType kMsgPing("kad.ping");
const sim::MessageType kMsgFindNode("kad.find_node");
const sim::MessageType kMsgFindValue("kad.find_value");
const sim::MessageType kMsgStore("kad.store");

}  // namespace


namespace {

void writeId(util::Writer& w, const OverlayId& id) {
  w.raw(util::BytesView(id.bytes));
}

OverlayId readId(util::Reader& r) {
  OverlayId id;
  r.rawInto(id.bytes);
  return id;
}

// An encoded contact: id + u64 address.
constexpr std::size_t kContactBytes = kIdBytes + 8;

constexpr std::uint8_t kReplyContacts = 0;
constexpr std::uint8_t kReplyValue = 1;
constexpr std::uint8_t kReplyOk = 2;

}  // namespace

RoutingTable::RoutingTable(OverlayId self, std::size_t k)
    : self_(self), k_(k) {}

void RoutingTable::observe(const Contact& contact) {
  const int index = bucketIndex(self_, contact.id);
  if (index < 0) return;  // self
  const auto i = static_cast<std::size_t>(index);
  auto& bucket = buckets_[i];
  const auto it = std::find_if(bucket.begin(), bucket.end(), [&](const Contact& c) {
    return c.id == contact.id;
  });
  if (it != bucket.end()) {
    // Move to the most-recently-seen position, refreshing the address.
    bucket.erase(it);
    bucket.push_back(contact);
    return;
  }
  if (bucket.size() >= k_) {
    // Evict the least-recently-seen contact. (Real Kademlia pings it first;
    // in the simulator stale contacts are simply replaced.)
    bucket.erase(bucket.begin());
  } else {
    ++size_;
  }
  bucket.push_back(contact);
  occupied_[i / 64] |= std::uint64_t{1} << (i % 64);
}

void RoutingTable::rank(std::size_t index, const OverlayId& target) const {
  for (const Contact& c : buckets_[index]) {
    ranked_.push_back(Ranked{distanceKey(c.id, target), &c});
  }
}

bool RoutingTable::take(std::size_t count, std::vector<Contact>& out) const {
  const auto nearer = [](const Ranked& a, const Ranked& b) {
    return a.key < b.key;
  };
  auto end = ranked_.end();
  const std::size_t room = count - out.size();
  if (ranked_.size() > room) {
    end = ranked_.begin() + static_cast<std::ptrdiff_t>(room);
    std::partial_sort(ranked_.begin(), end, ranked_.end(), nearer);
  } else {
    std::sort(ranked_.begin(), ranked_.end(), nearer);
  }
  for (auto it = ranked_.begin(); it != end; ++it) out.push_back(*it->contact);
  ranked_.clear();
  return out.size() == count;
}

void RoutingTable::closest(const OverlayId& target, std::size_t count,
                           std::vector<Contact>& out) const {
  // Bucket i holds the ids whose highest bit differing from self_ is bit i,
  // so with b the target's bucket the distances from the target fall in
  // ranges: bucket b below 2^b, buckets 0..b-1 together in [2^b, 2^(b+1)),
  // then each bucket i > b in [2^i, 2^(i+1)). Walking the ranges in that
  // order and ordering each one as it is reached selects the `count`
  // closest without ordering the rest. XOR distance orders distinct ids
  // strictly, so the result equals a sort of the whole table cut to count.
  out.clear();
  if (count == 0) return;
  // Visits the occupied buckets in [from, to) in increasing order until
  // `visit` returns true; empty buckets cost nothing.
  const auto scan = [this](std::size_t from, std::size_t to, auto&& visit) {
    for (std::size_t w = from / 64; w * 64 < to; ++w) {
      std::uint64_t bits = occupied_[w];
      if (w == from / 64) bits &= ~std::uint64_t{0} << (from % 64);
      if (to < (w + 1) * 64) bits &= (std::uint64_t{1} << (to % 64)) - 1;
      while (bits != 0) {
        const std::size_t i =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        if (visit(i)) return;
      }
    }
  };
  const int targetBucket = bucketIndex(self_, target);  // -1 for self_
  if (targetBucket >= 0) {
    const auto b = static_cast<std::size_t>(targetBucket);
    rank(b, target);
    if (take(count, out)) return;
    scan(0, b, [&](std::size_t i) {
      rank(i, target);
      return false;
    });
    if (take(count, out)) return;
  }
  scan(static_cast<std::size_t>(targetBucket + 1), kIdBits, [&](std::size_t i) {
    rank(i, target);
    return take(count, out);
  });
}

std::size_t RoutingTable::size() const { return size_; }

void KademliaNode::Lookup::merge(const Contact& contact, std::size_t k) {
  // The first address heard for an id stays. XOR distance orders distinct
  // ids strictly (equal keys mean equal ids), so the list stays exactly
  // what a sort after every reply would make it, cut to k: a contact
  // ranked k or beyond has k closer ones ahead of it for good, so no step
  // would ever query or return it.
  const DistanceKey key = distanceKey(contact.id, target);
  const auto pos = std::lower_bound(
      shortlist.begin(), shortlist.end(), key,
      [](const Entry& entry, const DistanceKey& d) { return entry.key < d; });
  if (static_cast<std::size_t>(pos - shortlist.begin()) >= k) return;
  if (pos != shortlist.end() && pos->key == key) return;
  if (shortlist.size() == k) shortlist.pop_back();
  shortlist.insert(pos, Entry{key, contact, false});
}

KademliaNode::KademliaNode(sim::Network& network, OverlayId id,
                           KademliaConfig config)
    : network_(network),
      id_(id),
      config_(config),
      endpoint_(network),
      table_(id, config.k),
      store_(config_.makeStore ? config_.makeStore()
                               : std::make_unique<store::MemoryStore>()) {
  setupRpcHandlers();
}

void KademliaNode::setupRpcHandlers() {
  // Every reply refreshes the sender's routing-table entry — including late
  // replies to already-failed calls. The observer also validates the frame:
  // a reply too short to carry a sender id throws and is dropped, leaving
  // the call pending for the retry/timeout path (matching the historical
  // parse-failure-drops behavior).
  endpoint_.addReplyChannel(kMsgReply);
  endpoint_.setReplyObserver(
      kMsgReply, [this](sim::NodeAddr from, util::BytesView body) {
        util::Reader r(body);
        const OverlayId senderId = readId(r);
        table_.observe(Contact{senderId, from});
      });

  // Request handlers. `body` is everything after the rpcId:
  // `senderId | args`. Each answer is written once as the whole reply
  // frame, `rpcId | id_ | kind | data`, and the endpoint sends it as it is.
  const auto serve = [this](sim::NodeAddr from, util::BytesView body,
                            net::RpcId rpcId, auto&& answer) {
    util::Reader r(body);
    const OverlayId senderId = readId(r);
    table_.observe(Contact{senderId, from});
    endpoint_.reply(from, kMsgReply, rpcId, answer(r));
  };

  endpoint_.onRequest(kMsgPing, [this, serve](sim::NodeAddr from,
                                                util::BytesView body,
                                                net::RpcId id) {
    serve(from, body, id, [this](util::Reader&) {
      util::Writer reply = replyFrame(1);
      reply.u8(kReplyOk);
      return reply;
    });
  });
  endpoint_.onRequest(
      kMsgFindNode,
      [this, serve](sim::NodeAddr from, util::BytesView body, net::RpcId id) {
        serve(from, body, id,
              [this](util::Reader& r) { return contactsReply(readId(r)); });
      });
  endpoint_.onRequest(
      kMsgFindValue,
      [this, serve](sim::NodeAddr from, util::BytesView body, net::RpcId id) {
        serve(from, body, id, [this](util::Reader& r) {
          const OverlayId key = readId(r);
          const auto value = localGet(key);
          if (!value) return contactsReply(key);
          util::Writer reply = replyFrame(1 + 4 + value->size());
          reply.u8(kReplyValue);
          reply.bytes(*value);
          return reply;
        });
      });
  endpoint_.onRequest(
      kMsgStore,
      [this, serve](sim::NodeAddr from, util::BytesView body, net::RpcId id) {
        serve(from, body, id, [this](util::Reader& r) {
          const OverlayId key = readId(r);
          localPut(key, r.bytesView());
          util::Writer reply = replyFrame(1);
          reply.u8(kReplyOk);
          return reply;
        });
      });
}

util::Writer KademliaNode::replyFrame(std::size_t bodyBytes) const {
  util::Writer frame = net::RpcEndpoint::frame(kIdBytes + bodyBytes);
  writeId(frame, id_);
  return frame;
}

util::Writer KademliaNode::contactsReply(const OverlayId& target) {
  table_.closest(target, config_.k, closest_);
  util::Writer reply = replyFrame(1 + 4 + closest_.size() * kContactBytes);
  reply.u8(kReplyContacts);
  reply.u32(static_cast<std::uint32_t>(closest_.size()));
  for (const Contact& c : closest_) {
    writeId(reply, c.id);
    reply.u64(c.addr);
  }
  return reply;
}

void KademliaNode::localPut(const OverlayId& key, util::BytesView value) {
  try {
    store_->put(key, value);
  } catch (const store::StoreError&) {
    // The classic handler acked stores unconditionally; a failing backend
    // degrades this node to a non-storer, it does not break the protocol.
  }
}

std::optional<util::Bytes> KademliaNode::localGet(const OverlayId& key) {
  try {
    return store_->get(key);
  } catch (const store::StoreError&) {
    return std::nullopt;  // corrupt block reads as absent, never as forged
  }
}

void KademliaNode::bootstrap(const Contact& seed, std::function<void()> done) {
  table_.observe(seed);
  findNode(id_, [done = std::move(done)](LookupResult) {
    if (done) done();
  });
}

void KademliaNode::rejoin(const Contact& seed) { bootstrap(seed, {}); }

void KademliaNode::sendRpc(const Contact& to, sim::MessageType type,
                           util::BytesView payload,
                           net::RpcEndpoint::ReplyCallback onReply) {
  util::Writer frame = net::RpcEndpoint::frame(kIdBytes + payload.size());
  writeId(frame, id_);
  frame.raw(payload);
  net::CallOptions options;
  options.timeout = config_.rpcTimeout;
  options.retry = config_.retry;
  options.adaptiveTimeout = config_.adaptiveTimeout;
  endpoint_.call(to.addr, type, std::move(frame), options, std::move(onReply));
}

void KademliaNode::store(const OverlayId& key, util::Bytes value,
                         std::function<void(bool)> done) {
  storeImpl(key, std::move(value), std::nullopt, std::move(done));
}

void KademliaNode::storeAs(const OverlayId& key, util::Bytes value,
                           social::UserId owner,
                           std::function<void(bool)> done) {
  storeImpl(key, std::move(value), std::move(owner), std::move(done));
}

void KademliaNode::storeImpl(const OverlayId& key, util::Bytes value,
                             std::optional<social::UserId> owner,
                             std::function<void(bool)> done) {
  findNode(key, [this, key, value = std::move(value), owner = std::move(owner),
                 done = std::move(done)](LookupResult result) {
    if (result.closest.empty()) {
      // No peers known: keep the value locally so at least the owner has it.
      localPut(key, value);
      if (done) done(false);
      return;
    }
    util::Writer body;
    body.reserve(kIdBytes + 4 + value.size());
    body.raw(util::BytesView(key.bytes));
    body.bytes(value);
    const util::Bytes encoded = body.take();
    const std::size_t width =
        config_.storeWidth == 0
            ? result.closest.size()
            : std::min(config_.storeWidth, result.closest.size());
    if (config_.placement) {
      // Policy path: the lookup's k-closest contacts form the candidate
      // pool; the policy picks `width` of them (e.g. SocialPolicy pulls the
      // owner's friends to the front).
      std::vector<sim::NodeAddr> addrs;
      addrs.reserve(result.closest.size());
      for (const Contact& contact : result.closest) {
        addrs.push_back(contact.addr);
      }
      const PlacementContext ctx{key, owner};
      for (const sim::NodeAddr addr :
           config_.placement->select(ctx, width, addrs)) {
        if (addr == endpoint_.addr()) {
          localPut(key, value);
          continue;
        }
        const auto it = std::find_if(
            result.closest.begin(), result.closest.end(),
            [addr](const Contact& c) { return c.addr == addr; });
        if (it == result.closest.end()) continue;
        sendRpc(*it, kMsgStore, encoded, [](bool, util::BytesView) {});
      }
      if (done) done(true);
      return;
    }
    for (std::size_t i = 0; i < width; ++i) {
      const Contact& contact = result.closest[i];
      if (contact.addr == endpoint_.addr()) {
        localPut(key, value);
        continue;
      }
      sendRpc(contact, kMsgStore, encoded, [](bool, util::BytesView) {});
    }
    if (done) done(true);
  });
}


void KademliaNode::findValue(const OverlayId& key,
                             std::function<void(LookupResult)> done) {
  if (auto value = localGet(key)) {
    LookupResult result;
    result.value = std::move(value);
    network_.simulator().schedule(
        0, [done = std::move(done), result = std::move(result)]() mutable {
          done(std::move(result));
        });
    return;
  }
  startLookup(key, /*wantValue=*/true, std::move(done));
}

void KademliaNode::findNode(const OverlayId& target,
                            std::function<void(LookupResult)> done) {
  startLookup(target, /*wantValue=*/false, std::move(done));
}

void KademliaNode::startLookup(const OverlayId& target, bool wantValue,
                               std::function<void(LookupResult)> done) {
  const std::uint64_t lookupId = nextLookupId_++;
  Lookup& lookup = lookups_.emplace_back();
  lookup.id = lookupId;
  lookup.target = target;
  lookup.wantValue = wantValue;
  lookup.done = std::move(done);
  // closest() lists distinct ids nearest first: already a shortlist.
  table_.closest(target, config_.k, closest_);
  lookup.shortlist.reserve(config_.k);
  for (const Contact& c : closest_) {
    lookup.shortlist.push_back(
        Lookup::Entry{distanceKey(c.id, target), c, false});
  }
  lookupStep(lookupId);
}

KademliaNode::Lookup* KademliaNode::findLookup(std::uint64_t lookupId) {
  for (Lookup& lookup : lookups_) {
    if (lookup.id == lookupId) return &lookup;
  }
  return nullptr;
}

void KademliaNode::lookupStep(std::uint64_t lookupId) {
  Lookup& lookup = *findLookup(lookupId);

  // Issue queries to the closest unqueried contacts, up to alpha in flight.
  // Only the k closest entries matter for termination.
  std::size_t consideredUnqueried = 0;
  bool issuedAny = false;
  const std::size_t considerLimit = std::min(config_.k, lookup.shortlist.size());
  for (std::size_t i = 0; i < considerLimit; ++i) {
    auto& entry = lookup.shortlist[i];
    if (entry.queried) continue;
    ++consideredUnqueried;
    if (lookup.inflight >= config_.alpha) break;
    entry.queried = true;
    ++lookup.inflight;
    ++lookup.result.messagesSent;
    issuedAny = true;

    const sim::MessageType type = lookup.wantValue ? kMsgFindValue : kMsgFindNode;
    // The callback holds (this, id), which std::function keeps inline.
    sendRpc(entry.contact, type, util::BytesView(lookup.target.bytes),
            [this, lookupId](bool ok, util::BytesView reply) {
              onLookupReply(lookupId, ok, reply);
            });
  }
  if (issuedAny) ++lookup.result.hops;

  if (consideredUnqueried == 0 && lookup.inflight == 0) {
    finishLookup(lookupId);
  }
}

void KademliaNode::onLookupReply(std::uint64_t lookupId, bool ok,
                                 util::BytesView reply) {
  Lookup* lookup = findLookup(lookupId);
  if (!lookup) return;  // finished before this reply or timeout
  --lookup->inflight;
  if (ok) {
    try {
      util::Reader r(reply);
      readId(r);  // the sender id, which the observer consumed
      const std::uint8_t kind = r.u8();
      if (kind == kReplyValue && lookup->wantValue) {
        lookup->result.value = r.bytes();
        finishLookup(lookupId);
        return;
      }
      if (kind == kReplyContacts) {
        // count() checks that the reply holds the whole list, so a
        // malformed list throws before any contact merges.
        const std::uint32_t count = r.count(kContactBytes);
        for (std::uint32_t i = 0; i < count; ++i) {
          Contact c;
          c.id = readId(r);
          c.addr = r.u64();
          lookup->merge(c, config_.k);
        }
      }
    } catch (const util::CodecError&) {
      // Malformed reply: treat as no new information.
    }
  }
  lookupStep(lookupId);
}

void KademliaNode::finishLookup(std::uint64_t lookupId) {
  Lookup& lookup = *findLookup(lookupId);
  LookupResult result = std::move(lookup.result);
  result.closest.reserve(lookup.shortlist.size());
  for (const auto& entry : lookup.shortlist) result.closest.push_back(entry.contact);
  auto done = std::move(lookup.done);
  // Removed before `done` runs, which may start lookups of its own; replies
  // still in flight then find no lookup and are dropped.
  if (&lookup != &lookups_.back()) lookup = std::move(lookups_.back());
  lookups_.pop_back();
  if (done) done(std::move(result));
}

}  // namespace dosn::overlay

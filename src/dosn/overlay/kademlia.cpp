#include "dosn/overlay/kademlia.hpp"

#include <algorithm>
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
  const util::Bytes raw = r.raw(kIdBytes);
  OverlayId id;
  std::copy(raw.begin(), raw.end(), id.bytes.begin());
  return id;
}

constexpr std::uint8_t kReplyContacts = 0;
constexpr std::uint8_t kReplyValue = 1;
constexpr std::uint8_t kReplyOk = 2;

}  // namespace

RoutingTable::RoutingTable(OverlayId self, std::size_t k)
    : self_(self), k_(k) {}

void RoutingTable::observe(const Contact& contact) {
  const int index = bucketIndex(self_, contact.id);
  if (index < 0) return;  // self
  auto& bucket = buckets_[static_cast<std::size_t>(index)];
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
  }
  bucket.push_back(contact);
}

std::vector<Contact> RoutingTable::closest(const OverlayId& target,
                                           std::size_t count) const {
  std::vector<Contact> all;
  for (const auto& bucket : buckets_) {
    all.insert(all.end(), bucket.begin(), bucket.end());
  }
  std::sort(all.begin(), all.end(), [&](const Contact& a, const Contact& b) {
    return closerTo(target, a.id, b.id);
  });
  if (all.size() > count) all.resize(count);
  return all;
}

std::size_t RoutingTable::size() const {
  std::size_t total = 0;
  for (const auto& bucket : buckets_) total += bucket.size();
  return total;
}

struct KademliaNode::Lookup {
  struct Entry {
    Contact contact;
    bool queried = false;
  };

  OverlayId target;
  bool wantValue = false;
  std::function<void(LookupResult)> done;
  std::vector<Entry> shortlist;  // sorted by closeness to target
  std::set<OverlayId> known;
  std::size_t inflight = 0;
  bool finished = false;
  LookupResult result;
};

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
  // `senderId | args`. Replies echo `id_ | kind | data` after the rpcId the
  // endpoint prepends.
  const auto serve = [this](sim::NodeAddr from, util::BytesView body,
                            net::RpcId rpcId,
                            const std::function<void(util::Reader&, util::Writer&)>&
                                answer) {
    util::Reader r(body);
    const OverlayId senderId = readId(r);
    table_.observe(Contact{senderId, from});
    util::Writer reply;
    writeId(reply, id_);
    answer(r, reply);
    endpoint_.reply(from, kMsgReply, rpcId, reply.buffer());
  };

  endpoint_.onRequest(kMsgPing, [serve](sim::NodeAddr from,
                                          util::BytesView body, net::RpcId id) {
    serve(from, body, id,
          [](util::Reader&, util::Writer& reply) { reply.u8(kReplyOk); });
  });
  endpoint_.onRequest(
      kMsgFindNode,
      [this, serve](sim::NodeAddr from, util::BytesView body, net::RpcId id) {
        serve(from, body, id, [this](util::Reader& r, util::Writer& reply) {
          const OverlayId target = readId(r);
          reply.u8(kReplyContacts);
          reply.raw(encodeContacts(table_.closest(target, config_.k)));
        });
      });
  endpoint_.onRequest(
      kMsgFindValue,
      [this, serve](sim::NodeAddr from, util::BytesView body, net::RpcId id) {
        serve(from, body, id, [this](util::Reader& r, util::Writer& reply) {
          const OverlayId key = readId(r);
          const auto value = localGet(key);
          if (value) {
            reply.u8(kReplyValue);
            reply.bytes(*value);
          } else {
            reply.u8(kReplyContacts);
            reply.raw(encodeContacts(table_.closest(key, config_.k)));
          }
        });
      });
  endpoint_.onRequest(
      kMsgStore,
      [this, serve](sim::NodeAddr from, util::BytesView body, net::RpcId id) {
        serve(from, body, id, [this](util::Reader& r, util::Writer& reply) {
          const OverlayId key = readId(r);
          localPut(key, r.bytes());
          reply.u8(kReplyOk);
        });
      });
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

void KademliaNode::sendRpc(
    const Contact& to, const std::string& type, util::Bytes payload,
    std::function<void(bool ok, util::BytesView reply)> onReply) {
  util::Writer body;
  writeId(body, id_);
  body.raw(payload);
  net::CallOptions options;
  options.timeout = config_.rpcTimeout;
  options.retry = config_.retry;
  options.adaptiveTimeout = config_.adaptiveTimeout;
  endpoint_.call(to.addr, type, body.buffer(), options,
                 [onReply = std::move(onReply)](bool ok, util::BytesView reply) {
                   if (!onReply) return;
                   // Strip the sender id the observer already consumed; the
                   // caller sees `kind | data`.
                   onReply(ok, ok ? reply.subspan(kIdBytes) : reply);
                 });
}

util::Bytes KademliaNode::encodeContacts(const std::vector<Contact>& contacts) {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(contacts.size()));
  for (const auto& c : contacts) {
    writeId(w, c.id);
    w.u64(c.addr);
  }
  return w.take();
}

std::vector<Contact> KademliaNode::decodeContacts(util::Reader& r) {
  const std::uint32_t count = r.count(kIdBytes + 8);  // id + u64 address
  std::vector<Contact> out;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Contact c;
    c.id = readId(r);
    c.addr = r.u64();
    out.push_back(c);
  }
  return out;
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
  const auto value = localGet(key);
  if (value) {
    LookupResult result;
    result.value = *value;
    network_.simulator().schedule(0, [done = std::move(done), result] {
      done(result);
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
  auto lookup = std::make_shared<Lookup>();
  lookup->target = target;
  lookup->wantValue = wantValue;
  lookup->done = std::move(done);
  for (const Contact& c : table_.closest(target, config_.k)) {
    lookup->shortlist.push_back(Lookup::Entry{c, false});
    lookup->known.insert(c.id);
  }
  lookupStep(lookup);
}

void KademliaNode::lookupStep(const std::shared_ptr<Lookup>& lookup) {
  if (lookup->finished) return;

  // Issue queries to the closest unqueried contacts, up to alpha in flight.
  // Only the k closest entries matter for termination.
  std::size_t consideredUnqueried = 0;
  bool issuedAny = false;
  const std::size_t considerLimit = std::min(config_.k, lookup->shortlist.size());
  for (std::size_t i = 0; i < considerLimit; ++i) {
    auto& entry = lookup->shortlist[i];
    if (entry.queried) continue;
    ++consideredUnqueried;
    if (lookup->inflight >= config_.alpha) break;
    entry.queried = true;
    ++lookup->inflight;
    ++lookup->result.messagesSent;
    issuedAny = true;

    util::Writer body;
    body.raw(util::BytesView(lookup->target.bytes));
    const sim::MessageType type = lookup->wantValue ? kMsgFindValue : kMsgFindNode;
    sendRpc(entry.contact, type, body.take(),
            [this, lookup](bool ok, util::BytesView reply) {
              --lookup->inflight;
              if (lookup->finished) return;
              if (ok) {
                try {
                  util::Reader r(reply);
                  const std::uint8_t kind = r.u8();
                  if (kind == kReplyValue && lookup->wantValue) {
                    lookup->result.value = r.bytes();
                    finishLookup(lookup);
                    return;
                  }
                  if (kind == kReplyContacts) {
                    for (const Contact& c : decodeContacts(r)) {
                      if (lookup->known.insert(c.id).second) {
                        lookup->shortlist.push_back(Lookup::Entry{c, false});
                      }
                    }
                    std::sort(lookup->shortlist.begin(), lookup->shortlist.end(),
                              [&](const Lookup::Entry& a, const Lookup::Entry& b) {
                                return closerTo(lookup->target, a.contact.id,
                                                b.contact.id);
                              });
                  }
                } catch (const util::CodecError&) {
                  // Malformed reply: treat as no new information.
                }
              }
              lookupStep(lookup);
            });
  }
  if (issuedAny) ++lookup->result.hops;

  if (consideredUnqueried == 0 && lookup->inflight == 0) {
    finishLookup(lookup);
  }
}

void KademliaNode::finishLookup(const std::shared_ptr<Lookup>& lookup) {
  if (lookup->finished) return;
  lookup->finished = true;
  for (const auto& entry : lookup->shortlist) {
    lookup->result.closest.push_back(entry.contact);
    if (lookup->result.closest.size() >= config_.k) break;
  }
  if (lookup->done) lookup->done(std::move(lookup->result));
}

}  // namespace dosn::overlay

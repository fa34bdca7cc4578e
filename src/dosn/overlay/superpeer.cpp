#include "dosn/overlay/superpeer.hpp"

#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::overlay {

namespace {

// Interned once at static-init; per-send dispatch is by dense id.
const sim::MessageType kMsgRegister("sp.register");
const sim::MessageType kMsgQuery("sp.query");
const sim::MessageType kMsgPeerQuery("sp.peer_query");
const sim::MessageType kMsgOwner("sp.owner");
const sim::MessageType kMsgFetch("sp.fetch");
const sim::MessageType kMsgValue("sp.value");
const sim::MessageType kOpSearch("sp.search");

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

}  // namespace

SuperPeer::SuperPeer(sim::Network& network) : endpoint_(network) {
  endpoint_.onMessage(
      kMsgRegister, [this](sim::NodeAddr from, util::BytesView payload) {
        util::Reader r(payload);
        index_[readId(r)] = from;
      });
  endpoint_.onMessage(
      kMsgQuery, [this](sim::NodeAddr, util::BytesView payload) {
        // From a leaf: answer locally or fan out to the other super peers.
        util::Reader r(payload);
        const std::uint64_t queryId = r.u64();
        const sim::NodeAddr origin = r.u64();
        const OverlayId key = readId(r);
        const auto it = index_.find(key);
        if (it != index_.end()) {
          util::Writer w = net::RpcEndpoint::frame(8);
          w.u64(it->second);
          endpoint_.reply(origin, kMsgOwner, queryId, std::move(w));
          return;
        }
        util::Writer w;
        w.u64(queryId);
        w.u64(origin);
        writeId(w, key);
        const util::Bytes payload2 = w.take();
        for (const sim::NodeAddr peer : peers_) {
          endpoint_.send(peer, kMsgPeerQuery, payload2);
        }
      });
  endpoint_.onMessage(
      kMsgPeerQuery, [this](sim::NodeAddr, util::BytesView payload) {
        // From another super peer: answer the origin directly on a hit.
        util::Reader r(payload);
        const std::uint64_t queryId = r.u64();
        const sim::NodeAddr origin = r.u64();
        const OverlayId key = readId(r);
        const auto it = index_.find(key);
        if (it != index_.end()) {
          util::Writer w = net::RpcEndpoint::frame(8);
          w.u64(it->second);
          endpoint_.reply(origin, kMsgOwner, queryId, std::move(w));
        }
      });
}

void SuperPeer::setPeers(std::vector<sim::NodeAddr> otherSuperPeers) {
  peers_ = std::move(otherSuperPeers);
}

LeafPeer::LeafPeer(sim::Network& network, sim::NodeAddr superPeer)
    : network_(network), endpoint_(network), superPeer_(superPeer) {
  endpoint_.onMessage(
      kMsgOwner, [this](sim::NodeAddr, util::BytesView payload) {
        // The index gave us the owner; fetch the value from it. The searched
        // key rides on the pending call's tag.
        util::Reader r(payload);
        const std::uint64_t queryId = r.u64();
        const sim::NodeAddr owner = r.u64();
        const std::optional<util::BytesView> key = endpoint_.tag(queryId);
        if (!key) return;  // timed out or a duplicate owner answer
        util::Writer w;
        w.u64(queryId);
        w.u64(endpoint_.addr());
        w.raw(*key);
        endpoint_.send(owner, kMsgFetch, w.take());
      });
  endpoint_.onMessage(
      kMsgFetch, [this](sim::NodeAddr, util::BytesView payload) {
        // Another leaf wants one of our values.
        util::Reader r(payload);
        const std::uint64_t queryId = r.u64();
        const sim::NodeAddr origin = r.u64();
        const OverlayId key = readId(r);
        const auto it = store_.find(key);
        if (it == store_.end()) return;
        util::Writer w = net::RpcEndpoint::frame(4 + it->second.size());
        w.bytes(it->second);
        endpoint_.reply(origin, kMsgValue, queryId, std::move(w));
      });
  // The observer validates the value field, so a corrupted sp.value leaves
  // the search pending until the deadline instead of completing it.
  endpoint_.addReplyChannel(kMsgValue);
  endpoint_.setReplyObserver(kMsgValue, [](sim::NodeAddr, util::BytesView body) {
    util::Reader r(body);
    r.bytes();
  });
}

void LeafPeer::publish(const OverlayId& key, util::Bytes value) {
  store_[key] = std::move(value);
  util::Writer w;
  writeId(w, key);
  endpoint_.send(superPeer_, kMsgRegister, w.take());
}

void LeafPeer::search(const OverlayId& key, sim::SimTime timeout,
                      std::function<void(std::optional<util::Bytes>)> done) {
  const auto local = store_.find(key);
  if (local != store_.end()) {
    network_.simulator().schedule(0, [done = std::move(done), v = local->second] {
      done(v);
    });
    return;
  }
  const net::RpcId queryId = endpoint_.openCall(
      kOpSearch, timeout, util::Bytes(key.bytes.begin(), key.bytes.end()),
      [done = std::move(done)](bool ok, util::BytesView reply) {
        if (!ok) {
          done(std::nullopt);
          return;
        }
        util::Reader r(reply);
        done(r.bytes());
      });
  util::Writer w;
  w.u64(queryId);
  w.u64(endpoint_.addr());
  writeId(w, key);
  endpoint_.send(superPeer_, kMsgQuery, w.take());
}

}  // namespace dosn::overlay

#include "dosn/overlay/flooding.hpp"

#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::overlay {

namespace {

// Interned once at static-init; per-send dispatch is by dense id.
const sim::MessageType kMsgQuery("flood.query");
const sim::MessageType kMsgHit("flood.hit");
const sim::MessageType kOpSearch("flood.search");

}  // namespace


namespace {

// Query payload: u64 queryId, u64 originAddr, i32 ttl, raw key(20).
util::Bytes encodeQuery(std::uint64_t queryId, sim::NodeAddr origin, int ttl,
                        const OverlayId& key) {
  util::Writer w;
  w.u64(queryId);
  w.u64(origin);
  w.u32(static_cast<std::uint32_t>(ttl));
  w.raw(util::BytesView(key.bytes));
  return w.take();
}

}  // namespace

FloodingNode::FloodingNode(sim::Network& network, OverlayId id)
    : network_(network), id_(id), endpoint_(network) {
  endpoint_.onMessage(kMsgQuery,
                      [this](sim::NodeAddr from, util::BytesView payload) {
                        onQuery(from, payload);
                      });
  // A hit carries `u64 queryId | bytes value`; the observer validates the
  // value field so a corrupted hit is dropped and the search keeps waiting
  // for another replica (or the deadline).
  endpoint_.addReplyChannel(kMsgHit);
  endpoint_.setReplyObserver(kMsgHit,
                             [](sim::NodeAddr, util::BytesView body) {
                               util::Reader r(body);
                               r.bytes();
                             });
}

void FloodingNode::addNeighbor(sim::NodeAddr neighbor) {
  for (const sim::NodeAddr n : neighbors_) {
    if (n == neighbor) return;
  }
  neighbors_.push_back(neighbor);
}

void linkNodes(FloodingNode& a, FloodingNode& b) {
  a.addNeighbor(b.addr());
  b.addNeighbor(a.addr());
}

void FloodingNode::publish(const OverlayId& key, util::Bytes value) {
  store_[key] = std::move(value);
}

void FloodingNode::search(
    const OverlayId& key, int ttl, sim::SimTime timeout,
    std::function<void(std::optional<util::Bytes>)> done) {
  // Local hit short-circuits.
  const auto it = store_.find(key);
  if (it != store_.end()) {
    network_.simulator().schedule(0, [done = std::move(done), v = it->second] {
      done(v);
    });
    return;
  }
  const net::RpcId queryId = endpoint_.openCall(
      kOpSearch, timeout, {},
      [done = std::move(done)](bool ok, util::BytesView reply) {
        if (!ok) {
          done(std::nullopt);
          return;
        }
        util::Reader r(reply);
        done(r.bytes());
      });
  seenQueries_.insert(queryId);

  const util::Bytes payload = encodeQuery(queryId, endpoint_.addr(), ttl, key);
  for (const sim::NodeAddr n : neighbors_) {
    endpoint_.send(n, kMsgQuery, payload);
  }
}

void FloodingNode::onQuery(sim::NodeAddr from, util::BytesView payload) {
  util::Reader r(payload);
  const std::uint64_t queryId = r.u64();
  const sim::NodeAddr origin = r.u64();
  const int ttl = static_cast<int>(r.u32());
  const util::Bytes keyRaw = r.raw(kIdBytes);
  OverlayId key;
  std::copy(keyRaw.begin(), keyRaw.end(), key.bytes.begin());

  if (!seenQueries_.insert(queryId).second) return;  // duplicate

  const auto it = store_.find(key);
  if (it != store_.end()) {
    util::Writer hit = net::RpcEndpoint::frame(4 + it->second.size());
    hit.bytes(it->second);
    endpoint_.reply(origin, kMsgHit, queryId, std::move(hit));
    return;
  }
  if (ttl <= 1) return;
  const util::Bytes forward = encodeQuery(queryId, origin, ttl - 1, key);
  for (const sim::NodeAddr n : neighbors_) {
    if (n == from) continue;
    endpoint_.send(n, kMsgQuery, forward);
  }
}

}  // namespace dosn::overlay

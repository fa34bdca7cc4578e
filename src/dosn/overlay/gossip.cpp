#include "dosn/overlay/gossip.hpp"

#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::overlay {

namespace {

// Interned once at static-init; per-send dispatch is by dense id.
const sim::MessageType kMsgDigest("gossip.digest");
const sim::MessageType kMsgSync("gossip.sync");
const sim::MessageType kMsgEntries("gossip.entries");

}  // namespace


namespace {

// Smallest wire size of one item of each gossip list, for Reader::count: a
// digest item is id | u64 version, an entry adds a u32-prefixed value, a
// requested key is a bare id.
constexpr std::size_t kDigestItemBytes = kIdBytes + 8;
constexpr std::size_t kEntryMinBytes = kIdBytes + 8 + 4;
constexpr std::size_t kRequestedKeyBytes = kIdBytes;

void writeId(util::Writer& w, const OverlayId& id) {
  w.raw(util::BytesView(id.bytes));
}

OverlayId readId(util::Reader& r) {
  const util::Bytes raw = r.raw(kIdBytes);
  OverlayId id;
  std::copy(raw.begin(), raw.end(), id.bytes.begin());
  return id;
}

// Parses a sync body (`entries | requested keys`) without applying it, so a
// truncated/corrupted reply throws here and is dropped by the endpoint —
// the digest call stays pending until its deadline.
void validateSync(util::BytesView body) {
  util::Reader r(body);
  const std::uint32_t entries = r.count(kEntryMinBytes);
  for (std::uint32_t i = 0; i < entries; ++i) {
    readId(r);
    r.u64();
    r.bytes();
  }
  const std::uint32_t requested = r.count(kRequestedKeyBytes);
  for (std::uint32_t i = 0; i < requested; ++i) readId(r);
}

}  // namespace

GossipNode::GossipNode(sim::Network& network, GossipConfig config)
    : network_(network),
      config_(config),
      endpoint_(network),
      running_(std::make_shared<bool>(false)) {
  endpoint_.onRequest(
      kMsgDigest,
      [this](sim::NodeAddr from, util::BytesView body, net::RpcId rpcId) {
        // Push-pull: reply with entries the peer is missing plus the keys we
        // want from it. The reply is sent even when both lists are empty —
        // an in-sync peer must still complete the RPC or it would time out.
        util::Reader r(body);
        std::map<OverlayId, std::uint64_t> peerVersions;
        const std::uint32_t count = r.count(kDigestItemBytes);
        for (std::uint32_t i = 0; i < count; ++i) {
          const OverlayId key = readId(r);
          peerVersions[key] = r.u64();
        }
        std::vector<OverlayId> toSend;
        for (const auto& [key, entry] : store_) {
          const auto it = peerVersions.find(key);
          if (it == peerVersions.end() || it->second < entry.version) {
            toSend.push_back(key);
          }
        }
        std::vector<OverlayId> toRequest;
        for (const auto& [key, version] : peerVersions) {
          const auto it = store_.find(key);
          if (it == store_.end() || it->second.version < version) {
            toRequest.push_back(key);
          }
        }
        util::Writer w = net::RpcEndpoint::frame();
        w.raw(encodeEntries(toSend));
        w.u32(static_cast<std::uint32_t>(toRequest.size()));
        for (const OverlayId& key : toRequest) writeId(w, key);
        endpoint_.reply(from, kMsgSync, rpcId, std::move(w));
      });
  endpoint_.addReplyChannel(kMsgSync);
  endpoint_.setReplyObserver(kMsgSync,
                             [](sim::NodeAddr, util::BytesView body) {
                               validateSync(body);
                             });
  endpoint_.onMessage(kMsgEntries,
                      [this](sim::NodeAddr, util::BytesView payload) {
                        util::Reader r(payload);
                        applyEntries(r);
                      });
}

GossipNode::~GossipNode() { stop(); }

void GossipNode::setPeers(std::vector<sim::NodeAddr> peers) {
  peers_ = std::move(peers);
}

void GossipNode::put(const OverlayId& key, util::Bytes value,
                     std::uint64_t version) {
  const auto it = store_.find(key);
  if (it != store_.end() && version <= it->second.version) return;
  Entry& entry = store_[key];
  entry.value = std::move(value);
  entry.version = version;
}

std::optional<util::Bytes> GossipNode::get(const OverlayId& key) const {
  const auto it = store_.find(key);
  if (it == store_.end()) return std::nullopt;
  return it->second.value;
}

std::optional<std::uint64_t> GossipNode::version(const OverlayId& key) const {
  const auto it = store_.find(key);
  if (it == store_.end()) return std::nullopt;
  return it->second.version;
}

void GossipNode::start() {
  if (*running_) return;
  *running_ = true;
  round();
}

void GossipNode::stop() { *running_ = false; }

void GossipNode::round() {
  if (!*running_) return;
  if (!peers_.empty()) {
    for (std::size_t i = 0; i < config_.fanout; ++i) {
      const sim::NodeAddr peer =
          peers_[network_.rng().uniform(peers_.size())];
      if (peer == endpoint_.addr()) continue;
      exchangeWith(peer);
    }
  }
  std::shared_ptr<bool> running = running_;
  network_.simulator().schedule(config_.interval, [this, running] {
    if (*running) round();
  });
}

void GossipNode::exchangeWith(sim::NodeAddr peer) {
  endpoint_.call(
      peer, kMsgDigest, digestFrame(), net::CallOptions{},
      // Note no running_ gate: a stopped node still applies incoming state
      // passively, exactly as the pre-endpoint message handler did.
      [this, peer](bool ok, util::BytesView reply) {
        if (!ok) return;  // final timeout
        util::Reader r(reply);
        applyEntries(r);
        const std::uint32_t requested = r.count(kRequestedKeyBytes);
        std::vector<OverlayId> keys;
        keys.reserve(requested);
        for (std::uint32_t i = 0; i < requested; ++i) keys.push_back(readId(r));
        if (!keys.empty()) {
          endpoint_.send(peer, kMsgEntries, encodeEntries(keys));
        }
      });
}

util::Writer GossipNode::digestFrame() const {
  util::Writer w =
      net::RpcEndpoint::frame(4 + store_.size() * (kIdBytes + 8));
  w.u32(static_cast<std::uint32_t>(store_.size()));
  for (const auto& [key, entry] : store_) {
    writeId(w, key);
    w.u64(entry.version);
  }
  return w;
}

util::Bytes GossipNode::encodeEntries(const std::vector<OverlayId>& keys) const {
  // Keys this node does not hold are skipped, so the count is the number of
  // entries found, not of keys asked for.
  std::vector<std::map<OverlayId, Entry>::const_iterator> held;
  held.reserve(keys.size());
  for (const OverlayId& key : keys) {
    const auto it = store_.find(key);
    if (it != store_.end()) held.push_back(it);
  }
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(held.size()));
  for (const auto& it : held) {
    writeId(w, it->first);
    w.u64(it->second.version);
    w.bytes(it->second.value);
  }
  return w.take();
}

void GossipNode::applyEntries(util::Reader& r) {
  const std::uint32_t count = r.count(kEntryMinBytes);
  for (std::uint32_t i = 0; i < count; ++i) {
    const OverlayId key = readId(r);
    const std::uint64_t version = r.u64();
    util::Bytes value = r.bytes();
    const auto it = store_.find(key);
    if (it != store_.end() && version <= it->second.version) continue;
    Entry& entry = store_[key];
    entry.version = version;
    entry.value = std::move(value);
    if (updateHook_) updateHook_(key, entry.value);
  }
}

}  // namespace dosn::overlay

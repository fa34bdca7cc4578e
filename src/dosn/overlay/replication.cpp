#include "dosn/overlay/replication.hpp"

#include <algorithm>

#include "dosn/sim/flat_map.hpp"
#include "dosn/sim/metrics.hpp"
#include "dosn/store/memory_store.hpp"
#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::overlay {

namespace {

// Interned once at static-init; per-send dispatch is by dense id.
const sim::MessageType kMsgStore("repl.store");
const sim::MessageType kMsgFetch("repl.fetch");
const sim::MessageType kMsgAck("repl.ack");
const sim::MessageType kMsgValue("repl.value");

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

ReplicationManager::ReplicationManager(sim::Network& network,
                                       PlacementPolicy* placement)
    : network_(network),
      ownedPolicy_(placement ? nullptr
                             : std::make_unique<VanillaPolicy>(network)),
      placement_(placement ? placement : ownedPolicy_.get()) {}

ReplicationManager::ItemState* ReplicationManager::findItem(
    const OverlayId& item) {
  const auto it = std::lower_bound(
      items_.begin(), items_.end(), item,
      [](const auto& entry, const OverlayId& id) { return entry.first < id; });
  if (it == items_.end() || it->first != item) return nullptr;
  return &it->second;
}

const ReplicationManager::ItemState* ReplicationManager::findItem(
    const OverlayId& item) const {
  return const_cast<ReplicationManager*>(this)->findItem(item);
}

std::vector<sim::NodeAddr> ReplicationManager::place(
    const OverlayId& item, std::size_t replicas,
    const std::vector<sim::NodeAddr>& candidates,
    std::optional<social::UserId> owner) {
  if (replicas == 0 || candidates.empty()) {
    throw util::NetError("ReplicationManager::place: bad arguments");
  }
  const PlacementContext ctx{item, owner};
  std::vector<sim::NodeAddr> chosen =
      placement_->select(ctx, replicas, candidates);
  const auto it = std::lower_bound(
      items_.begin(), items_.end(), item,
      [](const auto& entry, const OverlayId& id) { return entry.first < id; });
  ItemState* state;
  if (it != items_.end() && it->first == item) {
    state = &it->second;
  } else {
    state = &items_.emplace(it, item, ItemState{})->second;
  }
  state->replicas.assign(chosen.begin(), chosen.end());
  std::sort(state->replicas.begin(), state->replicas.end());
  state->replicas.erase(
      std::unique(state->replicas.begin(), state->replicas.end()),
      state->replicas.end());
  state->target = replicas;
  state->owner = std::move(owner);
  return chosen;
}

std::size_t ReplicationManager::repair(
    const std::vector<sim::NodeAddr>& candidates) {
  std::size_t added = 0;
  for (auto& [item, state] : items_) {
    std::size_t online = 0;
    for (const sim::NodeAddr node : state.replicas) {
      if (network_.isOnline(node)) ++online;
    }
    if (online >= state.target) continue;
    // Recruit online candidates not already holding a replica.
    std::vector<sim::NodeAddr> pool;
    for (const sim::NodeAddr node : candidates) {
      if (network_.isOnline(node) &&
          !std::binary_search(state.replicas.begin(), state.replicas.end(),
                              node)) {
        pool.push_back(node);
      }
    }
    if (pool.empty()) continue;
    const PlacementContext ctx{item, state.owner};
    const std::vector<sim::NodeAddr> chosen =
        placement_->select(ctx, state.target - online, pool);
    for (const sim::NodeAddr node : chosen) {
      if (online >= state.target) break;
      // Membership is re-checked by NodeAddr: a duplicate candidate must
      // never recruit the same node twice into one replica set.
      const auto pos = std::lower_bound(state.replicas.begin(),
                                        state.replicas.end(), node);
      if (pos != state.replicas.end() && *pos == node) continue;
      state.replicas.insert(pos, node);
      ++online;
      ++added;
    }
  }
  return added;
}

bool ReplicationManager::available(const OverlayId& item) const {
  return onlineReplicas(item) > 0;
}

std::size_t ReplicationManager::onlineReplicas(const OverlayId& item) const {
  const ItemState* state = findItem(item);
  if (!state) return 0;
  std::size_t online = 0;
  for (const sim::NodeAddr node : state->replicas) {
    if (network_.isOnline(node)) ++online;
  }
  return online;
}

const std::vector<sim::NodeAddr>& ReplicationManager::replicasOf(
    const OverlayId& item) const {
  static const std::vector<sim::NodeAddr> kEmpty;
  const ItemState* state = findItem(item);
  return state ? state->replicas : kEmpty;
}

std::vector<std::pair<sim::NodeAddr, std::size_t>>
ReplicationManager::observerViewSizes() const {
  sim::AddrMap<std::size_t> counts;
  for (const auto& [item, state] : items_) {
    for (const sim::NodeAddr node : state.replicas) ++counts[node];
  }
  std::vector<std::pair<sim::NodeAddr, std::size_t>> views;
  views.reserve(counts.size());
  for (const sim::NodeAddr node : counts.sortedKeys()) {
    views.emplace_back(node, *counts.find(node));
  }
  return views;
}

ReplicaHost::ReplicaHost(sim::Network& network,
                         std::unique_ptr<store::BlockStore> blocks)
    : blocks_(blocks ? std::move(blocks)
                     : std::make_unique<store::MemoryStore>()),
      endpoint_(network) {
  endpoint_.onRequest(
      kMsgStore,
      [this](sim::NodeAddr from, util::BytesView body, net::RpcId reqId) {
        util::Reader r(body);
        const OverlayId item = readId(r);
        const util::Bytes value = r.bytes();
        bool ok = true;
        try {
          blocks_->put(item, value);
        } catch (const store::StoreError&) {
          ok = false;
          ++storeErrors_;
          if (auto* m = endpoint_.network().metrics()) {
            m->increment("repl.store.error");
          }
        }
        util::Writer w;
        w.boolean(ok);
        endpoint_.reply(from, kMsgAck, reqId, w.buffer());
      });
  endpoint_.onRequest(
      kMsgFetch,
      [this](sim::NodeAddr from, util::BytesView body, net::RpcId reqId) {
        util::Reader r(body);
        const OverlayId item = readId(r);
        util::Writer w;
        std::optional<util::Bytes> value;
        try {
          value = blocks_->get(item);
        } catch (const store::StoreError&) {
          // Tampered/undecodable block: answer not-found — a corrupt replica
          // can deny a block, never serve a forged one.
          ++storeErrors_;
          if (auto* m = endpoint_.network().metrics()) {
            m->increment("repl.fetch.corrupt");
          }
        }
        if (value) {
          w.boolean(true);
          w.bytes(*value);
        } else {
          w.boolean(false);
        }
        endpoint_.reply(from, kMsgValue, reqId, w.buffer());
      });
}

ReplicaClient::ReplicaClient(sim::Network& network, RetryPolicy retry,
                             sim::SimTime rpcTimeout, bool adaptiveTimeout)
    : endpoint_(network),
      retry_(retry),
      rpcTimeout_(rpcTimeout),
      adaptiveTimeout_(adaptiveTimeout) {
  // No reply observers: a corrupted ack/value still completes the call and
  // the store/fetch adapters map the unparseable body to failure (matching
  // the historical client behavior the fault tests pin down).
  endpoint_.addReplyChannel(kMsgAck);
  endpoint_.addReplyChannel(kMsgValue);
}

void ReplicaClient::sendRpc(
    sim::NodeAddr host, const std::string& type, util::Bytes body,
    std::function<void(bool ok, util::BytesView reply)> onReply) {
  net::CallOptions options;
  options.timeout = rpcTimeout_;
  options.retry = retry_;
  options.adaptiveTimeout = adaptiveTimeout_;
  endpoint_.call(host, type, body, options, std::move(onReply));
}

void ReplicaClient::store(sim::NodeAddr host, const OverlayId& item,
                          util::Bytes value, std::function<void(bool)> done) {
  util::Writer body;
  writeId(body, item);
  body.bytes(value);
  sendRpc(host, kMsgStore, body.take(),
          [done = std::move(done)](bool ok, util::BytesView reply) {
            if (!done) return;
            if (!ok) {
              done(false);
              return;
            }
            try {
              util::Reader r(reply);
              done(r.boolean());
            } catch (const util::CodecError&) {
              done(false);  // corrupted ack
            }
          });
}

void ReplicaClient::fetch(
    sim::NodeAddr host, const OverlayId& item,
    std::function<void(std::optional<util::Bytes>)> done) {
  util::Writer body;
  writeId(body, item);
  sendRpc(host, kMsgFetch, body.take(),
          [done = std::move(done)](bool ok, util::BytesView reply) {
            if (!done) return;
            if (!ok) {
              done(std::nullopt);
              return;
            }
            try {
              util::Reader r(reply);
              if (!r.boolean()) {
                done(std::nullopt);
                return;
              }
              done(r.bytes());
            } catch (const util::CodecError&) {
              done(std::nullopt);  // corrupted value frame
            }
          });
}

AvailabilityProbe::AvailabilityProbe(ReplicationManager& manager,
                                     std::vector<OverlayId> items)
    : manager_(manager), items_(std::move(items)) {}

void AvailabilityProbe::sample() {
  for (const OverlayId& item : items_) {
    ++samples_;
    if (manager_.available(item)) ++availableObservations_;
  }
}

void AvailabilityProbe::schedule(sim::Simulator& sim, sim::SimTime interval,
                                 std::size_t count) {
  for (std::size_t i = 1; i <= count; ++i) {
    sim.schedule(interval * i, [this] { sample(); });
  }
}

double AvailabilityProbe::meanAvailability() const {
  if (samples_ == 0) return 0.0;
  return static_cast<double>(availableObservations_) /
         static_cast<double>(samples_);
}

}  // namespace dosn::overlay

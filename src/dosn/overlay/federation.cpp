#include "dosn/overlay/federation.hpp"

#include "dosn/util/codec.hpp"
#include "dosn/util/error.hpp"

namespace dosn::overlay {

namespace {

// Interned once at static-init; per-send dispatch is by dense id.
const sim::MessageType kMsgQuery("fed.query");
const sim::MessageType kMsgReply("fed.reply");

}  // namespace


void FederationDirectory::assign(const std::string& user, sim::NodeAddr server) {
  homes_[user] = server;
}

std::optional<sim::NodeAddr> FederationDirectory::homeOf(
    const std::string& user) const {
  const auto it = homes_.find(user);
  if (it == homes_.end()) return std::nullopt;
  return it->second;
}

std::map<sim::NodeAddr, std::size_t> FederationDirectory::viewSizes() const {
  std::map<sim::NodeAddr, std::size_t> sizes;
  for (const auto& [user, server] : homes_) ++sizes[server];
  return sizes;
}

FederatedServer::FederatedServer(sim::Network& network,
                                 const FederationDirectory& directory)
    : network_(network), directory_(directory), endpoint_(network) {
  endpoint_.onRequest(
      kMsgQuery,
      [this](sim::NodeAddr from, util::BytesView body, net::RpcId rpcId) {
        util::Reader r(body);
        const std::string user = r.str();
        const std::string key = r.str();
        util::Writer w = net::RpcEndpoint::frame();
        const auto userIt = data_.find(user);
        if (userIt != data_.end()) {
          const auto keyIt = userIt->second.find(key);
          if (keyIt != userIt->second.end()) {
            w.boolean(true);
            w.bytes(keyIt->second);
            endpoint_.reply(from, kMsgReply, rpcId, std::move(w));
            return;
          }
        }
        w.boolean(false);
        endpoint_.reply(from, kMsgReply, rpcId, std::move(w));
      });
  // The observer validates the found-flag and value so a corrupted reply is
  // dropped (the query then resolves nullopt at its deadline) instead of
  // silently losing the caller's callback as the pre-endpoint code did.
  endpoint_.addReplyChannel(kMsgReply);
  endpoint_.setReplyObserver(kMsgReply, [](sim::NodeAddr, util::BytesView body) {
    util::Reader r(body);
    if (r.boolean()) r.bytes();
  });
}

void FederatedServer::storeLocal(const std::string& user, const std::string& key,
                                 util::Bytes value) {
  data_[user][key] = std::move(value);
}

std::size_t FederatedServer::localUserCount() const { return data_.size(); }

void FederatedServer::query(
    const std::string& user, const std::string& key, sim::SimTime timeout,
    std::function<void(std::optional<util::Bytes>)> done) {
  const auto home = directory_.homeOf(user);
  if (!home) {
    network_.simulator().schedule(0, [done = std::move(done)] { done(std::nullopt); });
    return;
  }
  if (*home == endpoint_.addr()) {
    const auto userIt = data_.find(user);
    std::optional<util::Bytes> value;
    if (userIt != data_.end()) {
      const auto keyIt = userIt->second.find(key);
      if (keyIt != userIt->second.end()) value = keyIt->second;
    }
    network_.simulator().schedule(0, [done = std::move(done), value] { done(value); });
    return;
  }
  util::Writer w = net::RpcEndpoint::frame();
  w.str(user);
  w.str(key);
  net::CallOptions options;
  options.timeout = timeout;
  endpoint_.call(*home, kMsgQuery, std::move(w), options,
                 [done = std::move(done)](bool ok, util::BytesView reply) {
                   if (!ok) {
                     done(std::nullopt);
                     return;
                   }
                   util::Reader r(reply);
                   if (r.boolean()) {
                     done(r.bytes());
                   } else {
                     done(std::nullopt);
                   }
                 });
}

}  // namespace dosn::overlay

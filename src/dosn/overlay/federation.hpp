// Server federation (paper §II-B): users' data distributed over several
// servers so "none of them will have a complete global view". Each user has a
// home server; cross-server queries are forwarded by the user's own server.
//
// Cross-server queries are paired RPCs on a net::RpcEndpoint ("fed.query" ->
// "fed.reply"), giving them correlation, deadline handling, and per-RPC
// metrics from the shared substrate.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "dosn/net/rpc_endpoint.hpp"
#include "dosn/sim/network.hpp"
#include "dosn/util/bytes.hpp"

namespace dosn::overlay {

class FederatedServer;

/// Static directory mapping users to their home servers (like DNS for pods).
class FederationDirectory {
 public:
  void assign(const std::string& user, sim::NodeAddr server);
  std::optional<sim::NodeAddr> homeOf(const std::string& user) const;
  std::size_t userCount() const { return homes_.size(); }

  /// Users hosted per server — the "partial view" measurement for E6/T1
  /// discussion: no server sees more than its own share.
  std::map<sim::NodeAddr, std::size_t> viewSizes() const;

 private:
  std::map<std::string, sim::NodeAddr> homes_;
};

class FederatedServer {
 public:
  FederatedServer(sim::Network& network, const FederationDirectory& directory);

  sim::NodeAddr addr() const { return endpoint_.addr(); }

  /// Stores a user's datum on this (their home) server.
  void storeLocal(const std::string& user, const std::string& key,
                  util::Bytes value);

  std::size_t localUserCount() const;

  /// Client-facing query: served locally or forwarded to the home server.
  void query(const std::string& user, const std::string& key,
             sim::SimTime timeout,
             std::function<void(std::optional<util::Bytes>)> done);

 private:
  sim::Network& network_;
  const FederationDirectory& directory_;
  net::RpcEndpoint endpoint_;
  std::map<std::string, std::map<std::string, util::Bytes>> data_;
};

}  // namespace dosn::overlay

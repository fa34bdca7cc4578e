// Pluggable replica-placement policies (DESIGN.md §3f). The paper's §I
// availability argument and §IV "secure social search" category both hinge
// on *where* replicas live; the socially-aware DHT line of work (PAPERS.md)
// partitions and replicates by social locality so a user's wall and their
// friends' replicas are overlay-near. This layer makes that choice a policy:
//
//  - VanillaPolicy reproduces the historical ReplicationManager behavior
//    byte for byte (uniform shuffle via the network RNG, take a prefix) —
//    the default everywhere, so every sim-driven bench stays byte-identical
//    at a pinned seed (tests/test_placement.cpp pins this differentially).
//  - SocialPolicy ranks candidates by social proximity to the item's owner:
//    the owner's own node and direct friends first, then friends-of-friends,
//    then everyone else by XOR distance of their (bound) overlay id to the
//    item, with a final deterministic tie-break by NodeAddr. Liveness is the
//    primary key (an online stranger beats an offline friend); *at equal
//    liveness a friend always outranks a non-friend* — the property the
//    placement test suite pins.
//
// Policies are shared, not owned: one SocialPolicy instance carries the
// addr→user / addr→overlay-id bindings for a whole simulation and is handed
// by pointer to ReplicationManager and KademliaConfig::placement.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dosn/overlay/node_id.hpp"
#include "dosn/sim/network.hpp"
#include "dosn/social/graph.hpp"

namespace dosn::overlay {

/// Per-decision context: the item being placed and, when the caller knows
/// it, the item's owning user (the social anchor for SocialPolicy).
struct PlacementContext {
  OverlayId item;
  std::optional<social::UserId> owner;
};

/// Strategy for choosing replica targets. Contract: select() returns up to
/// `count` *distinct* addresses drawn from `candidates` (never repeats an
/// address even if the candidate list contains duplicates — the dedup-by-
/// NodeAddr rule the recruit-path regression test pins), in placement-
/// preference order, deterministically for a given RNG state and inputs.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual std::vector<sim::NodeAddr> select(
      const PlacementContext& ctx, std::size_t count,
      const std::vector<sim::NodeAddr>& candidates) = 0;

  /// Short label for bench tables ("vanilla", "social").
  virtual std::string name() const = 0;
};

/// The historical placement: shuffle the full candidate pool with the
/// network's RNG, then take the first `count` distinct addresses. The
/// shuffle ALWAYS covers the whole pool (even when fewer than `count`
/// survive) so the RNG consumption — and therefore every downstream draw in
/// a seeded simulation — matches the pre-policy inlined code exactly.
class VanillaPolicy final : public PlacementPolicy {
 public:
  explicit VanillaPolicy(sim::Network& network) : network_(network) {}

  std::vector<sim::NodeAddr> select(
      const PlacementContext& ctx, std::size_t count,
      const std::vector<sim::NodeAddr>& candidates) override;

  std::string name() const override { return "vanilla"; }

 private:
  sim::Network& network_;
};

struct SocialPolicyConfig {
  /// The social graph proximity is scored against. Required for social
  /// ranking; with no graph (or an owner unknown to it) every candidate
  /// lands in the stranger tier and selection degrades gracefully to the
  /// XOR/addr fallback order.
  const social::SocialGraph* graph = nullptr;
};

/// Social-locality placement. Candidates are ranked by
///   (liveness, social tier, XOR distance to the item, NodeAddr)
/// where online candidates rank ahead of offline ones (the social tier only
/// breaks liveness ties), tier 0 = the owner's own node or a direct friend,
/// tier 1 = a friend-of-a-friend, tier 2 = everyone else. XOR distance is
/// available only for candidates whose overlay id was bound via bindId();
/// unbound candidates sort after bound ones within a tier, by address. The
/// final NodeAddr key makes the whole ordering a strict total order, so
/// placement is deterministic regardless of candidate order — the tie-break
/// the placement tests pin.
class SocialPolicy final : public PlacementPolicy {
 public:
  SocialPolicy(sim::Network& network, SocialPolicyConfig config);

  /// Binds a simulated node to the user it hosts (the social identity
  /// placement scores against).
  void bind(sim::NodeAddr addr, social::UserId user);
  /// Binds a node's overlay id, enabling the XOR-distance fallback key.
  void bindId(sim::NodeAddr addr, const OverlayId& id);

  /// The bound user, or nullptr.
  const social::UserId* userOf(sim::NodeAddr addr) const;

  /// Social tier of `addr` relative to `owner`: 0 friend-or-self, 1
  /// friend-of-friend, 2 stranger/unbound. Exposed for tests and benches
  /// (replica-locality accounting).
  int tierOf(const social::UserId& owner, sim::NodeAddr addr) const;

  std::vector<sim::NodeAddr> select(
      const PlacementContext& ctx, std::size_t count,
      const std::vector<sim::NodeAddr>& candidates) override;

  std::string name() const override { return "social"; }

 private:
  sim::Network& network_;
  SocialPolicyConfig config_;
  sim::AddrMap<social::UserId> users_;
  sim::AddrMap<OverlayId> ids_;
};

}  // namespace dosn::overlay

#include "dosn/overlay/placement.hpp"

#include <algorithm>
#include <set>

namespace dosn::overlay {

std::vector<sim::NodeAddr> VanillaPolicy::select(
    const PlacementContext& ctx, std::size_t count,
    const std::vector<sim::NodeAddr>& candidates) {
  (void)ctx;
  std::vector<sim::NodeAddr> pool = candidates;
  // Shuffle the FULL pool before truncating — the historical inlined code
  // did exactly this, and matching its RNG consumption keeps every seeded
  // simulation downstream of a placement byte-identical.
  network_.rng().shuffle(pool);
  std::vector<sim::NodeAddr> chosen;
  chosen.reserve(std::min(count, pool.size()));
  for (const sim::NodeAddr addr : pool) {
    if (chosen.size() >= count) break;
    if (std::find(chosen.begin(), chosen.end(), addr) != chosen.end()) {
      continue;  // duplicate candidate — never repeat an address
    }
    chosen.push_back(addr);
  }
  return chosen;
}

SocialPolicy::SocialPolicy(sim::Network& network, SocialPolicyConfig config)
    : network_(network), config_(config) {}

void SocialPolicy::bind(sim::NodeAddr addr, social::UserId user) {
  users_[addr] = std::move(user);
}

void SocialPolicy::bindId(sim::NodeAddr addr, const OverlayId& id) {
  ids_[addr] = id;
}

const social::UserId* SocialPolicy::userOf(sim::NodeAddr addr) const {
  return users_.find(addr);
}

const SocialPolicy::OwnerTiers& SocialPolicy::tiersOf(
    const social::UserId& owner) const {
  const social::SocialGraph& graph = *config_.graph;
  const auto [it, inserted] = tiers_.try_emplace(owner);
  OwnerTiers& tiers = it->second;
  if (inserted || tiers.version != graph.version()) {
    const std::vector<social::UserId> friends = graph.friendsOf(owner);
    const std::set<social::UserId> fof = graph.friendsOfFriends(owner);
    tiers.version = graph.version();
    tiers.friends = {friends.begin(), friends.end()};
    tiers.friendsOfFriends = {fof.begin(), fof.end()};
  }
  return tiers;
}

int SocialPolicy::tierOf(const social::UserId& owner,
                         sim::NodeAddr addr) const {
  const social::UserId* user = users_.find(addr);
  if (!user || !config_.graph) return 2;
  if (*user == owner) return 0;
  const OwnerTiers& tiers = tiersOf(owner);
  if (tiers.friends.count(*user)) return 0;
  return tiers.friendsOfFriends.count(*user) ? 1 : 2;
}

std::vector<sim::NodeAddr> SocialPolicy::select(
    const PlacementContext& ctx, std::size_t count,
    const std::vector<sim::NodeAddr>& candidates) {
  // Dedup first: the ranking below is a strict total order on addresses, so
  // sorting a deduped list yields a deterministic preference order no matter
  // how the caller ordered (or repeated) candidates.
  std::vector<sim::NodeAddr> pool = candidates;
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  // The owner's friend / friend-of-friend sets, kept across decisions
  // (friendsOfFriends walks the adjacency). An owner the graph does not
  // know has empty sets.
  const social::UserId* owner = ctx.owner ? &*ctx.owner : nullptr;
  const OwnerTiers* tiers =
      owner && config_.graph ? &tiersOf(*owner) : nullptr;

  struct Ranked {
    bool offline;
    int tier;
    bool unbound;          // no overlay id bound → no XOR key
    OverlayId distance;    // xorDistance(boundId, item) when bound
    sim::NodeAddr addr;

    bool operator<(const Ranked& other) const {
      if (offline != other.offline) return !offline;
      if (tier != other.tier) return tier < other.tier;
      if (unbound != other.unbound) return !unbound;
      if (distance != other.distance) return distance < other.distance;
      return addr < other.addr;
    }
  };

  std::vector<Ranked> ranked;
  ranked.reserve(pool.size());
  for (const sim::NodeAddr addr : pool) {
    Ranked r;
    r.addr = addr;
    r.offline = !network_.isOnline(addr);
    const social::UserId* user = users_.find(addr);
    if (owner && user) {
      if (*user == *owner || (tiers && tiers->friends.count(*user))) {
        r.tier = 0;
      } else if (tiers && tiers->friendsOfFriends.count(*user)) {
        r.tier = 1;
      } else {
        r.tier = 2;
      }
    } else {
      r.tier = 2;
    }
    const OverlayId* id = ids_.find(addr);
    r.unbound = id == nullptr;
    if (id) r.distance = xorDistance(*id, ctx.item);
    ranked.push_back(r);
  }
  std::sort(ranked.begin(), ranked.end());

  std::vector<sim::NodeAddr> chosen;
  chosen.reserve(std::min(count, ranked.size()));
  for (const Ranked& r : ranked) {
    if (chosen.size() >= count) break;
    chosen.push_back(r.addr);
  }
  return chosen;
}

}  // namespace dosn::overlay

#include "dosn/social/graph.hpp"

#include <deque>
#include <stdexcept>

namespace dosn::social {

void SocialGraph::addUser(const UserId& user) {
  adjacency_[user];
  ++version_;
}

bool SocialGraph::hasUser(const UserId& user) const {
  return adjacency_.count(user) > 0;
}

std::vector<UserId> SocialGraph::users() const {
  std::vector<UserId> out;
  out.reserve(adjacency_.size());
  for (const auto& [user, friends] : adjacency_) out.push_back(user);
  return out;
}

void SocialGraph::addFriendship(const UserId& a, const UserId& b, double trust) {
  if (a == b) throw std::invalid_argument("addFriendship: self-loop");
  if (trust < 0.0 || trust > 1.0) {
    throw std::invalid_argument("addFriendship: trust must be in [0,1]");
  }
  adjacency_[a][b] = trust;
  adjacency_[b][a] = trust;
  ++version_;
}

void SocialGraph::removeFriendship(const UserId& a, const UserId& b) {
  const auto ai = adjacency_.find(a);
  if (ai != adjacency_.end()) ai->second.erase(b);
  const auto bi = adjacency_.find(b);
  if (bi != adjacency_.end()) bi->second.erase(a);
  ++version_;
}

bool SocialGraph::areFriends(const UserId& a, const UserId& b) const {
  const auto it = adjacency_.find(a);
  return it != adjacency_.end() && it->second.count(b) > 0;
}

std::optional<double> SocialGraph::trust(const UserId& a, const UserId& b) const {
  const auto it = adjacency_.find(a);
  if (it == adjacency_.end()) return std::nullopt;
  const auto edge = it->second.find(b);
  if (edge == it->second.end()) return std::nullopt;
  return edge->second;
}

void SocialGraph::setTrust(const UserId& a, const UserId& b, double trust) {
  if (!areFriends(a, b)) throw std::invalid_argument("setTrust: not friends");
  if (trust < 0.0 || trust > 1.0) {
    throw std::invalid_argument("setTrust: trust must be in [0,1]");
  }
  adjacency_[a][b] = trust;
  adjacency_[b][a] = trust;
  ++version_;
}

std::vector<UserId> SocialGraph::friendsOf(const UserId& user) const {
  std::vector<UserId> out;
  const auto it = adjacency_.find(user);
  if (it == adjacency_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [friendId, trust] : it->second) out.push_back(friendId);
  return out;
}

std::size_t SocialGraph::degree(const UserId& user) const {
  const auto it = adjacency_.find(user);
  return it == adjacency_.end() ? 0 : it->second.size();
}

std::set<UserId> SocialGraph::friendsOfFriends(const UserId& user) const {
  std::set<UserId> out;
  for (const UserId& f : friendsOf(user)) {
    for (const UserId& ff : friendsOf(f)) {
      if (ff != user && !areFriends(user, ff)) out.insert(ff);
    }
  }
  return out;
}

std::optional<std::size_t> SocialGraph::distance(const UserId& from,
                                                 const UserId& to) const {
  if (!hasUser(from) || !hasUser(to)) return std::nullopt;
  if (from == to) return 0;
  std::map<UserId, std::size_t> dist;
  std::deque<UserId> queue;
  dist[from] = 0;
  queue.push_back(from);
  while (!queue.empty()) {
    const UserId current = queue.front();
    queue.pop_front();
    for (const UserId& next : friendsOf(current)) {
      if (dist.count(next)) continue;
      dist[next] = dist[current] + 1;
      if (next == to) return dist[next];
      queue.push_back(next);
    }
  }
  return std::nullopt;
}

std::size_t SocialGraph::edgeCount() const {
  std::size_t total = 0;
  for (const auto& [user, friends] : adjacency_) total += friends.size();
  return total / 2;
}

}  // namespace dosn::social

// The social graph: users, weighted friendships (trust in [0,1]) and basic
// queries. This is the structure the paper warns "represents the users
// connections ... source of important information".
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dosn/social/identity.hpp"

namespace dosn::social {

class SocialGraph {
 public:
  void addUser(const UserId& user);
  bool hasUser(const UserId& user) const;
  std::size_t userCount() const { return adjacency_.size(); }
  std::vector<UserId> users() const;

  /// Adds an undirected friendship with symmetric trust. Trust must be in
  /// [0, 1]; users are added implicitly.
  void addFriendship(const UserId& a, const UserId& b, double trust = 1.0);
  void removeFriendship(const UserId& a, const UserId& b);

  bool areFriends(const UserId& a, const UserId& b) const;
  std::optional<double> trust(const UserId& a, const UserId& b) const;
  /// Updates trust on an existing edge.
  void setTrust(const UserId& a, const UserId& b, double trust);

  std::vector<UserId> friendsOf(const UserId& user) const;
  std::size_t degree(const UserId& user) const;

  /// Friends-of-friends excluding direct friends and self.
  std::set<UserId> friendsOfFriends(const UserId& user) const;

  /// Hop distance via BFS; std::nullopt if unreachable.
  std::optional<std::size_t> distance(const UserId& from, const UserId& to) const;

  std::size_t edgeCount() const;

  /// Moves on every addUser, addFriendship, removeFriendship and setTrust,
  /// so a reader can tell whether something it derived is still current.
  std::uint64_t version() const { return version_; }

 private:
  std::map<UserId, std::map<UserId, double>> adjacency_;
  std::uint64_t version_ = 0;
};

}  // namespace dosn::social

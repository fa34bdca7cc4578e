#include "dosn/privacy/access_controller.hpp"

#include <algorithm>
#include <utility>

#include "dosn/util/error.hpp"

namespace dosn::privacy {

void GroupAccessController::createGroup(const GroupId& id) {
  if (!groups_.emplace(id, Group{}).second) {
    throw util::DosnError(schemeName() + ": group exists");
  }
}

void GroupAccessController::addMember(const GroupId& id, const UserId& user) {
  group(id).members.insert(user);
}

std::vector<UserId> GroupAccessController::members(const GroupId& id) const {
  const Group& g = group(id);
  return std::vector<UserId>(g.members.begin(), g.members.end());
}

bool GroupAccessController::isMember(const GroupId& id,
                                     const UserId& user) const {
  const Group* g = findGroup(id);
  return g != nullptr && g->members.count(user) > 0;
}

std::vector<Envelope> GroupAccessController::history(const GroupId& id) const {
  return group(id).history;
}

const util::Bytes* GroupAccessController::Group::retained(
    std::uint64_t serial) const {
  const auto index = retainedIndex(serial);
  return index ? &history[*index].blob : nullptr;
}

std::optional<std::size_t> GroupAccessController::Group::retainedIndex(
    std::uint64_t serial) const {
  const auto it = std::lower_bound(
      history.begin(), history.end(), serial,
      [](const Envelope& e, std::uint64_t s) { return e.serial < s; });
  if (it == history.end() || it->serial != serial) return std::nullopt;
  return static_cast<std::size_t>(it - history.begin());
}

GroupAccessController::Group& GroupAccessController::group(const GroupId& id) {
  return const_cast<Group&>(std::as_const(*this).group(id));
}

const GroupAccessController::Group& GroupAccessController::group(
    const GroupId& id) const {
  const Group* g = findGroup(id);
  if (g == nullptr) throw util::DosnError(schemeName() + ": unknown group");
  return *g;
}

const GroupAccessController::Group* GroupAccessController::findGroup(
    const GroupId& id) const {
  const auto it = groups_.find(id);
  return it == groups_.end() ? nullptr : &it->second;
}

Envelope GroupAccessController::issue(const GroupId& id, util::Bytes blob) {
  return Envelope{schemeName(), id, nextSerial_++, std::move(blob)};
}

Envelope GroupAccessController::retain(const GroupId& id, Group& g,
                                       util::Bytes blob) {
  // The history keeps a copy sized to the blob; the caller gets the blob's
  // own buffer, which may carry its writer's spare capacity.
  Envelope env = issue(id, std::move(blob));
  g.history.push_back(env);
  return env;
}

std::string GroupAccessController::epochAttribute(const GroupId& id,
                                                  const Group& g) {
  return id + "#" + std::to_string(g.epoch);
}

}  // namespace dosn::privacy

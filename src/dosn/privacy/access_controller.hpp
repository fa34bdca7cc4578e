// The common access-control interface every §III scheme implements:
// group management (create / add / revoke) plus encrypt-to-group and
// member decryption. Controllers also retain the envelopes they published so
// revocation can honestly account for the re-encryption work each scheme
// requires (the paper's core cost comparison between §III-B..F).
//
// AccessController is the pure interface (MicroblogNode and forwarding
// decorators take it). GroupAccessController is the group table under all
// five schemes: each group's members, retained envelopes and key epoch, and
// the controller's serial counter. A scheme adds only its cryptography
// (encrypt, decrypt, removeMember) and its own key state.
//
// Each concrete controller internally stores the per-user key material it
// issues at addMember time — modeling each user's client-side key store, so
// decrypt(reader, ...) runs exactly the computation that user's client would.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dosn/social/identity.hpp"
#include "dosn/util/bytes.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::privacy {

using social::UserId;

using GroupId = std::string;

/// An encrypted object as stored/replicated in the DOSN.
struct Envelope {
  std::string scheme;   // producing controller's name
  GroupId group;
  std::uint64_t serial = 0;  // controller-assigned id (stable across re-encryption)
  util::Bytes blob;
};

/// Work performed by a revocation — the measurable quantities behind
/// experiment E2.
struct RevocationReport {
  std::size_t reencryptedEnvelopes = 0;  // history items rewritten
  std::size_t rewrittenBytes = 0;        // ciphertext bytes rewritten
  std::size_t keyOperations = 0;         // keys issued/replaced/distributed
};

class AccessController {
 public:
  virtual ~AccessController() = default;

  virtual std::string schemeName() const = 0;

  virtual void createGroup(const GroupId& group) = 0;
  virtual void addMember(const GroupId& group, const UserId& user) = 0;
  /// Removes a member, performing whatever re-keying / re-encryption the
  /// scheme requires so the revoked user cannot read group data anymore
  /// (modulo copies they already made — paper §III-B's caveat).
  virtual RevocationReport removeMember(const GroupId& group,
                                        const UserId& user) = 0;
  /// Throws DosnError for an unknown group.
  virtual std::vector<UserId> members(const GroupId& group) const = 0;
  /// False for an unknown group.
  virtual bool isMember(const GroupId& group, const UserId& user) const = 0;

  /// Encrypts to the group and retains the envelope in the group's history.
  virtual Envelope encrypt(const GroupId& group, util::BytesView plaintext,
                           util::Rng& rng) = 0;

  /// Attempts decryption as `reader`; std::nullopt if unauthorized (or the
  /// envelope was re-encrypted away after the reader's revocation).
  virtual std::optional<util::Bytes> decrypt(const UserId& reader,
                                             const Envelope& envelope) = 0;

  /// Retained history (current ciphertext for each serial, in issue order).
  virtual std::vector<Envelope> history(const GroupId& group) const = 0;
};

/// The group bookkeeping the five schemes share. createGroup throws
/// DosnError("<scheme>: group exists") for an existing group; every other
/// group operation throws DosnError("<scheme>: unknown group") for an unknown
/// one, except isMember, which answers false.
class GroupAccessController : public AccessController {
 public:
  void createGroup(const GroupId& id) override;
  void addMember(const GroupId& id, const UserId& user) override;
  std::vector<UserId> members(const GroupId& id) const override;
  bool isMember(const GroupId& id, const UserId& user) const override;
  std::vector<Envelope> history(const GroupId& id) const override;

 protected:
  struct Group {
    std::set<UserId> members;
    std::vector<Envelope> history;  // retained envelopes, in issue order
    std::uint64_t epoch = 0;        // bumped by each re-keying revocation

    /// The retained blob for `serial` (revocation may have rewritten it
    /// since it was issued); nullptr if this group retains no such serial.
    const util::Bytes* retained(std::uint64_t serial) const;
    /// Its index in `history`, or nullopt. History is in issue order, so
    /// serials increase along it.
    std::optional<std::size_t> retainedIndex(std::uint64_t serial) const;
  };

  /// Throws for an unknown group.
  Group& group(const GroupId& id);
  const Group& group(const GroupId& id) const;
  /// nullptr for an unknown group.
  const Group* findGroup(const GroupId& id) const;
  const std::map<GroupId, Group>& groups() const { return groups_; }

  /// An envelope of this scheme under the next serial, retained nowhere.
  Envelope issue(const GroupId& id, util::Bytes blob);
  /// issue, retained in the history of `g`, which is group(id).
  Envelope retain(const GroupId& id, Group& g, util::Bytes blob);

  /// `id#epoch`: the CP-ABE attribute of the group's current key epoch.
  static std::string epochAttribute(const GroupId& id, const Group& g);

 private:
  std::map<GroupId, Group> groups_;
  std::uint64_t nextSerial_ = 1;
};

}  // namespace dosn::privacy

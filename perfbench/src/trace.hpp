// Outside-in tracing for the perfbench replay. Everything here reaches the
// program through its public injection points — the AccessController every
// MicroblogNode is handed, KademliaConfig::makeStore, the PlacementPolicy
// pointer — plus the benchmark's own calls into MicroblogNode and the
// simulator. The program itself carries no tracing code.
//
// Counting is always on: counts are part of the benchmark's determinism
// contract and must match between the traced and untraced replays. Wall
// clocks are read only when the Tracer is timing.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dosn/overlay/placement.hpp"
#include "dosn/privacy/access_controller.hpp"
#include "dosn/sim/simulator.hpp"
#include "dosn/store/block_store.hpp"

namespace perfbench {

using namespace dosn;
using social::UserId;

/// Exclusive wall-time buckets of one traced replay. Each nanosecond of the
/// replay loop lands in at most one bucket: a wrapped call's self time (its
/// duration minus the wrapped calls nested in it), or a simulator event's
/// self time, filed under the first boundary that fired inside the event.
enum class Bucket : std::uint8_t {
  kDecrypt,     // privacy.decrypt_ms: AccessController::decrypt
  kEncrypt,     // privacy.encrypt_ms: AccessController::encrypt
  kRevoke,      // privacy.revoke_ms: AccessController::removeMember
  kPublish,     // app.publish_ms: MicroblogNode::publish
  kFetchStart,  // app.fetch_start_ms: MicroblogNode::fetchTimeline
  kCallback,    // bench.callback_ms: the benchmark's own callbacks
  kStorePut,    // store.put_ms: BlockStore::put on a DHT replica store
  kStoreGet,    // store.get_ms: BlockStore::get on a DHT replica store
  kVerify,      // integrity.verify_ms: events in which a fetch completed
  kPlace,       // overlay.place_ms: events that ran a placement decision
  kReplica,     // overlay.replica_ms: events that wrote or served a block
  kDispatch,    // sim.dispatch_ms: events in which no boundary above fired
  kSchedule,    // sim.schedule_ms: churn start/stop
  kCount
};

inline constexpr std::size_t kBucketCount =
    static_cast<std::size_t>(Bucket::kCount);

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Clocks are read only between startTiming() and the end of the replay.
  void startTiming() { timing_ = true; }
  bool timing() const { return timing_; }

  /// Times one wrapped call; a no-op when the tracer is not timing.
  class Scope {
   public:
    Scope(Tracer& tracer, Bucket bucket);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    Bucket bucket_;
    std::int64_t start_ = 0;
    std::int64_t outerNested_ = 0;
  };

  /// Records that an event boundary fired. The first one inside a simulator
  /// event decides the event's bucket (kVerify, kPlace or kReplica).
  void boundary(Bucket eventBucket) {
    if (inEvent_ && eventBucket_ == Bucket::kDispatch) {
      eventBucket_ = eventBucket;
    }
  }

  void beginEvent();
  /// Files the event just run; a discarded event (the stepping sentinel) is
  /// not part of the replay.
  void endEvent(bool discard);

  double ms(Bucket bucket) const;
  /// Whole duration of the events filed under kVerify (app.fetch_finish_ms).
  double fetchEventsMs() const { return nsToMs(fetchEventNs_); }

 private:
  static std::int64_t now();
  static double nsToMs(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

  bool timing_ = false;
  std::array<std::int64_t, kBucketCount> ns_{};
  std::int64_t fetchEventNs_ = 0;
  std::int64_t nested_ = 0;  // wrapped-call time inside the open scope
  bool inEvent_ = false;
  Bucket eventBucket_ = Bucket::kDispatch;
  std::int64_t eventStart_ = 0;
};

/// Drives the simulator like the E19 replay loop and counts the events it
/// runs. When the tracer is timing, every event runs on its own (run(1)) so
/// it can be timed and bucketed; the event order is exactly runUntil's.
class Stepper {
 public:
  Stepper(sim::Simulator& simulator, Tracer& tracer)
      : sim_(simulator), tracer_(tracer) {}

  void runUntil(sim::SimTime target);
  void runAll();
  std::uint64_t events() const { return events_; }

 private:
  sim::Simulator& sim_;
  Tracer& tracer_;
  std::uint64_t events_ = 0;
};

/// Forwards to the real controller, counting and timing the calls the
/// replay makes: decryption on the read path, encryption and revocation on
/// the write path.
class TracedAcl final : public privacy::AccessController {
 public:
  TracedAcl(privacy::AccessController& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string schemeName() const override { return inner_.schemeName(); }
  void createGroup(const privacy::GroupId& group) override {
    inner_.createGroup(group);
  }
  void addMember(const privacy::GroupId& group, const UserId& user) override {
    inner_.addMember(group, user);
  }
  privacy::RevocationReport removeMember(const privacy::GroupId& group,
                                         const UserId& user) override;
  std::vector<UserId> members(const privacy::GroupId& group) const override {
    return inner_.members(group);
  }
  bool isMember(const privacy::GroupId& group,
                const UserId& user) const override {
    return inner_.isMember(group, user);
  }
  privacy::Envelope encrypt(const privacy::GroupId& group,
                            util::BytesView plaintext,
                            util::Rng& rng) override;
  std::optional<util::Bytes> decrypt(const UserId& reader,
                                     const privacy::Envelope& envelope) override;
  std::vector<privacy::Envelope> history(
      const privacy::GroupId& group) const override {
    return inner_.history(group);
  }

  struct Counts {
    std::uint64_t decryptCalls = 0;
    std::uint64_t decryptDenied = 0;
    std::uint64_t decryptNew = 0;  // first call for this (reader, envelope)
    std::uint64_t encryptCalls = 0;
    std::uint64_t revokeCalls = 0;
    std::uint64_t reencrypted = 0;
    std::uint64_t rewrittenBytes = 0;
    std::uint64_t keyOps = 0;
  };
  const Counts& counts() const { return counts_; }

 private:
  privacy::AccessController& inner_;
  Tracer& tracer_;
  Counts counts_;
  std::unordered_map<std::string, std::uint64_t> readerIds_;
  std::unordered_set<std::uint64_t> decrypted_;  // (reader id, serial)
};

/// Forwards placement decisions and marks the placement boundary.
class TracedPlacement final : public overlay::PlacementPolicy {
 public:
  TracedPlacement(overlay::PlacementPolicy& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<sim::NodeAddr> select(
      const overlay::PlacementContext& ctx, std::size_t count,
      const std::vector<sim::NodeAddr>& candidates) override;
  std::string name() const override { return inner_.name(); }

  std::uint64_t calls() const { return calls_; }

 private:
  overlay::PlacementPolicy& inner_;
  Tracer& tracer_;
  std::uint64_t calls_ = 0;
};

struct BlockIdHash {
  std::size_t operator()(const store::BlockId& id) const;
};

/// The sim time each timeline entry and each head length first lands in a
/// replica store. A post is durable once its entry and a head covering it
/// (length > seq) have both landed somewhere.
class Landings {
 public:
  Landings(const sim::Simulator& simulator, std::size_t users);

  void watchHead(std::uint32_t author);
  void watchEntry(std::uint32_t author, std::uint64_t seq);
  void onPut(const store::BlockId& id, util::BytesView data);

  std::optional<sim::SimTime> durableAt(std::uint32_t author,
                                        std::uint64_t seq) const;
  /// Every watched entry key (the replica census walks these).
  const std::vector<store::BlockId>& entryKeys() const { return entryKeys_; }

 private:
  static constexpr std::int64_t kHead = -1;
  struct Slot {
    std::uint32_t author = 0;
    std::int64_t seq = kHead;
  };
  static void landAt(std::vector<sim::SimTime>& times, std::size_t index,
                     sim::SimTime at);

  const sim::Simulator& sim_;
  std::unordered_map<store::BlockId, Slot, BlockIdHash> slots_;
  std::vector<store::BlockId> entryKeys_;
  std::vector<std::vector<sim::SimTime>> entryAt_;  // [author][seq]
  std::vector<std::vector<sim::SimTime>> headAt_;   // [author][length - 1]
};

/// The decorator every DHT node's block store is wrapped in: counts and
/// times puts and gets, marks the replica-store boundary, and tells
/// Landings what landed when.
class LandingStore final : public store::StoreDecorator {
 public:
  LandingStore(std::unique_ptr<store::BlockStore> inner, Landings& landings,
               Tracer& tracer)
      : StoreDecorator(std::move(inner)), landings_(landings), tracer_(tracer) {}

  void put(const store::BlockId& id, util::BytesView data) override;
  std::optional<util::Bytes> get(const store::BlockId& id) override;
  bool erase(const store::BlockId& id) override { return inner_->erase(id); }
  std::string describe() const override {
    return "landing(" + inner_->describe() + ")";
  }

 private:
  Landings& landings_;
  Tracer& tracer_;
};

}  // namespace perfbench

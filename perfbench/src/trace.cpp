#include "trace.hpp"

#include <chrono>
#include <cstring>

#include "dosn/app/microblog.hpp"
#include "dosn/social/graph_gen.hpp"

namespace perfbench {

namespace {

constexpr sim::SimTime kNever = ~sim::SimTime{0};

}  // namespace

std::int64_t Tracer::now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, Bucket bucket)
    : tracer_(tracer), bucket_(bucket) {
  if (!tracer_.timing_) return;
  outerNested_ = tracer_.nested_;
  tracer_.nested_ = 0;
  start_ = now();
}

Tracer::Scope::~Scope() {
  if (!tracer_.timing_) return;
  const std::int64_t duration = now() - start_;
  tracer_.ns_[static_cast<std::size_t>(bucket_)] += duration - tracer_.nested_;
  tracer_.nested_ = outerNested_ + duration;
}

void Tracer::beginEvent() {
  inEvent_ = true;
  eventBucket_ = Bucket::kDispatch;
  nested_ = 0;
  eventStart_ = now();
}

void Tracer::endEvent(bool discard) {
  const std::int64_t duration = now() - eventStart_;
  if (!discard) {
    ns_[static_cast<std::size_t>(eventBucket_)] += duration - nested_;
    if (eventBucket_ == Bucket::kVerify) fetchEventNs_ += duration;
  }
  inEvent_ = false;
  nested_ = 0;
}

double Tracer::ms(Bucket bucket) const {
  return nsToMs(ns_[static_cast<std::size_t>(bucket)]);
}

void Stepper::runUntil(sim::SimTime target) {
  if (!tracer_.timing()) {
    events_ += sim_.runUntil(target);
    return;
  }
  // A no-op sentinel scheduled at `target` sorts after every event already
  // queued for <= target, so stepping to it runs exactly what runUntil
  // would, in the same order. Events scheduled for `target` itself while
  // stepping sort after the sentinel: repeat until a sentinel is the next
  // event.
  for (;;) {
    bool fired = false;
    sim_.scheduleAt(target, [&fired] { fired = true; });
    std::uint64_t ran = 0;
    for (;;) {
      tracer_.beginEvent();
      sim_.run(1);
      tracer_.endEvent(fired);
      if (fired) break;
      ++ran;
    }
    events_ += ran;
    if (ran == 0) return;
  }
}

void Stepper::runAll() {
  if (!tracer_.timing()) {
    events_ += sim_.run();
    return;
  }
  while (!sim_.idle()) {
    tracer_.beginEvent();
    sim_.run(1);
    tracer_.endEvent(false);
    ++events_;
  }
}

privacy::RevocationReport TracedAcl::removeMember(const privacy::GroupId& group,
                                                  const UserId& user) {
  Tracer::Scope scope(tracer_, Bucket::kRevoke);
  const privacy::RevocationReport report = inner_.removeMember(group, user);
  ++counts_.revokeCalls;
  counts_.reencrypted += report.reencryptedEnvelopes;
  counts_.rewrittenBytes += report.rewrittenBytes;
  counts_.keyOps += report.keyOperations;
  return report;
}

privacy::Envelope TracedAcl::encrypt(const privacy::GroupId& group,
                                     util::BytesView plaintext,
                                     util::Rng& rng) {
  Tracer::Scope scope(tracer_, Bucket::kEncrypt);
  ++counts_.encryptCalls;
  return inner_.encrypt(group, plaintext, rng);
}

std::optional<util::Bytes> TracedAcl::decrypt(
    const UserId& reader, const privacy::Envelope& envelope) {
  Tracer::Scope scope(tracer_, Bucket::kDecrypt);
  ++counts_.decryptCalls;
  // Serials are unique per envelope and stable across re-encryption, so
  // (reader, serial) names one post as seen by one reader.
  const std::uint64_t reader_id =
      readerIds_.try_emplace(reader, readerIds_.size()).first->second;
  if (decrypted_.insert((reader_id << 40) ^ envelope.serial).second) {
    ++counts_.decryptNew;
  }
  auto plain = inner_.decrypt(reader, envelope);
  if (!plain) ++counts_.decryptDenied;
  return plain;
}

std::vector<sim::NodeAddr> TracedPlacement::select(
    const overlay::PlacementContext& ctx, std::size_t count,
    const std::vector<sim::NodeAddr>& candidates) {
  tracer_.boundary(Bucket::kPlace);
  ++calls_;
  return inner_.select(ctx, count, candidates);
}

std::size_t BlockIdHash::operator()(const store::BlockId& id) const {
  // Block ids are SHA-256 derived, so any 8 of their bytes hash well.
  std::size_t h = 0;
  std::memcpy(&h, id.bytes.data(), sizeof(h));
  return h;
}

Landings::Landings(const sim::Simulator& simulator, std::size_t users)
    : sim_(simulator), entryAt_(users), headAt_(users) {}

void Landings::watchHead(std::uint32_t author) {
  slots_[app::MicroblogNode::headKey(social::syntheticUser(author))] =
      Slot{author, kHead};
}

void Landings::watchEntry(std::uint32_t author, std::uint64_t seq) {
  const store::BlockId key =
      app::MicroblogNode::entryKey(social::syntheticUser(author), seq);
  slots_[key] = Slot{author, static_cast<std::int64_t>(seq)};
  entryKeys_.push_back(key);
}

void Landings::landAt(std::vector<sim::SimTime>& times, std::size_t index,
                      sim::SimTime at) {
  if (times.size() <= index) times.resize(index + 1, kNever);
  if (times[index] == kNever) times[index] = at;
}

void Landings::onPut(const store::BlockId& id, util::BytesView data) {
  const auto it = slots_.find(id);
  if (it == slots_.end()) return;
  const Slot slot = it->second;
  if (slot.seq != kHead) {
    landAt(entryAt_[slot.author], static_cast<std::size_t>(slot.seq),
           sim_.now());
    return;
  }
  // A head of length L covers every seq < L.
  const auto head = app::HeadRecord::deserialize(data);
  if (!head) return;
  for (std::uint64_t len = head->length; len > 0; --len) {
    auto& times = headAt_[slot.author];
    if (times.size() >= len && times[len - 1] != kNever) break;
    landAt(times, len - 1, sim_.now());
  }
}

std::optional<sim::SimTime> Landings::durableAt(std::uint32_t author,
                                                std::uint64_t seq) const {
  const auto& entries = entryAt_[author];
  const auto& heads = headAt_[author];
  if (seq >= entries.size() || seq >= heads.size()) return std::nullopt;
  const sim::SimTime entry = entries[seq];
  const sim::SimTime head = heads[seq];
  if (entry == kNever || head == kNever) {
    return std::nullopt;
  }
  return std::max(entry, head);
}

void LandingStore::put(const store::BlockId& id, util::BytesView data) {
  tracer_.boundary(Bucket::kReplica);
  Tracer::Scope scope(tracer_, Bucket::kStorePut);
  ++counters_.puts;
  counters_.putBytes += data.size();
  inner_->put(id, data);
  landings_.onPut(id, data);
}

std::optional<util::Bytes> LandingStore::get(const store::BlockId& id) {
  std::optional<util::Bytes> value;
  {
    Tracer::Scope scope(tracer_, Bucket::kStoreGet);
    ++counters_.gets;
    value = inner_->get(id);
  }
  // Only a get that finds a block serves replica data; a miss is the node
  // answering a lookup with contacts (routing) or checking itself first.
  if (value) {
    ++counters_.hits;
    counters_.getBytes += value->size();
    tracer_.boundary(Bucket::kReplica);
  } else {
    ++counters_.misses;
  }
  return value;
}

}  // namespace perfbench

#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <memory>

#include "dosn/app/microblog.hpp"
#include "dosn/overlay/placement.hpp"
#include "dosn/privacy/hybrid_acl.hpp"
#include "dosn/sim/churn.hpp"
#include "dosn/sim/faults.hpp"
#include "dosn/sim/metrics.hpp"
#include "dosn/social/graph_gen.hpp"
#include "dosn/store/memory_store.hpp"
#include "dosn/workload/generator.hpp"

namespace perfbench {

namespace {

using app::FetchedTimeline;
using app::MicroblogNode;
using sim::kMillisecond;
using sim::kSecond;
using workload::EventKind;
using workload::WorkloadConfig;
using workload::WorkloadEvent;

constexpr double kHourScale = 0.02;  // 1 workload hour -> 72 sim-seconds

// The RPC types whose per-type counters the benchmark reports.
constexpr const char* kRpcTypes[] = {"kad.find_node", "kad.find_value",
                                     "kad.store", "mb.cache.get"};
constexpr const char* kRpcEvents[] = {"sent", "retries", "timeouts", "failed",
                                      "completed"};

double msSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double simMs(sim::SimTime t) { return static_cast<double>(t) / kMillisecond; }

// The text E19 publishes as an author's n-th post (n counts the warm-up).
std::string postText(std::size_t n) { return "p" + std::to_string(n); }

WorkloadConfig makeConfig(const WorkloadSpec& spec) {
  WorkloadConfig config = WorkloadConfig::dayInLife(kUsers);
  // Compress the day onto the sim clock without changing the expected event
  // counts: durations shrink by the hour scale, rates grow by its inverse.
  for (auto& phase : config.phases) {
    phase.duration = static_cast<sim::SimTime>(
        static_cast<double>(phase.duration) * kHourScale);
    if (phase.revocations > 0) phase.revocations += spec.extraRevocations;
  }
  config.peakPostsPerUserHour *= spec.postFactor / kHourScale;
  config.peakFetchesPerUserHour *= spec.fetchFactor / kHourScale;
  return config;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = [] {
    WorkloadSpec day;
    day.name = "day";
    day.days = 12;

    WorkloadSpec writeHeavy;
    writeHeavy.name = "write_heavy";
    writeHeavy.postFactor = 4.0;
    writeHeavy.fetchFactor = 0.11;
    writeHeavy.extraRevocations = 10;
    writeHeavy.days = 12;
    return std::vector<WorkloadSpec>{day, writeHeavy};
  }();
  return all;
}

const WorkloadSpec* findWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::uint64_t daySeed(std::uint64_t seed, std::size_t day) {
  if (day == 0) return seed;
  // splitmix64 finalizer over (seed, day): unrelated streams per day.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (day + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

DayResult runDay(const WorkloadSpec& spec, std::uint64_t seed, Mode mode) {
  Tracer tracer;
  DayResult out;
  out.seed = seed;
  const auto setupStart = std::chrono::steady_clock::now();

  const WorkloadConfig config = makeConfig(spec);
  const auto genStart = std::chrono::steady_clock::now();
  const workload::WorkloadGenerator gen(config, seed);
  out.genMs = msSince(genStart);
  const auto& events = gen.events();
  out.scheduleHash = gen.hash();

  // The stack, constructed in E19's order so every seeded draw matches.
  util::Rng rng(seed);
  sim::Metrics metrics;
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  net.setMetrics(&metrics);
  const auto& group = pkcrypto::DlogGroup::cached(256);
  social::IdentityRegistry registry;
  privacy::HybridAcl hybrid(group, rng, privacy::WrapScheme::kIbbe);
  TracedAcl acl(hybrid, tracer);

  overlay::SocialPolicyConfig policyConfig;
  policyConfig.graph = &gen.graph();
  overlay::SocialPolicy social(net, policyConfig);
  TracedPlacement placement(social, tracer);

  Landings landings(simulator, kUsers);
  std::vector<const LandingStore*> stores;

  overlay::KademliaConfig dhtConfig;
  dhtConfig.k = 8;
  dhtConfig.storeWidth = 4;
  dhtConfig.rpcTimeout = 300 * kMillisecond;
  dhtConfig.adaptiveTimeout = true;
  dhtConfig.retry = overlay::RetryPolicy{2, 150 * kMillisecond, 2.0};
  dhtConfig.placement = &placement;
  dhtConfig.makeStore = [&landings, &tracer, &stores] {
    auto store = std::make_unique<LandingStore>(
        std::make_unique<store::MemoryStore>(), landings, tracer);
    stores.push_back(store.get());
    return store;
  };

  app::FriendCacheConfig cache;
  cache.enabled = true;

  std::vector<std::unique_ptr<overlay::KademliaNode>> substrate;
  substrate.reserve(kSubstrate);
  for (std::size_t i = 0; i < kSubstrate; ++i) {
    substrate.push_back(std::make_unique<overlay::KademliaNode>(
        net, overlay::OverlayId::random(rng), dhtConfig));
  }
  const overlay::Contact seedContact{substrate[0]->id(), substrate[0]->addr()};
  for (std::size_t i = 1; i < kSubstrate; ++i) {
    substrate[i]->bootstrap(seedContact);
    simulator.run();
  }
  std::vector<std::unique_ptr<MicroblogNode>> users;
  users.reserve(kUsers);
  for (std::size_t i = 0; i < kUsers; ++i) {
    users.push_back(std::make_unique<MicroblogNode>(
        net, overlay::OverlayId::random(rng), group, social::syntheticUser(i),
        registry, acl, rng, dhtConfig, cache));
    users.back()->join(seedContact);
    simulator.run();
  }
  std::vector<sim::NodeAddr> userAddr(kUsers);
  for (std::size_t i = 0; i < kUsers; ++i) {
    userAddr[i] = users[i]->dht().addr();
    social.bind(userAddr[i], social::syntheticUser(i));
    social.bindId(userAddr[i], users[i]->dht().id());
  }
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    users[u]->createCircle("wall");
    for (const std::uint32_t f : gen.circleOf(u)) {
      users[u]->addToCircle("wall", social::syntheticUser(f));
      users[u]->addFriendPeer(social::syntheticUser(f), userAddr[f]);
    }
    landings.watchHead(u);
  }

  // One warm-up post per user so every wall exists before the day opens;
  // warm-up posts are born visible and stay out of the day's latencies.
  std::uint64_t warmupOk = 0;
  for (std::uint32_t i = 0; i < kUsers; ++i) {
    landings.watchEntry(i, 0);
    users[i]->publish("wall", "hello", 0, rng,
                      [&warmupOk](bool ok) { warmupOk += ok ? 1 : 0; });
    simulator.run();
  }
  if (warmupOk != kUsers) out.violations.push_back("a warm-up publish failed");

  // Per-author publish ledger: text, publish time and first sighting.
  std::vector<std::vector<std::string>> texts(kUsers);
  std::vector<std::vector<sim::SimTime>> pubAt(kUsers);
  std::vector<std::vector<bool>> seen(kUsers);
  for (std::uint32_t i = 0; i < kUsers; ++i) {
    texts[i].assign(users[i]->publishedCount(), "hello");
    pubAt[i].assign(users[i]->publishedCount(), 0);
    seen[i].assign(users[i]->publishedCount(), true);
  }
  // revokedFrom[author][reader]: the author's timeline length when the
  // reader was revoked; the reader must never decrypt seq >= that.
  std::vector<std::map<std::uint32_t, std::uint64_t>> revokedFrom(kUsers);
  // verifiedLen[reader][author]: the longest chain this reader verified.
  std::vector<std::vector<std::uint64_t>> verifiedLen(
      kUsers, std::vector<std::uint64_t>(kUsers, 0));

  const sim::SimTime t0 = simulator.now();
  const auto phaseOfNow = [&]() {
    return workload::phaseIndexAt(
        config, simulator.now() > t0 ? simulator.now() - t0 : 0);
  };

  out.rows.resize(config.phases.size());
  for (std::size_t i = 0; i < config.phases.size(); ++i) {
    out.rows[i].name = config.phases[i].name;
    out.rows[i].level = config.phases[i].activityLevel;
    out.rows[i].duration = config.phases[i].duration;
  }
  // Publishes by the phase they were issued in (for the failure taxonomy).
  std::vector<std::vector<std::size_t>> pubPhase(kUsers);
  for (std::uint32_t i = 0; i < kUsers; ++i) {
    pubPhase[i].assign(users[i]->publishedCount(), 0);
  }
  out.setupMs = msSince(setupStart);
  if (mode == Mode::kSetupOnly) return out;

  // Fault storm windows come straight from the phase specs.
  sim::FaultPlan plan;
  {
    sim::SimTime start = t0;
    for (const auto& phase : config.phases) {
      if (phase.dropProbability > 0) {
        plan.between(start, start + phase.duration,
                     sim::FaultRule::global().drop(phase.dropProbability));
      }
      start += phase.duration;
    }
  }
  net.setFaultPlan(&plan);

  std::vector<sim::NodeAddr> churnable;
  for (const auto& host : substrate) churnable.push_back(host->addr());

  const auto countersAtStart = metrics.counters();
  const std::uint64_t sentAtStart = net.messagesSent();
  const std::uint64_t bytesAtStart = net.bytesSent();
  const std::uint64_t droppedAtStart = net.messagesDropped();
  std::uint64_t pending = 0;
  std::uint64_t postsOk = 0;
  std::uint64_t fetchCalls = 0, publishCalls = 0;
  std::uint64_t entriesVerified = 0, entriesNew = 0;
  std::uint64_t undecryptable = 0;
  std::uint64_t lateEvents = 0;

  const auto checkPosts = [&](std::uint32_t reader, std::uint32_t author,
                              const FetchedTimeline& t) {
    std::uint64_t lastSeq = 0;
    bool first = true;
    const auto revoked = revokedFrom[author].find(reader);
    for (const social::Post& post : t.posts) {
      const std::uint64_t seq = post.id - 1;  // post ids count from 1
      if (post.author != social::syntheticUser(author) ||
          seq >= texts[author].size() || post.text != texts[author][seq] ||
          (!first && seq <= lastSeq)) {
        out.violations.push_back("reader u" + std::to_string(reader) +
                                 " decrypted a post u" +
                                 std::to_string(author) + " never published");
        return;
      }
      if (revoked != revokedFrom[author].end() && seq >= revoked->second) {
        out.violations.push_back("revoked reader u" + std::to_string(reader) +
                                 " decrypted a later post of u" +
                                 std::to_string(author));
        return;
      }
      lastSeq = seq;
      first = false;
    }
  };

  const auto applyFetch = [&](const WorkloadEvent& e) {
    const std::size_t issuePhase = phaseOfNow();
    PhaseRow& issueRow = out.rows[issuePhase];
    ++issueRow.fetchesStarted;
    if (e.kind == EventKind::kFlashFetch) ++issueRow.flashFetches;
    ++pending;
    const std::uint32_t reader = e.actor;
    const std::uint32_t author = e.target;
    const sim::SimTime issuedAt = simulator.now();
    Tracer::Scope scope(tracer, Bucket::kFetchStart);
    ++fetchCalls;
    users[reader]->fetchTimeline(
        social::syntheticUser(author),
        [&, reader, author, issuedAt, issuePhase](FetchedTimeline t) {
          tracer.boundary(Bucket::kVerify);
          Tracer::Scope callback(tracer, Bucket::kCallback);
          PhaseRow& row = out.rows[phaseOfNow()];
          --pending;
          if (!t.headValid) {
            ++out.rows[issuePhase].fetchFailHead;
            return;
          }
          if (!t.chainValid) {
            ++out.rows[issuePhase].fetchFailChain;
            return;
          }
          ++row.fetchesOk;
          row.undecryptable += t.undecryptable;
          undecryptable += t.undecryptable;
          out.fetchMs.push_back(simMs(simulator.now() - issuedAt));
          checkPosts(reader, author, t);
          // Everything the verified chain covers is now provably visible at
          // this follower; first sighting records the publish->visible gap.
          const std::uint64_t len = t.posts.size() + t.undecryptable;
          entriesVerified += len;
          std::uint64_t& known = verifiedLen[reader][author];
          if (len > known) {
            entriesNew += len - known;
            known = len;
          }
          for (std::size_t seq = 0; seq < len && seq < seen[author].size();
               ++seq) {
            if (seen[author][seq]) continue;
            seen[author][seq] = true;
            ++row.visible;
            row.visibilityMs.push_back(
                simMs(simulator.now() - pubAt[author][seq]));
          }
        });
  };

  const auto applyEvent = [&](const WorkloadEvent& e) {
    switch (e.kind) {
      case EventKind::kPost:
      case EventKind::kFlashPost: {
        const std::size_t phase = phaseOfNow();
        ++out.rows[phase].postsStarted;
        const std::uint32_t author = e.actor;
        landings.watchEntry(author, users[author]->publishedCount());
        pubAt[author].push_back(simulator.now());
        seen[author].push_back(false);
        pubPhase[author].push_back(phase);
        texts[author].push_back(postText(pubAt[author].size()));
        ++pending;
        Tracer::Scope scope(tracer, Bucket::kPublish);
        ++publishCalls;
        users[author]->publish(
            "wall", texts[author].back(),
            static_cast<social::Timestamp>(simulator.now() / kSecond), rng,
            [&](bool ok) {
              Tracer::Scope callback(tracer, Bucket::kCallback);
              --pending;
              if (ok) {
                ++out.rows[phaseOfNow()].postsOk;
                ++postsOk;
              }
            });
        break;
      }
      case EventKind::kFetch:
      case EventKind::kFlashFetch:
        applyFetch(e);
        break;
      case EventKind::kRevoke: {
        PhaseRow& row = out.rows[phaseOfNow()];
        const auto report = acl.removeMember(
            users[e.actor]->circleId("wall"), social::syntheticUser(e.target));
        revokedFrom[e.actor][e.target] = users[e.actor]->publishedCount();
        ++row.revokes;
        row.reencrypted += report.reencryptedEnvelopes;
        break;
      }
    }
  };

  // The day itself: phase by phase, replaying the schedule on the sim clock.
  Stepper stepper(simulator, tracer);
  if (mode == Mode::kTraced) tracer.startTiming();
  const auto replayStart = std::chrono::steady_clock::now();
  std::size_t next = 0;
  sim::SimTime phaseStart = t0;
  for (std::size_t p = 0; p < config.phases.size(); ++p) {
    const auto& phase = config.phases[p];
    const sim::SimTime phaseEnd = phaseStart + phase.duration;
    const auto before = metrics.counters();
    const std::uint64_t sentBefore = net.messagesSent();

    std::unique_ptr<sim::ChurnProcess> churn;
    if (phase.offlineFraction > 0) {
      Tracer::Scope scope(tracer, Bucket::kSchedule);
      sim::ChurnConfig churnConfig;
      const double a = 1.0 - phase.offlineFraction;
      churnConfig.meanOnlineSeconds =
          static_cast<double>(phase.duration) / kSecond * a / 2;
      churnConfig.meanOfflineSeconds =
          static_cast<double>(phase.duration) / kSecond * (1 - a) / 2;
      churnConfig.initialOnlineFraction = a;
      churn = std::make_unique<sim::ChurnProcess>(net, churnConfig, churnable);
    }

    while (next < events.size() && events[next].at + t0 < phaseEnd) {
      const sim::SimTime at = events[next].at + t0;
      if (at > simulator.now()) stepper.runUntil(at);
      if (simulator.now() != at) ++lateEvents;
      applyEvent(events[next]);
      ++next;
      ++out.eventsApplied;
    }
    stepper.runUntil(phaseEnd);
    if (churn) {
      Tracer::Scope scope(tracer, Bucket::kSchedule);
      churn->stop();
      for (const sim::NodeAddr addr : churnable) net.setOnline(addr, true);
    }

    PhaseRow& row = out.rows[p];
    for (const auto& [name, value] : metrics.counters()) {
      const auto it = before.find(name);
      const std::uint64_t delta =
          value - (it == before.end() ? 0 : it->second);
      if (delta > 0) row.counterDeltas[name] = delta;
    }
    row.counterDeltas["net.sent"] = net.messagesSent() - sentBefore;
    phaseStart = phaseEnd;
  }

  // Post-day drain: flash tails and in-flight RPCs finish against a healed,
  // fully-online network (bounded so a lost callback fails the check
  // instead of hanging the benchmark).
  for (int i = 0; i < 240 && pending > 0; ++i) {
    stepper.runUntil(simulator.now() + kSecond);
  }
  stepper.runAll();
  out.replayMs = msSince(replayStart);
  out.pendingAtEnd = pending;
  for (const PhaseRow& row : out.rows) {
    out.visibleMs.insert(out.visibleMs.end(), row.visibilityMs.begin(),
                         row.visibilityMs.end());
  }
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    out.bucketMs[b] = tracer.ms(static_cast<Bucket>(b));
  }
  out.fetchEventsMs = tracer.fetchEventsMs();

  if (next != events.size()) {
    out.violations.push_back("the schedule was not applied in full");
  }
  if (pending != 0) {
    out.violations.push_back(std::to_string(pending) +
                             " operations still pending after the drain");
  }
  if (lateEvents != 0) {
    out.violations.push_back(std::to_string(lateEvents) +
                             " events applied off their scheduled sim time");
  }

  // Durability: a post counts once its entry and a covering head landed.
  for (std::uint32_t a = 0; a < kUsers; ++a) {
    for (std::size_t seq = 1; seq < pubAt[a].size(); ++seq) {
      const auto at = landings.durableAt(a, seq);
      if (!at) {
        ++out.rows[pubPhase[a][seq]].publishFail;
        continue;
      }
      out.publishMs.push_back(simMs(*at - pubAt[a][seq]));
    }
  }

  // Counts. Network counters are replay deltas (setup traffic excluded).
  auto& c = out.counts;
  c["workload.events"] = events.size();
  c["sim.events"] = stepper.events();
  c["sim.msgs_sent"] = net.messagesSent() - sentAtStart;
  c["sim.bytes_sent"] = net.bytesSent() - bytesAtStart;
  c["sim.dropped"] = net.messagesDropped() - droppedAtStart;
  c["e19.posts_ok"] = postsOk;

  const TracedAcl::Counts& acls = acl.counts();
  c["privacy.decrypt_calls"] = acls.decryptCalls;
  c["privacy.decrypt_denied"] = acls.decryptDenied;
  c["privacy.decrypt_new"] = acls.decryptNew;
  c["privacy.encrypt_calls"] = acls.encryptCalls;
  c["privacy.revoke_calls"] = acls.revokeCalls;
  c["privacy.reencrypted"] = acls.reencrypted;
  c["privacy.rewritten_bytes"] = acls.rewrittenBytes;
  c["privacy.key_ops"] = acls.keyOps;

  c["integrity.entries_verified"] = entriesVerified;
  c["integrity.entries_new"] = entriesNew;

  std::uint64_t fetchFailHead = 0, fetchFailChain = 0, publishFail = 0;
  for (const PhaseRow& row : out.rows) {
    fetchFailHead += row.fetchFailHead;
    fetchFailChain += row.fetchFailChain;
    publishFail += row.publishFail;
  }
  c["app.publish_calls"] = publishCalls;
  c["app.fetch_calls"] = fetchCalls;
  c["app.fetch_fail.head"] = fetchFailHead;
  c["app.fetch_fail.chain"] = fetchFailChain;
  c["app.publish_fail"] = publishFail;
  c["app.undecryptable"] = undecryptable;

  app::FetchStats fetch;
  std::uint64_t evictions = 0;
  for (const auto& user : users) {
    const app::FetchStats& s = user->fetchStats();
    fetch.lookups += s.lookups;
    fetch.hops += s.hops;
    fetch.cacheLocalHits += s.cacheLocalHits;
    fetch.cacheRemoteHits += s.cacheRemoteHits;
    fetch.cacheMisses += s.cacheMisses;
    fetch.cacheInvalidations += s.cacheInvalidations;
    evictions += user->friendCache()->cacheStats().evictions;
  }
  c["app.cache_local_hits"] = fetch.cacheLocalHits;
  c["app.cache_remote_hits"] = fetch.cacheRemoteHits;
  c["app.cache_misses"] = fetch.cacheMisses;
  c["app.cache_invalidations"] = fetch.cacheInvalidations;
  c["app.cache_evictions"] = evictions;
  c["overlay.lookups"] = fetch.lookups;
  c["overlay.hops"] = fetch.hops;
  c["overlay.place_calls"] = placement.calls();

  std::uint64_t puts = 0, gets = 0, copies = 0;
  for (const LandingStore* s : stores) {
    puts += s->counters().puts;
    gets += s->counters().gets;
    for (const store::BlockId& key : landings.entryKeys()) {
      copies += s->has(key) ? 1 : 0;
    }
  }
  c["store.puts"] = puts;
  c["store.gets"] = gets;
  c["store.entry_copies"] = copies;
  c["store.entries"] = landings.entryKeys().size();

  const auto replayDelta = [&](const std::string& name) {
    const auto it = countersAtStart.find(name);
    return metrics.counter(name) - (it == countersAtStart.end() ? 0 : it->second);
  };
  for (const char* type : kRpcTypes) {
    for (const char* event : kRpcEvents) {
      const std::string name = std::string("rpc.") + type + "." + event;
      c["net." + name] = replayDelta(name);
    }
  }
  std::uint64_t rpcSent = 0, rpcCompleted = 0;
  for (const auto& [name, value] : metrics.counters()) {
    if (name.rfind("rpc.", 0) != 0) continue;
    const auto ends = [&name](std::string_view suffix) {
      return name.size() > suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(),
                          suffix) == 0;
    };
    if (ends(".sent")) rpcSent += replayDelta(name);
    if (ends(".completed")) rpcCompleted += replayDelta(name);
  }
  c["net.rpc_sent"] = rpcSent;
  c["net.rpc_completed"] = rpcCompleted;
  return out;
}

}  // namespace perfbench

// Experiment E19: the day-in-the-life macro-workload — the whole DOSN stack
// (Kademlia + replication + socially-aware placement + block stores + friend
// cache + batch chain verification + hybrid-IBBE ACLs) under one sustained,
// production-shaped day of load from src/dosn/workload/ (DESIGN.md §3h):
// Zipf follower/activity skew, a diurnal wave, celebrity flash crowds,
// DECENT-style revocation storms, and an evening churn + fault storm.
//
// Reported per phase (the scenario's JSON "timeline"): applied/completed
// operation counts, revocation re-encryption work, and p50/p95/p99
// end-to-end post-visibility latency — publish to the first *verified* fetch
// by a follower whose chain covers the post. Visibility is a workload-level
// metric: a post published into a quiet phase stays invisible until someone
// bothers to read the wall, so the dawn/night tails are hours while the
// flash-crowd tail is seconds.
//
// e19_dayinlife is the committed-baseline scenario (hot: its wall median is
// gated by the nightly same-runner job); e19_dayinlife_100k re-runs the same
// day inside a >=100k-node simulation — the microblog fleet and its DHT core
// share the event loop with an ambient fleet that pings along the same
// diurnal wave and churns through the same storms.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "dosn/app/microblog.hpp"
#include "dosn/benchkit/benchkit.hpp"
#include "dosn/overlay/placement.hpp"
#include "dosn/privacy/hybrid_acl.hpp"
#include "dosn/sim/churn.hpp"
#include "dosn/sim/faults.hpp"
#include "dosn/social/graph_gen.hpp"
#include "dosn/workload/generator.hpp"

using namespace dosn;
using namespace dosn::app;
using benchkit::ScenarioContext;
using sim::kMillisecond;
using sim::kSecond;
using workload::EventKind;
using workload::WorkloadConfig;
using workload::WorkloadEvent;
using workload::WorkloadGenerator;

namespace {

const sim::MessageType kAmbientPing("dayinlife.ambient");

struct PhaseRow {
  std::string name;
  double level = 0;
  std::size_t postsStarted = 0, postsOk = 0;
  std::size_t fetchesStarted = 0, fetchesOk = 0;
  std::size_t flashFetches = 0;
  std::size_t revokes = 0, reencrypted = 0, keyOps = 0;
  std::size_t undecryptable = 0;
  std::size_t visible = 0;
  std::vector<double> visibilityMs;  // sim-clock publish -> verified-visible
  std::map<std::string, std::uint64_t> counterDeltas;  // rpc.* / net.* slices
  sim::SimTime duration = 0;
};

struct DayOutcome {
  std::vector<PhaseRow> rows;
  std::uint64_t scheduleHash = 0;
  std::size_t eventsApplied = 0;
  std::size_t pendingAtEnd = 0;
  std::size_t totalNodes = 0;
  double setupWallMs = 0;
  double dayWallMs = 0;
};

struct Sizes {
  std::size_t users = 20;
  std::size_t substrate = 48;   // full Kademlia replica hosts
  std::size_t ambient = 0;      // plain sim nodes sharing the event loop
  double hourScale = 0.02;      // 1 workload hour -> 72 sim-seconds
  double loadFactor = 1.0;      // scales the peak post/fetch rates
};

double percentile(std::vector<double>& values, double p) {
  std::sort(values.begin(), values.end());
  return benchkit::WallStats::percentile(values, p);
}

DayOutcome runDay(ScenarioContext& ctx, const Sizes& sizes) {
  benchkit::Timer setupTimer;
  WorkloadConfig config = WorkloadConfig::dayInLife(sizes.users);
  // Compress the day onto the sim clock without changing the expected event
  // counts: durations shrink by hourScale, rates grow by 1/hourScale.
  for (auto& phase : config.phases) {
    phase.duration = static_cast<sim::SimTime>(
        static_cast<double>(phase.duration) * sizes.hourScale);
  }
  config.peakPostsPerUserHour *= sizes.loadFactor / sizes.hourScale;
  config.peakFetchesPerUserHour *= sizes.loadFactor / sizes.hourScale;
  const WorkloadGenerator gen(config, ctx.seed());
  const auto& events = gen.events();

  util::Rng rng(ctx.seed());
  sim::Metrics metrics;
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  net.setMetrics(&metrics);
  const auto& group = pkcrypto::DlogGroup::cached(256);
  social::IdentityRegistry registry;
  // Hybrid envelopes with IBBE identity-key wraps: list-cheap adds, and a
  // DECENT-style revocation — fresh data keys, re-wrap to the surviving
  // members, full history re-encryption — whose work the bench meters.
  privacy::HybridAcl acl(group, rng, privacy::WrapScheme::kIbbe);

  overlay::SocialPolicyConfig policyConfig;
  policyConfig.graph = &gen.graph();
  overlay::SocialPolicy policy(net, policyConfig);

  overlay::KademliaConfig dhtConfig;
  dhtConfig.k = 8;
  dhtConfig.storeWidth = 4;
  dhtConfig.rpcTimeout = 300 * kMillisecond;
  dhtConfig.adaptiveTimeout = true;
  dhtConfig.retry = overlay::RetryPolicy{2, 150 * kMillisecond, 2.0};
  dhtConfig.placement = &policy;

  FriendCacheConfig cache;
  cache.enabled = true;

  // DHT core: replica-host substrate plus one MicroblogNode per user.
  std::vector<std::unique_ptr<overlay::KademliaNode>> substrate;
  substrate.reserve(sizes.substrate);
  for (std::size_t i = 0; i < sizes.substrate; ++i) {
    substrate.push_back(std::make_unique<overlay::KademliaNode>(
        net, overlay::OverlayId::random(rng), dhtConfig));
  }
  const overlay::Contact seed{substrate[0]->id(), substrate[0]->addr()};
  for (std::size_t i = 1; i < sizes.substrate; ++i) {
    substrate[i]->bootstrap(seed);
    simulator.run();
  }
  std::vector<std::unique_ptr<MicroblogNode>> users;
  users.reserve(sizes.users);
  for (std::size_t i = 0; i < sizes.users; ++i) {
    users.push_back(std::make_unique<MicroblogNode>(
        net, overlay::OverlayId::random(rng), group, social::syntheticUser(i),
        registry, acl, rng, dhtConfig, cache));
    users.back()->join(seed);
    simulator.run();
  }
  std::vector<sim::NodeAddr> userAddr(sizes.users);
  for (std::size_t i = 0; i < sizes.users; ++i) {
    userAddr[i] = users[i]->dht().addr();
    policy.bind(userAddr[i], social::syntheticUser(i));
    policy.bindId(userAddr[i], users[i]->dht().id());
  }
  for (std::uint32_t u = 0; u < sizes.users; ++u) {
    users[u]->createCircle("wall");
    for (const std::uint32_t f : gen.circleOf(u)) {
      users[u]->addToCircle("wall", social::syntheticUser(f));
      users[u]->addFriendPeer(social::syntheticUser(f), userAddr[f]);
    }
  }

  // Ambient fleet (the 100k rung): plain nodes that share the event loop,
  // the churn storms and the fault plan, and ping along the diurnal wave.
  std::vector<sim::NodeAddr> ambient;
  ambient.reserve(sizes.ambient);
  for (std::size_t i = 0; i < sizes.ambient; ++i) {
    ambient.push_back(net.addNode());
  }

  // One warm-up post per user so every wall exists before the day opens;
  // warm-up posts are born visible so they don't pollute the day's metrics.
  std::size_t warmupOk = 0;
  for (std::size_t i = 0; i < sizes.users; ++i) {
    users[i]->publish("wall", "hello", 0, rng,
                      [&warmupOk](bool ok) { warmupOk += ok ? 1 : 0; });
    simulator.run();
  }

  // Per-author publish ledger for the visibility metric.
  std::vector<std::vector<sim::SimTime>> pubAt(sizes.users);
  std::vector<std::vector<bool>> seen(sizes.users);
  for (std::size_t i = 0; i < sizes.users; ++i) {
    pubAt[i].assign(users[i]->publishedCount(), 0);
    seen[i].assign(users[i]->publishedCount(), true);  // warm-ups: born visible
  }

  const sim::SimTime t0 = simulator.now();
  const auto phaseOfNow = [&]() {
    return workload::phaseIndexAt(
        config, simulator.now() > t0 ? simulator.now() - t0 : 0);
  };

  DayOutcome out;
  out.scheduleHash = gen.hash();
  out.totalNodes = sizes.substrate + sizes.users + sizes.ambient;
  out.rows.resize(config.phases.size());
  for (std::size_t i = 0; i < config.phases.size(); ++i) {
    out.rows[i].name = config.phases[i].name;
    out.rows[i].level = config.phases[i].activityLevel;
    out.rows[i].duration = config.phases[i].duration;
  }
  out.setupWallMs = setupTimer.ms();

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
  for (const sim::NodeAddr addr : ambient) churnable.push_back(addr);

  std::size_t pending = 0;
  const auto applyFetch = [&](const WorkloadEvent& e) {
    PhaseRow& issueRow = out.rows[phaseOfNow()];
    ++issueRow.fetchesStarted;
    if (e.kind == EventKind::kFlashFetch) ++issueRow.flashFetches;
    ++pending;
    const std::uint32_t author = e.target;
    users[e.actor]->fetchTimeline(
        social::syntheticUser(author), [&, author](FetchedTimeline t) {
          PhaseRow& row = out.rows[phaseOfNow()];
          --pending;
          if (!t.headValid || !t.chainValid) return;
          ++row.fetchesOk;
          row.undecryptable += t.undecryptable;
          // Everything the verified chain covers is now provably visible at
          // this follower; first sighting records the publish->visible gap.
          const std::size_t len = t.posts.size() + t.undecryptable;
          for (std::size_t seq = 0; seq < len && seq < seen[author].size();
               ++seq) {
            if (seen[author][seq]) continue;
            seen[author][seq] = true;
            ++row.visible;
            row.visibilityMs.push_back(
                static_cast<double>(simulator.now() - pubAt[author][seq]) /
                kMillisecond);
          }
        });
  };
  const auto applyEvent = [&](const WorkloadEvent& e) {
    switch (e.kind) {
      case EventKind::kPost:
      case EventKind::kFlashPost: {
        PhaseRow& row = out.rows[phaseOfNow()];
        ++row.postsStarted;
        pubAt[e.actor].push_back(simulator.now());
        seen[e.actor].push_back(false);
        ++pending;
        users[e.actor]->publish(
            "wall", "p" + std::to_string(pubAt[e.actor].size()),
            static_cast<social::Timestamp>(simulator.now() / kSecond), rng,
            [&](bool ok) {
              --pending;
              if (ok) ++out.rows[phaseOfNow()].postsOk;
            });
        break;
      }
      case EventKind::kFetch:
      case EventKind::kFlashFetch:
        applyFetch(e);
        break;
      case EventKind::kRevoke: {
        PhaseRow& row = out.rows[phaseOfNow()];
        const auto report = users[e.actor]->removeFromCircle(
            "wall", social::syntheticUser(e.target));
        ++row.revokes;
        row.reencrypted += report.reencryptedEnvelopes;
        row.keyOps += report.keyOperations;
        break;
      }
    }
  };

  // The day itself: phase by phase, replaying the schedule on the sim clock.
  benchkit::Timer dayTimer;
  util::Rng ambientRng(ctx.seed() + 0xa3b1e47ull);
  std::size_t next = 0;
  sim::SimTime phaseStart = t0;
  for (std::size_t p = 0; p < config.phases.size(); ++p) {
    const auto& phase = config.phases[p];
    const sim::SimTime phaseEnd = phaseStart + phase.duration;
    const auto before = metrics.counters();
    const std::uint64_t sentBefore = net.messagesSent();

    std::unique_ptr<sim::ChurnProcess> churn;
    if (phase.offlineFraction > 0 && !churnable.empty()) {
      sim::ChurnConfig churnConfig;
      const double a = 1.0 - phase.offlineFraction;
      churnConfig.meanOnlineSeconds =
          static_cast<double>(phase.duration) / kSecond * a / 2;
      churnConfig.meanOfflineSeconds =
          static_cast<double>(phase.duration) / kSecond * (1 - a) / 2;
      churnConfig.initialOnlineFraction = a;
      churn = std::make_unique<sim::ChurnProcess>(net, churnConfig, churnable);
    }
    // Ambient background load follows the same diurnal wave: two one-shot
    // pings per ambient node-hour of activity, spread over the phase.
    if (!ambient.empty()) {
      const auto pings = static_cast<std::size_t>(
          static_cast<double>(ambient.size()) * phase.activityLevel * 2.0);
      for (std::size_t i = 0; i < pings; ++i) {
        const sim::NodeAddr from =
            ambient[ambientRng.uniform(ambient.size())];
        const sim::NodeAddr to = ambient[ambientRng.uniform(ambient.size())];
        simulator.schedule(
            ambientRng.uniform(phase.duration),
            [&net, from, to] {
              net.send(from, to, sim::Message{kAmbientPing, {}});
            });
      }
    }

    while (next < events.size() && events[next].at + t0 < phaseEnd) {
      const sim::SimTime at = events[next].at + t0;
      if (at > simulator.now()) simulator.runUntil(at);
      applyEvent(events[next]);
      ++next;
      ++out.eventsApplied;
    }
    simulator.runUntil(phaseEnd);
    if (churn) {
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
  // fully-online network (bounded so a lost callback fails loudly instead of
  // hanging the bench).
  for (int i = 0; i < 240 && pending > 0; ++i) {
    simulator.runUntil(simulator.now() + kSecond);
  }
  simulator.run();
  out.pendingAtEnd = pending;
  out.dayWallMs = dayTimer.ms();

  ctx.require(warmupOk == sizes.users, "all warm-up publishes must land");
  ctx.require(next == events.size(), "the whole schedule must be applied");
  ctx.require(out.pendingAtEnd == 0, "all operations must complete");
  ctx.mergeMetrics(metrics);
  return out;
}

void report(ScenarioContext& ctx, const Sizes& sizes, const DayOutcome& out) {
  std::size_t postsOk = 0, fetchesOk = 0, fetchesStarted = 0, postsStarted = 0;
  std::size_t revokes = 0, reencrypted = 0, visible = 0, flash = 0;
  std::vector<double> allVis;
  sim::SimTime day = 0;
  for (const PhaseRow& row : out.rows) {
    postsOk += row.postsOk;
    postsStarted += row.postsStarted;
    fetchesOk += row.fetchesOk;
    fetchesStarted += row.fetchesStarted;
    revokes += row.revokes;
    reencrypted += row.reencrypted;
    visible += row.visible;
    flash += row.flashFetches;
    allVis.insert(allVis.end(), row.visibilityMs.begin(),
                  row.visibilityMs.end());
    day += row.duration;
  }

  if (ctx.printing()) {
    std::string ambientNote;
    if (sizes.ambient > 0) {
      ambientNote = " + " + std::to_string(sizes.ambient) + " ambient";
    }
    std::printf(
        "E19 day-in-the-life: %zu users + %zu replica hosts%s "
        "(%zu nodes total),\n"
        "%zu scheduled events over a %.0f sim-second day "
        "(schedule hash %016llx)\n\n",
        sizes.users, sizes.substrate, ambientNote.c_str(), out.totalNodes,
        out.eventsApplied, static_cast<double>(day) / kSecond,
        static_cast<unsigned long long>(out.scheduleHash));
    std::printf("  %-19s %5s %9s %11s %7s %7s %7s %24s\n", "phase", "level",
                "posts", "fetches", "flash", "revoke", "reenc",
                "visibility p50/p95/p99 (s)");
    for (const PhaseRow& row : out.rows) {
      std::vector<double> vis = row.visibilityMs;
      const double p50 = percentile(vis, 50), p95 = percentile(vis, 95),
                   p99 = percentile(vis, 99);
      std::printf("  %-19s %5.2f %4zu/%-4zu %5zu/%-5zu %7zu %7zu %7zu"
                  "   %7.1f %7.1f %7.1f\n",
                  row.name.c_str(), row.level, row.postsOk, row.postsStarted,
                  row.fetchesOk, row.fetchesStarted, row.flashFetches,
                  row.revokes, row.reencrypted, p50 / 1000, p95 / 1000,
                  p99 / 1000);
    }
    std::printf(
        "\nexpected shape: visibility tails track the wave — posts published\n"
        "into quiet phases wait for readers (tails of sim-hours), the flash\n"
        "crowd sees its celebrity post within seconds, and the evening fault\n"
        "storm pays latency without losing completions; revocations re-key +\n"
        "re-encrypt whole histories (the DECENT cost the ACL bench isolates).\n");
  }

  // Scenario totals (exact-gated at seed 42) + the per-phase timeline.
  ctx.counter("events", out.eventsApplied);
  ctx.counter("posts_ok", postsOk);
  ctx.counter("fetches_ok", fetchesOk);
  ctx.counter("flash_fetches", flash);
  ctx.counter("revokes", revokes);
  ctx.counter("reencrypted_envelopes", reencrypted);
  ctx.counter("visible_posts", visible);
  ctx.counter("nodes", out.totalNodes);
  ctx.param("schedule_hash", std::to_string(out.scheduleHash));
  ctx.param("posts_started", static_cast<double>(postsStarted));
  ctx.param("fetches_started", static_cast<double>(fetchesStarted));
  ctx.param("visibility_p50_ms", percentile(allVis, 50));
  ctx.param("visibility_p95_ms", percentile(allVis, 95));
  ctx.param("visibility_p99_ms", percentile(allVis, 99));
  const double daySecs = static_cast<double>(day) / kSecond;
  ctx.param("ops_per_sim_min",
            daySecs > 0 ? (postsOk + fetchesOk) * 60.0 / daySecs : 0);
  ctx.gauge("setup_wall_ms", out.setupWallMs);
  ctx.gauge("day_wall_ms", out.dayWallMs);

  benchkit::Json timeline = benchkit::Json::array();
  for (const PhaseRow& row : out.rows) {
    benchkit::Json phase = benchkit::Json::object();
    phase.set("name", row.name);
    benchkit::Json counters = benchkit::Json::object();
    counters.set("posts_started", row.postsStarted);
    counters.set("posts_ok", row.postsOk);
    counters.set("fetches_started", row.fetchesStarted);
    counters.set("fetches_ok", row.fetchesOk);
    counters.set("flash_fetches", row.flashFetches);
    counters.set("revokes", row.revokes);
    counters.set("reencrypted_envelopes", row.reencrypted);
    counters.set("undecryptable", row.undecryptable);
    counters.set("visible_posts", row.visible);
    for (const auto& [name, value] : row.counterDeltas) {
      counters.set(name, value);
    }
    phase.set("counters", std::move(counters));
    benchkit::Json params = benchkit::Json::object();
    params.set("activity_level", row.level);
    params.set("duration_s", static_cast<double>(row.duration) / kSecond);
    std::vector<double> vis = row.visibilityMs;
    params.set("visibility_p50_ms", percentile(vis, 50));
    params.set("visibility_p95_ms", percentile(vis, 95));
    params.set("visibility_p99_ms", percentile(vis, 99));
    const double phaseSecs = static_cast<double>(row.duration) / kSecond;
    params.set("ops_per_sim_min",
               phaseSecs > 0
                   ? (row.postsOk + row.fetchesOk) * 60.0 / phaseSecs
                   : 0.0);
    phase.set("params", std::move(params));
    timeline.push(std::move(phase));
  }
  ctx.setTimeline(std::move(timeline));
}

}  // namespace

BENCH_SCENARIO(e19_dayinlife, {.hot = true}) {
  Sizes sizes;
  if (ctx.smoke()) {
    sizes.users = 10;
    sizes.substrate = 24;
    sizes.loadFactor = 0.4;
  }
  report(ctx, sizes, runDay(ctx, sizes));
}

// The scale rung: the same day inside a >=100k-node simulation. Too heavy
// for the CI smoke sweep; the acceptance check is byte-identical counters at
// seed 42 across two runs (the sim is deterministic, so any drift means the
// macro-workload perturbed event ordering or RNG consumption).
BENCH_SCENARIO(e19_dayinlife_100k, {.skipInSmoke = true}) {
  Sizes sizes;
  sizes.users = 16;
  sizes.substrate = 128;
  sizes.ambient = 100096 - sizes.users - sizes.substrate;
  sizes.loadFactor = 0.6;
  const DayOutcome out = runDay(ctx, sizes);
  ctx.require(out.totalNodes >= 100000, "the scale rung must run >=100k nodes");
  report(ctx, sizes, out);
}

BENCHKIT_MAIN()

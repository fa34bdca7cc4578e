// Experiment E16 (system-level): the full DOSN stack under churn — encrypted,
// hash-chained microblog timelines stored in the Kademlia DHT, fetched and
// verified by followers while nodes come and go.
//
// Sweeps the DHT replication width k and reports end-to-end fetch success,
// verification outcomes and latency — the paper's §I thesis ("replication
// ... to ensure availability" at the price of replica exposure) measured on
// the complete system rather than a single layer.
// F2 (the second scenario) layers a FaultPlan on top of the churn: a
// sustained drop storm plus a substrate partition window, sweeping the floor
// of the per-destination DHT retry budget (the calls' own attempts) — the
// combined-failure scenario the unified RPC endpoint exists for.
//
// `--smoke` shrinks the substrate, fetch rounds and the k sweep.
// E18 compares vanilla vs socially-aware placement (overlay/placement.hpp)
// plus the one-hop friend-cache tier on a Zipf-follower graph: same graph,
// same fetch schedule, two configurations — counting lookup hops, p95 fetch
// latency and total network traffic.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>

#include "dosn/app/microblog.hpp"
#include "dosn/benchkit/benchkit.hpp"
#include "dosn/overlay/placement.hpp"
#include "dosn/privacy/symmetric_acl.hpp"
#include "dosn/sim/churn.hpp"
#include "dosn/sim/faults.hpp"
#include "dosn/social/graph_gen.hpp"

using namespace dosn;
using namespace dosn::app;
using benchkit::ScenarioContext;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct Outcome {
  std::size_t attempts = 0;
  std::size_t fetched = 0;      // head found + chain valid
  std::size_t decrypted = 0;    // all posts decrypted
  double meanLatencyMs = 0;
  std::uint64_t readerRetries = 0;  // the fetching node's DHT retries
  std::uint64_t fleetRetries = 0;   // whole swarm, via the shared endpoints
};

Outcome run(const ScenarioContext& ctx, std::size_t replication,
            double onlineFraction, std::size_t retryAttempts = 1,
            bool withFaults = false, double jitterFraction = 0.0) {
  const int substrateSize = ctx.smoke() ? 12 : 30;
  const int rounds = ctx.smoke() ? 8 : 30;
  util::Rng rng(ctx.seed());
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  const auto& group = pkcrypto::DlogGroup::cached(256);
  social::IdentityRegistry registry;
  privacy::SymmetricAcl acl(rng);

  overlay::KademliaConfig config;
  config.k = 8;                    // healthy routing tables
  config.storeWidth = replication; // the swept replication factor
  config.rpcTimeout = 300 * kMillisecond;
  // attempts=1 (the E16 default) means no retries — identical behavior to
  // the pre-retry bench; F2 sweeps this, and its "+jitter" row decorrelates
  // the retransmissions of calls that timed out together.
  config.retry = overlay::RetryPolicy{retryAttempts, 150 * kMillisecond, 2.0};
  config.retry.jitterFraction = jitterFraction;
  // Per-destination RFC 6298 timeouts, on for the whole experiment: each
  // peer's timeout tracks its observed RTT instead of the fixed 300ms.
  config.adaptiveTimeout = true;

  // Substrate peers carry replicas; publisher and readers are MicroblogNodes.
  std::vector<std::unique_ptr<overlay::KademliaNode>> substrate;
  for (int i = 0; i < substrateSize; ++i) {
    substrate.push_back(std::make_unique<overlay::KademliaNode>(
        net, overlay::OverlayId::random(rng), config));
  }
  const overlay::Contact seed{substrate[0]->id(), substrate[0]->addr()};
  for (std::size_t i = 1; i < substrate.size(); ++i) {
    substrate[i]->bootstrap(seed);
    simulator.run();
  }

  MicroblogNode alice(net, overlay::OverlayId::random(rng), group, "alice",
                      registry, acl, rng, config);
  MicroblogNode bob(net, overlay::OverlayId::random(rng), group, "bob",
                    registry, acl, rng, config);
  alice.join(seed);
  simulator.run();
  bob.join(seed);
  simulator.run();

  alice.createCircle("friends");
  alice.addToCircle("friends", "bob");
  for (int i = 0; i < 5; ++i) {
    alice.publish("friends", "post " + std::to_string(i),
                  static_cast<social::Timestamp>(i), rng);
    simulator.run();
  }

  // F2 only: a sustained drop storm for the whole fetch phase, plus a
  // partition that islands a third of the substrate for rounds ~10-20.
  sim::FaultPlan plan;
  if (withFaults) {
    plan.at(simulator.now(), sim::FaultRule::global().drop(0.25));
    std::set<sim::NodeAddr> island;
    for (std::size_t i = 0; i < substrate.size() / 3; ++i) {
      island.insert(substrate[i]->addr());
    }
    plan.partition("storm", island, simulator.now() + 300 * kSecond,
                   simulator.now() + 600 * kSecond);
    net.setFaultPlan(&plan);
  }

  // Churn the substrate (publisher goes offline too: the availability test).
  std::vector<sim::NodeAddr> churnable;
  for (const auto& p : substrate) churnable.push_back(p->addr());
  churnable.push_back(alice.dht().addr());
  sim::ChurnConfig churnConfig;
  churnConfig.meanOnlineSeconds = 300 * onlineFraction;
  churnConfig.meanOfflineSeconds = 300 * (1 - onlineFraction);
  churnConfig.initialOnlineFraction = onlineFraction;
  sim::ChurnProcess churn(net, churnConfig, churnable);

  Outcome out;
  double latencySum = 0;
  for (int round = 0; round < rounds; ++round) {
    simulator.runUntil(simulator.now() + 30 * kSecond);
    ++out.attempts;
    const sim::SimTime start = simulator.now();
    sim::SimTime doneAt = start;
    FetchedTimeline fetched;
    bool completed = false;
    bob.fetchTimeline("alice", [&](FetchedTimeline t) {
      fetched = std::move(t);
      doneAt = simulator.now();
      completed = true;
    });
    // Churn keeps the event queue alive forever; give each fetch a bounded
    // window instead of draining.
    while (!completed) {
      simulator.runUntil(simulator.now() + kSecond);
    }
    if (fetched.headValid && fetched.chainValid) {
      ++out.fetched;
      latencySum += static_cast<double>(doneAt - start) / kMillisecond;
      if (fetched.posts.size() == 5 && fetched.undecryptable == 0) {
        ++out.decrypted;
      }
    }
  }
  churn.stop();
  out.meanLatencyMs =
      out.fetched ? latencySum / static_cast<double>(out.fetched) : 0;
  out.readerRetries = bob.dht().rpcRetries();
  out.fleetRetries = alice.dht().rpcRetries() + bob.dht().rpcRetries();
  for (const auto& p : substrate) out.fleetRetries += p->rpcRetries();
  return out;
}

// --- E18: social vs vanilla placement + friend-cache tier -----------------

struct SocialOutcome {
  std::size_t attempts = 0;
  std::size_t verified = 0;      // head found + chain valid
  std::uint64_t lookups = 0;     // DHT value lookups across the fleet
  std::uint64_t hops = 0;        // DHT query rounds + 1 per remote cache hit
  std::uint64_t localHits = 0;
  std::uint64_t remoteHits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t msgs = 0;        // network messages sent during fetch phase
  double p95Ms = 0;
  double meanMs = 0;
};

// One full run of the E18 workload: `users` MicroblogNodes (one per user of
// a Zipf-follower graph, every node both publishes and reads), no churn.
// `social` switches BOTH levers at once — SocialPolicy placement and the
// friend-cache tier — vanilla is the stock closest-XOR store path with no
// cache. The follower graph and the fetch schedule are drawn from their own
// RNG streams so both configurations see byte-identical workloads.
SocialOutcome runSocial(const ScenarioContext& ctx, bool social) {
  const std::size_t users = ctx.smoke() ? 10 : 24;
  // Stranger substrate nodes dilute the DHT so value lookups cost real query
  // rounds (in a users-only network everyone is within one hop of every key
  // and there is nothing for locality to save).
  const std::size_t substrateSize = ctx.smoke() ? 30 : 72;
  const int rounds = ctx.smoke() ? 24 : 120;
  const std::size_t postsPerUser = 3;

  util::Rng graphRng(ctx.seed() + 0x50c1a1);
  const social::SocialGraph graph =
      social::zipfFollower(users, 3, 1.0, graphRng);

  util::Rng rng(ctx.seed());
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  const auto& group = pkcrypto::DlogGroup::cached(256);
  social::IdentityRegistry registry;
  privacy::SymmetricAcl acl(rng);

  overlay::SocialPolicyConfig policyConfig;
  policyConfig.graph = &graph;
  overlay::SocialPolicy policy(net, policyConfig);

  overlay::KademliaConfig config;
  config.k = 8;
  config.storeWidth = 4;
  config.rpcTimeout = 300 * kMillisecond;
  config.adaptiveTimeout = true;
  if (social) config.placement = &policy;

  FriendCacheConfig cache;
  cache.enabled = social;

  // Stranger substrate first, then one full MicroblogNode per user so social
  // placement can land replicas on the owner's friends.
  std::vector<std::unique_ptr<overlay::KademliaNode>> substrate;
  substrate.reserve(substrateSize);
  for (std::size_t i = 0; i < substrateSize; ++i) {
    substrate.push_back(std::make_unique<overlay::KademliaNode>(
        net, overlay::OverlayId::random(rng), config));
  }
  const overlay::Contact seed{substrate[0]->id(), substrate[0]->addr()};
  for (std::size_t i = 1; i < substrateSize; ++i) {
    substrate[i]->bootstrap(seed);
    simulator.run();
  }
  std::vector<std::unique_ptr<MicroblogNode>> nodes;
  nodes.reserve(users);
  for (std::size_t i = 0; i < users; ++i) {
    nodes.push_back(std::make_unique<MicroblogNode>(
        net, overlay::OverlayId::random(rng), group, social::syntheticUser(i),
        registry, acl, rng, config, cache));
    nodes.back()->join(seed);
    simulator.run();
  }

  // Bind every node for the policy (even in the vanilla run — binding draws
  // no randomness and keeps the two runs structurally identical), and tell
  // each node where its friends' caches live.
  std::vector<sim::NodeAddr> addrOf(users);
  for (std::size_t i = 0; i < users; ++i) {
    addrOf[i] = nodes[i]->dht().addr();
    policy.bind(addrOf[i], social::syntheticUser(i));
    policy.bindId(addrOf[i], nodes[i]->dht().id());
  }
  for (std::size_t i = 0; i < users; ++i) {
    for (const auto& friendId : graph.friendsOf(social::syntheticUser(i))) {
      const std::size_t f = std::stoul(friendId.substr(1));
      nodes[i]->addFriendPeer(friendId, addrOf[f]);
    }
  }

  // Every user publishes a short wall readable by their (symmetric) friends.
  for (std::size_t i = 0; i < users; ++i) {
    nodes[i]->createCircle("wall");
    for (const auto& friendId : graph.friendsOf(social::syntheticUser(i))) {
      nodes[i]->addToCircle("wall", friendId);
    }
    for (std::size_t p = 0; p < postsPerUser; ++p) {
      nodes[i]->publish("wall", "post " + std::to_string(p),
                        static_cast<social::Timestamp>(p), rng);
      simulator.run();
    }
  }

  // Fetch phase: readers fetch the timelines of users they follow, with
  // authors drawn Zipf (the celebrities get read the most — exactly where a
  // friend cache amortizes). Schedule RNG is shared across configurations.
  util::Rng scheduleRng(ctx.seed() + 0xf00d);
  const std::uint64_t msgsBefore = net.messagesSent();
  SocialOutcome out;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(rounds));
  for (int round = 0; round < rounds; ++round) {
    simulator.runUntil(simulator.now() + 10 * kSecond);
    const std::size_t a = scheduleRng.zipf(users, 1.0);
    const auto author = social::syntheticUser(a);
    const auto followers = graph.friendsOf(author);
    if (followers.empty()) continue;  // same branch in both runs
    const auto& readerId =
        followers[static_cast<std::size_t>(scheduleRng.uniform(followers.size()))];
    MicroblogNode& reader = *nodes[std::stoul(readerId.substr(1))];
    ++out.attempts;
    const sim::SimTime start = simulator.now();
    sim::SimTime doneAt = start;
    bool ok = false;
    reader.fetchTimeline(author, [&](FetchedTimeline t) {
      ok = t.headValid && t.chainValid;
      doneAt = simulator.now();
    });
    simulator.run();  // no churn: the queue drains
    if (ok) {
      ++out.verified;
      latencies.push_back(static_cast<double>(doneAt - start) / kMillisecond);
    }
  }
  out.msgs = net.messagesSent() - msgsBefore;
  for (const auto& node : nodes) {
    const FetchStats& s = node->fetchStats();
    out.lookups += s.lookups;
    out.hops += s.hops;
    out.localHits += s.cacheLocalHits;
    out.remoteHits += s.cacheRemoteHits;
    out.misses += s.cacheMisses;
    out.invalidations += s.cacheInvalidations;
  }
  std::sort(latencies.begin(), latencies.end());
  out.p95Ms = benchkit::WallStats::percentile(latencies, 95.0);
  double sum = 0;
  for (const double v : latencies) sum += v;
  out.meanMs =
      latencies.empty() ? 0 : sum / static_cast<double>(latencies.size());
  return out;
}

}  // namespace

BENCH_SCENARIO(e16_churn_sweep) {
  const int substrateSize = ctx.smoke() ? 12 : 30;
  const int rounds = ctx.smoke() ? 8 : 30;
  ctx.param("substrate", static_cast<double>(substrateSize));
  ctx.param("rounds", static_cast<double>(rounds));
  if (ctx.printing()) {
    std::printf(
        "E16 (system-level): encrypted microblog fetches under churn\n"
        "(%d substrate peers + publisher churn, 5-post timeline, %d fetches)\n\n",
        substrateSize, rounds);
  }
  for (const double online : {0.5, 0.8}) {
    if (ctx.smoke() && online < 0.8) continue;
    if (ctx.printing()) {
      std::printf("node availability a=%.0f%%\n", 100 * online);
      std::printf("  %-6s %18s %18s %14s\n", "k", "verified fetches",
                  "fully decrypted", "latency(ms)");
    }
    for (const std::size_t k : {1u, 2u, 4u, 8u}) {
      if (ctx.smoke() && k != 2 && k != 4) continue;
      const Outcome o = run(ctx, k, online);
      if (ctx.printing()) {
        std::printf("  %-6zu %13zu/%-4zu %13zu/%-4zu %14.0f\n", k, o.fetched,
                    o.attempts, o.decrypted, o.attempts, o.meanLatencyMs);
      }
      const std::string tag = ".a" + std::to_string(static_cast<int>(
                                  100 * online)) +
                              ".k" + std::to_string(k);
      ctx.counter("fetched" + tag, o.fetched);
      ctx.counter("decrypted" + tag, o.decrypted);
      ctx.param("latency_ms" + tag, o.meanLatencyMs);
    }
    if (ctx.printing()) std::printf("\n");
  }
  if (ctx.printing()) {
    std::printf(
        "expected shape: fetch success tracks replica availability (all 6 DHT\n"
        "records must be reachable), rising steeply with k and with node\n"
        "uptime; every successful fetch verifies the chain and decrypts — the\n"
        "full privacy+integrity+availability story at once.\n");
  }
}

BENCH_SCENARIO(f2_storm) {
  if (ctx.printing()) {
    std::printf(
        "\nF2: churn + fault storm combined (k=4, a=80%%, 25%% drop for the\n"
        "whole fetch phase, 1/3 of the substrate partitioned for ~5 minutes),\n"
        "sweeping the per-destination retry budget floor through the shared\n"
        "RPC endpoint (adaptive timeouts on: each peer's budget can grow\n"
        "beyond the floor as its observed timeout rate warrants)\n\n");
    std::printf("  %-10s %18s %18s %14s %10s %10s\n", "budget",
                "verified fetches", "fully decrypted", "latency(ms)",
                "rdr.retry", "all.retry");
  }
  auto record = [&ctx](const char* label, const Outcome& o) {
    const std::string tag = std::string(".") + label;
    ctx.counter("fetched" + tag, o.fetched);
    ctx.counter("decrypted" + tag, o.decrypted);
    ctx.param("latency_ms" + tag, o.meanLatencyMs);
    ctx.counter("reader_retries" + tag, o.readerRetries);
    ctx.counter("fleet_retries" + tag, o.fleetRetries);
  };
  for (const std::size_t attempts : {1u, 3u}) {
    const Outcome o = run(ctx, 4, 0.8, attempts, /*withFaults=*/true);
    if (ctx.printing()) {
      std::printf("  %-10zu %13zu/%-4zu %13zu/%-4zu %14.0f %10llu %10llu\n",
                  attempts, o.fetched, o.attempts, o.decrypted, o.attempts,
                  o.meanLatencyMs,
                  static_cast<unsigned long long>(o.readerRetries),
                  static_cast<unsigned long long>(o.fleetRetries));
    }
    record(attempts == 1 ? "base1" : "base3", o);
  }
  if (!ctx.smoke()) {
    // Budget 3 with +/-30% backoff jitter: same retry spend, but the storm's
    // synchronized timeout cohorts retransmit at decorrelated instants.
    const Outcome o =
        run(ctx, 4, 0.8, 3, /*withFaults=*/true, /*jitterFraction=*/0.3);
    if (ctx.printing()) {
      std::printf("  %-10s %13zu/%-4zu %13zu/%-4zu %14.0f %10llu %10llu\n",
                  "3+jitter", o.fetched, o.attempts, o.decrypted, o.attempts,
                  o.meanLatencyMs,
                  static_cast<unsigned long long>(o.readerRetries),
                  static_cast<unsigned long long>(o.fleetRetries));
    }
    record("jitter", o);
  }
  if (ctx.printing()) {
    std::printf(
        "expected shape: per-destination budgets grow where the storm bites,\n"
        "so even floor 1 recovers most fetches; a larger floor spends more\n"
        "retries for the same success; backoff jitter decorrelates the\n"
        "storm's synchronized retransmit cohorts and buys back the rest.\n");
  }
}

BENCH_SCENARIO(e18_social_vs_vanilla) {
  const std::size_t users = ctx.smoke() ? 10 : 24;
  const int rounds = ctx.smoke() ? 24 : 120;
  ctx.param("users", static_cast<double>(users));
  ctx.param("rounds", static_cast<double>(rounds));
  if (ctx.printing()) {
    std::printf(
        "\nE18: socially-aware placement + friend-cache tier vs vanilla\n"
        "(%zu users on a Zipf follower graph, 3 posts each, %d Zipf-read\n"
        "fetches by followers; no churn — pure locality comparison)\n\n",
        users, rounds);
    std::printf("  %-8s %12s %8s %8s %10s %10s %10s\n", "config", "verified",
                "lookups", "hops", "p95(ms)", "mean(ms)", "msgs");
  }
  SocialOutcome results[2];
  for (const bool social : {false, true}) {
    const SocialOutcome o = runSocial(ctx, social);
    results[social ? 1 : 0] = o;
    const std::string tag = social ? ".social" : ".vanilla";
    ctx.counter("verified" + tag, o.verified);
    ctx.counter("lookups" + tag, o.lookups);
    ctx.counter("hops" + tag, o.hops);
    ctx.counter("msgs" + tag, o.msgs);
    ctx.param("p95_ms" + tag, o.p95Ms);
    ctx.param("mean_ms" + tag, o.meanMs);
    if (social) {
      ctx.counter("cache_local_hits", o.localHits);
      ctx.counter("cache_remote_hits", o.remoteHits);
      ctx.counter("cache_misses", o.misses);
      ctx.counter("cache_invalidations", o.invalidations);
      const std::uint64_t probes = o.localHits + o.remoteHits + o.misses;
      const double hitRatio =
          probes ? static_cast<double>(o.localHits + o.remoteHits) /
                       static_cast<double>(probes)
                 : 0.0;
      ctx.param("cache_hit_ratio", hitRatio);
      if (ctx.printing()) {
        std::printf(
            "  %-8s %7zu/%-4zu %8llu %8llu %10.0f %10.0f %10llu\n"
            "           cache: %llu local + %llu remote hits, %llu misses, "
            "%llu invalidations (hit ratio %.2f)\n",
            "social", o.verified, o.attempts,
            static_cast<unsigned long long>(o.lookups),
            static_cast<unsigned long long>(o.hops), o.p95Ms, o.meanMs,
            static_cast<unsigned long long>(o.msgs),
            static_cast<unsigned long long>(o.localHits),
            static_cast<unsigned long long>(o.remoteHits),
            static_cast<unsigned long long>(o.misses),
            static_cast<unsigned long long>(o.invalidations), hitRatio);
      }
    } else if (ctx.printing()) {
      std::printf("  %-8s %7zu/%-4zu %8llu %8llu %10.0f %10.0f %10llu\n",
                  "vanilla", o.verified, o.attempts,
                  static_cast<unsigned long long>(o.lookups),
                  static_cast<unsigned long long>(o.hops), o.p95Ms, o.meanMs,
                  static_cast<unsigned long long>(o.msgs));
    }
  }
  ctx.require(results[1].verified >= results[0].verified,
              "social must verify at least as many fetches as vanilla");
  ctx.require(results[1].hops < results[0].hops,
              "social placement + friend cache must cut lookup hops");
  ctx.require(results[1].p95Ms < results[0].p95Ms,
              "social placement + friend cache must cut p95 fetch latency");
  if (ctx.printing()) {
    std::printf(
        "\nexpected shape: the friend cache absorbs repeat reads of popular\n"
        "walls (local hits are free, remote hits cost 1 hop) and social\n"
        "placement keeps replicas on follower nodes, so the social column\n"
        "wins on hops, p95 latency and total message traffic.\n");
  }
}

BENCHKIT_MAIN()

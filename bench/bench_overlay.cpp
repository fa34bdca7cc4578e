// Experiment E6 (paper §II-B): overlay-organization comparison.
//   - structured (DHT): "queries will be resolved in a limited number of
//     steps" — bounded hops, per-node index state, bootstrap traffic.
//   - unstructured (flooding): "almost zero overhead" maintenance, paid for
//     with heavy query-time traffic and TTL-bounded reach.
//   - semi-structured (super peers): small index tier, cheap queries.
//   - hybrid (Cuckoo-style): "fast discovery of popular items" from the
//     gossip cache, DHT fallback for rare ones.
//
// All overlays run the same workload on the same simulated network: 60 peers,
// 40 items, 200 Zipf-distributed lookups (20/10/30 in `--smoke`). One benchkit
// scenario per overlay; the workload is rebuilt from `--seed` per scenario so
// every overlay still sees identical queries.
//
// Every overlay's traffic flows through net::RpcEndpoint, so each run also
// collects the endpoint's uniform rpc.<type>.* observability surface over its
// lookup phase (same format as bench_faults F1b), printed after each row and
// merged into the scenario's JSON counters.
//
// e6_kad_rpc is the RPC layer's own yardstick: E19's Kademlia wiring (68
// nodes, k 8, alpha 3, store width 4, adaptive timeouts, RetryPolicy{2,
// 150 ms, 2.0}) runs a seeded mix of find_node lookups, find_value lookups
// and stores with no cryptography or application work on top, so its wall
// time per completed RPC moves with the simulated RPC round trip alone
// (routing, framing, completion, timeouts, metrics). Its counters are exact.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "dosn/benchkit/benchkit.hpp"
#include "dosn/overlay/flooding.hpp"
#include "dosn/overlay/hybrid.hpp"
#include "dosn/overlay/kademlia.hpp"
#include "dosn/overlay/superpeer.hpp"
#include "dosn/sim/metrics.hpp"

using namespace dosn;
using namespace dosn::overlay;
using benchkit::ScenarioContext;
using sim::kMillisecond;
using sim::kSecond;

namespace {

constexpr double kZipfExponent = 1.0;

struct Sizes {
  std::size_t peers;
  std::size_t items;
  std::size_t lookups;
};

Sizes sizesFor(const ScenarioContext& ctx) {
  return ctx.smoke() ? Sizes{20, 10, 30} : Sizes{60, 40, 200};
}

struct Workload {
  Sizes sizes;
  std::vector<OverlayId> keys;
  std::vector<std::size_t> owners;    // which peer publishes item i
  std::vector<std::size_t> queries;   // item index per lookup (Zipf)
  std::vector<std::size_t> queriers;  // peer issuing each lookup
};

Workload makeWorkload(const ScenarioContext& ctx) {
  util::Rng rng(ctx.seed());
  Workload w;
  w.sizes = sizesFor(ctx);
  for (std::size_t i = 0; i < w.sizes.items; ++i) {
    w.keys.push_back(OverlayId::hash("item-" + std::to_string(i)));
    w.owners.push_back(rng.uniform(w.sizes.peers));
  }
  for (std::size_t q = 0; q < w.sizes.lookups; ++q) {
    w.queries.push_back(rng.zipf(w.sizes.items, kZipfExponent));
    w.queriers.push_back(rng.uniform(w.sizes.peers));
  }
  return w;
}

struct Result {
  const char* name;
  std::size_t found = 0;
  double meanLatencyMs = 0;
  double msgsPerLookup = 0;
  std::uint64_t setupMessages = 0;
  double cacheHitRate = -1;  // hybrid only
};

bool gHeaderPrinted = false;

void report(ScenarioContext& ctx, const Workload& w, const Result& r) {
  if (ctx.printing()) {
    if (!gHeaderPrinted) {
      gHeaderPrinted = true;
      std::printf(
          "E6: overlay lookup comparison (%zu peers, %zu items, %zu Zipf(%.1f) "
          "lookups)\n\n",
          w.sizes.peers, w.sizes.items, w.sizes.lookups, kZipfExponent);
      std::printf("  %-12s %13s %14s %14s %14s %14s\n", "overlay", "found",
                  "latency(ms)", "msgs/lookup", "setup-msgs", "cache-hits");
    }
    std::printf("  %-12s %8zu/%-4zu %14.1f %14.1f %14llu", r.name, r.found,
                w.sizes.lookups, r.meanLatencyMs, r.msgsPerLookup,
                static_cast<unsigned long long>(r.setupMessages));
    if (r.cacheHitRate >= 0) {
      std::printf(" %13.0f%%", 100 * r.cacheHitRate);
    }
    std::printf("\n");
  }
  ctx.param("peers", static_cast<double>(w.sizes.peers));
  ctx.param("items", static_cast<double>(w.sizes.items));
  ctx.param("lookups", static_cast<double>(w.sizes.lookups));
  ctx.counter("found", r.found);
  ctx.param("mean_latency_ms", r.meanLatencyMs);
  ctx.param("msgs_per_lookup", r.msgsPerLookup);
  ctx.counter("setup_messages", r.setupMessages);
  if (r.cacheHitRate >= 0) ctx.param("cache_hit_rate", r.cacheHitRate);
}

void printSurface(const ScenarioContext& ctx, const char* name,
                  const sim::Metrics& metrics) {
  if (!ctx.printing()) return;
  std::printf(
      "\n%s RPC observability (lookup phase only; the endpoint's uniform\n"
      "rpc.<type>.* surface, format as bench_faults F1b)\n",
      name);
  sim::printRpcObservability(metrics);
  std::printf("\n");
}

Result runDht(const Workload& w, sim::Metrics* rpcMetrics) {
  util::Rng rng(1);
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  std::vector<std::unique_ptr<KademliaNode>> peers;
  for (std::size_t i = 0; i < w.sizes.peers; ++i) {
    peers.push_back(std::make_unique<KademliaNode>(net, OverlayId::random(rng)));
  }
  const Contact seed{peers[0]->id(), peers[0]->addr()};
  for (std::size_t i = 1; i < w.sizes.peers; ++i) {
    peers[i]->bootstrap(seed);
    simulator.run();
  }
  for (std::size_t i = 0; i < w.sizes.items; ++i) {
    peers[w.owners[i]]->store(w.keys[i], util::toBytes("v"), {});
    simulator.run();
  }
  Result r{"dht"};
  r.setupMessages = net.messagesSent();
  net.resetStats();
  // Attach the sink here so it covers the lookup phase only, matching the
  // msgs/lookup column (and bench_faults F1b's convention).
  if (rpcMetrics) net.setMetrics(rpcMetrics);
  double latencySum = 0;
  for (std::size_t q = 0; q < w.sizes.lookups; ++q) {
    const sim::SimTime start = simulator.now();
    bool found = false;
    sim::SimTime foundAt = start;
    peers[w.queriers[q]]->findValue(w.keys[w.queries[q]],
                                    [&](LookupResult result) {
                                      found = result.value.has_value();
                                      foundAt = simulator.now();
                                    });
    simulator.run();
    if (found) {
      ++r.found;
      latencySum += static_cast<double>(foundAt - start) / kMillisecond;
    }
  }
  r.meanLatencyMs = r.found ? latencySum / static_cast<double>(r.found) : 0;
  r.msgsPerLookup =
      static_cast<double>(net.messagesSent()) / static_cast<double>(w.sizes.lookups);
  return r;
}

Result runFlooding(const Workload& w, sim::Metrics* rpcMetrics) {
  util::Rng rng(2);
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  std::vector<std::unique_ptr<FloodingNode>> peers;
  for (std::size_t i = 0; i < w.sizes.peers; ++i) {
    peers.push_back(std::make_unique<FloodingNode>(net, OverlayId::random(rng)));
  }
  // Random 4-regular-ish graph: ring + 2 random chords per node.
  for (std::size_t i = 0; i < w.sizes.peers; ++i) {
    linkNodes(*peers[i], *peers[(i + 1) % w.sizes.peers]);
  }
  for (std::size_t i = 0; i < w.sizes.peers; ++i) {
    const std::size_t j = rng.uniform(w.sizes.peers);
    if (j != i) linkNodes(*peers[i], *peers[j]);
  }
  for (std::size_t i = 0; i < w.sizes.items; ++i) {
    peers[w.owners[i]]->publish(w.keys[i], util::toBytes("v"));
  }
  Result r{"flooding"};
  r.setupMessages = net.messagesSent();  // zero: no index maintenance
  net.resetStats();
  if (rpcMetrics) net.setMetrics(rpcMetrics);
  double latencySum = 0;
  for (std::size_t q = 0; q < w.sizes.lookups; ++q) {
    const sim::SimTime start = simulator.now();
    bool found = false;
    sim::SimTime foundAt = start;
    peers[w.queriers[q]]->search(w.keys[w.queries[q]], /*ttl=*/6,
                                 /*timeout=*/5 * kSecond,
                                 [&](std::optional<util::Bytes> v) {
                                   found = v.has_value();
                                   foundAt = simulator.now();
                                 });
    simulator.run();
    if (found) {
      ++r.found;
      latencySum += static_cast<double>(foundAt - start) / kMillisecond;
    }
  }
  r.meanLatencyMs = r.found ? latencySum / static_cast<double>(r.found) : 0;
  r.msgsPerLookup =
      static_cast<double>(net.messagesSent()) / static_cast<double>(w.sizes.lookups);
  return r;
}

Result runSuperPeer(const Workload& w, sim::Metrics* rpcMetrics) {
  util::Rng rng(3);
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  constexpr std::size_t kSupers = 4;
  std::vector<std::unique_ptr<SuperPeer>> supers;
  for (std::size_t i = 0; i < kSupers; ++i) {
    supers.push_back(std::make_unique<SuperPeer>(net));
  }
  for (std::size_t i = 0; i < kSupers; ++i) {
    std::vector<sim::NodeAddr> others;
    for (std::size_t j = 0; j < kSupers; ++j) {
      if (j != i) others.push_back(supers[j]->addr());
    }
    supers[i]->setPeers(others);
  }
  std::vector<std::unique_ptr<LeafPeer>> peers;
  for (std::size_t i = 0; i < w.sizes.peers; ++i) {
    peers.push_back(
        std::make_unique<LeafPeer>(net, supers[i % kSupers]->addr()));
  }
  for (std::size_t i = 0; i < w.sizes.items; ++i) {
    peers[w.owners[i]]->publish(w.keys[i], util::toBytes("v"));
  }
  simulator.run();
  Result r{"super-peer"};
  r.setupMessages = net.messagesSent();
  net.resetStats();
  if (rpcMetrics) net.setMetrics(rpcMetrics);
  double latencySum = 0;
  for (std::size_t q = 0; q < w.sizes.lookups; ++q) {
    const sim::SimTime start = simulator.now();
    bool found = false;
    sim::SimTime foundAt = start;
    peers[w.queriers[q]]->search(w.keys[w.queries[q]], 5 * kSecond,
                                 [&](std::optional<util::Bytes> v) {
                                   found = v.has_value();
                                   foundAt = simulator.now();
                                 });
    simulator.run();
    if (found) {
      ++r.found;
      latencySum += static_cast<double>(foundAt - start) / kMillisecond;
    }
  }
  r.meanLatencyMs = r.found ? latencySum / static_cast<double>(r.found) : 0;
  r.msgsPerLookup =
      static_cast<double>(net.messagesSent()) / static_cast<double>(w.sizes.lookups);
  return r;
}

Result runHybrid(const Workload& w, sim::Metrics* rpcMetrics) {
  util::Rng rng(4);
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  std::vector<std::unique_ptr<HybridNode>> peers;
  for (std::size_t i = 0; i < w.sizes.peers; ++i) {
    peers.push_back(std::make_unique<HybridNode>(net, OverlayId::random(rng)));
  }
  const Contact seed{peers[0]->dht().id(), peers[0]->dht().addr()};
  std::vector<sim::NodeAddr> cachePeers;
  for (const auto& p : peers) cachePeers.push_back(p->cache().addr());
  for (std::size_t i = 0; i < w.sizes.peers; ++i) {
    if (i > 0) peers[i]->dht().bootstrap(seed);
    peers[i]->cache().setPeers(cachePeers);
    simulator.run();
  }
  // Popular items (top 20% of the Zipf ranks) are gossiped; the rest are
  // DHT-only.
  for (std::size_t i = 0; i < w.sizes.items; ++i) {
    peers[w.owners[i]]->publish(w.keys[i], util::toBytes("v"),
                                /*seedCache=*/i < w.sizes.items / 5);
    simulator.run();
  }
  for (const auto& p : peers) p->cache().start();
  simulator.runUntil(simulator.now() + 15 * kSecond);
  for (const auto& p : peers) p->cache().stop();

  Result r{"hybrid"};
  r.setupMessages = net.messagesSent();
  net.resetStats();
  if (rpcMetrics) net.setMetrics(rpcMetrics);
  double latencySum = 0;
  std::size_t cacheHits = 0;
  for (std::size_t q = 0; q < w.sizes.lookups; ++q) {
    const sim::SimTime start = simulator.now();
    bool found = false;
    bool fromCache = false;
    sim::SimTime foundAt = start;
    peers[w.queriers[q]]->lookup(w.keys[w.queries[q]],
                                 [&](HybridLookupResult result) {
                                   found = result.value.has_value();
                                   fromCache = result.fromCache;
                                   foundAt = simulator.now();
                                 });
    simulator.run();
    if (found) {
      ++r.found;
      if (fromCache) ++cacheHits;
      latencySum += static_cast<double>(foundAt - start) / kMillisecond;
    }
  }
  r.meanLatencyMs = r.found ? latencySum / static_cast<double>(r.found) : 0;
  r.msgsPerLookup =
      static_cast<double>(net.messagesSent()) / static_cast<double>(w.sizes.lookups);
  r.cacheHitRate = r.found ? static_cast<double>(cacheHits) /
                                 static_cast<double>(r.found)
                           : 0;
  return r;
}

struct KadRpcRun {
  std::uint64_t rpcSent = 0;
  std::uint64_t rpcCompleted = 0;
  std::uint64_t simEvents = 0;
  std::uint64_t hops = 0;
  std::uint64_t valuesFound = 0;
  double opsWallMs = 0;  // the mix alone, without set-up

  bool sameCounts(const KadRpcRun& o) const {
    return rpcSent == o.rpcSent && rpcCompleted == o.rpcCompleted &&
           simEvents == o.simEvents && hops == o.hops &&
           valuesFound == o.valuesFound;
  }
};

KadRpcRun runKadRpc(std::uint64_t seed, std::size_t ops) {
  constexpr std::size_t kNodes = 68;
  constexpr std::size_t kKeys = 64;
  util::Rng rng(seed);
  sim::Simulator simulator;
  // E19's links, plus 2% loss so the timeout and retry paths run too.
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.02},
                   rng);
  sim::Metrics metrics;
  net.setMetrics(&metrics);
  KademliaConfig config;
  config.k = 8;
  config.alpha = 3;
  config.storeWidth = 4;
  config.rpcTimeout = 300 * kMillisecond;
  config.adaptiveTimeout = true;
  config.retry = RetryPolicy{2, 150 * kMillisecond, 2.0};
  std::vector<std::unique_ptr<KademliaNode>> nodes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    nodes.push_back(
        std::make_unique<KademliaNode>(net, OverlayId::random(rng), config));
  }
  const Contact seedContact{nodes[0]->id(), nodes[0]->addr()};
  for (std::size_t i = 1; i < kNodes; ++i) {
    nodes[i]->bootstrap(seedContact);
    simulator.run();
  }
  std::vector<OverlayId> keys;
  for (std::size_t i = 0; i < kKeys; ++i) keys.push_back(OverlayId::random(rng));

  const auto rpcCount = [&metrics](const char* event) {
    std::uint64_t total = 0;
    for (const char* type : {"find_node", "find_value", "store"}) {
      total += metrics.counter(std::string("rpc.kad.") + type + event);
    }
    return total;
  };
  const std::uint64_t sentBefore = rpcCount(".sent");
  const std::uint64_t completedBefore = rpcCount(".completed");

  // The whole mix is drawn and scheduled before it runs, one operation
  // every 4 ms of sim time: 40% find_node, 30% find_value, 30% store.
  KadRpcRun run;
  const auto onLookup = [&run](const LookupResult& result) {
    run.hops += result.hops;
    if (result.value) ++run.valuesFound;
  };
  for (std::size_t i = 0; i < ops; ++i) {
    KademliaNode* node = nodes[rng.uniform(kNodes)].get();
    const std::uint64_t kind = rng.uniform(10);
    const OverlayId key = keys[rng.uniform(kKeys)];
    const sim::SimTime at = simulator.now() + i * 4 * kMillisecond;
    if (kind < 4) {
      const OverlayId target = OverlayId::random(rng);
      simulator.scheduleAt(at, [node, target, &onLookup] {
        node->findNode(target, onLookup);
      });
    } else if (kind < 7) {
      simulator.scheduleAt(at, [node, key, &onLookup] {
        node->findValue(key, onLookup);
      });
    } else {
      util::Bytes value(64 + rng.uniform(1024), static_cast<std::uint8_t>(i));
      simulator.scheduleAt(at, [node, key, value = std::move(value)]() mutable {
        node->store(key, std::move(value));
      });
    }
  }
  benchkit::Timer timer;
  run.simEvents = simulator.run();
  run.opsWallMs = timer.ms();
  run.rpcSent = rpcCount(".sent") - sentBefore;
  run.rpcCompleted = rpcCount(".completed") - completedBefore;
  return run;
}

}  // namespace

BENCH_SCENARIO(e6_kad_rpc, {.hot = true}) {
  // Rounds replay the same seeded mix on a fresh network: each must
  // reproduce the first one's counts, and the reported time per RPC is
  // their median.
  const std::size_t ops = ctx.smoke() ? 300 : 3000;
  const std::size_t rounds = ctx.smoke() ? 3 : 7;
  std::vector<double> nsPerRpc;
  KadRpcRun first;
  for (std::size_t r = 0; r < rounds; ++r) {
    const KadRpcRun run = runKadRpc(ctx.seed(), ops);
    if (r == 0) first = run;
    ctx.require(run.sameCounts(first), "every round reproduces round 0");
    ctx.require(run.rpcCompleted > 0, "the mix completes RPCs");
    nsPerRpc.push_back(run.opsWallMs * 1e6 /
                       static_cast<double>(std::max<std::uint64_t>(
                           run.rpcCompleted, 1)));
  }
  std::sort(nsPerRpc.begin(), nsPerRpc.end());
  const double median = nsPerRpc[nsPerRpc.size() / 2];
  if (ctx.printing()) {
    std::printf(
        "E6b: Kademlia RPC round trip (68 nodes, k 8, alpha 3, store width 4,\n"
        "adaptive timeouts, 2 attempts, 2%% loss; %zu seeded operations: 40%%\n"
        "find_node, 30%% find_value, 30%% store; median of %zu rounds)\n\n"
        "  %12s %12s %12s %12s %10s %12s\n"
        "  %12.0f %12llu %12llu %12llu %10llu %12llu\n\n",
        ops, rounds, "ns/rpc", "rpcs-sent", "completed", "sim-events",
        "hops", "values-found", median,
        static_cast<unsigned long long>(first.rpcSent),
        static_cast<unsigned long long>(first.rpcCompleted),
        static_cast<unsigned long long>(first.simEvents),
        static_cast<unsigned long long>(first.hops),
        static_cast<unsigned long long>(first.valuesFound));
  }
  ctx.param("ops", static_cast<double>(ops));
  ctx.param("rounds", static_cast<double>(rounds));
  ctx.param("ns_per_rpc", median);
  ctx.counter("rpcs_sent", first.rpcSent);
  ctx.counter("rpcs_completed", first.rpcCompleted);
  ctx.counter("sim_events", first.simEvents);
  ctx.counter("hops", first.hops);
  ctx.counter("values_found", first.valuesFound);
}

BENCH_SCENARIO(e6_dht, {.hot = true}) {
  const Workload w = makeWorkload(ctx);
  report(ctx, w, runDht(w, &ctx.metrics()));
  printSurface(ctx, "dht", ctx.metrics());
}

BENCH_SCENARIO(e6_flooding) {
  const Workload w = makeWorkload(ctx);
  report(ctx, w, runFlooding(w, &ctx.metrics()));
  printSurface(ctx, "flooding", ctx.metrics());
}

BENCH_SCENARIO(e6_superpeer) {
  const Workload w = makeWorkload(ctx);
  report(ctx, w, runSuperPeer(w, &ctx.metrics()));
  printSurface(ctx, "super-peer", ctx.metrics());
}

BENCH_SCENARIO(e6_hybrid, {.hot = true}) {
  const Workload w = makeWorkload(ctx);
  report(ctx, w, runHybrid(w, &ctx.metrics()));
  printSurface(ctx, "hybrid", ctx.metrics());
  if (ctx.printing()) {
    std::printf(
        "expected shape: flooding has ~0 setup messages but the most traffic\n"
        "per lookup and TTL-bounded success; the DHT resolves everything in\n"
        "bounded steps at moderate cost; super-peers are cheapest per query\n"
        "but concentrate index state; hybrid serves popular items from cache\n"
        "at near-zero marginal cost with DHT completeness for rare ones.\n");
  }
}

BENCHKIT_MAIN()

// F1: fault-injection robustness sweep. The survey's availability discussion
// (§IV) assumes the storage overlay keeps answering queries while individual
// links misbehave. This experiment scripts increasingly hostile FaultPlans
// (uniform drop storms) against a Kademlia swarm and sweeps the RPC retry
// budget, showing how much lookup success retry-with-backoff buys back and
// what it costs in extra messages.
//
// Since every overlay RPC now flows through net::RpcEndpoint, the run also
// reports the endpoint's uniform observability surface — rpc.<type>.*
// counters and per-type round-trip latency histograms. Per-destination
// adaptive timeouts and retry budgets are measured by F3 below and by F2
// (bench_microblog).
//
// Three benchkit scenarios: f1_drop_retry, f1b_observability, f3_bimodal.
// `--smoke` shrinks the swarm and trims the sweeps.
#include <cstdio>
#include <memory>
#include <string>

#include "dosn/benchkit/benchkit.hpp"
#include "dosn/overlay/kademlia.hpp"
#include "dosn/sim/faults.hpp"
#include "dosn/sim/metrics.hpp"

using namespace dosn;
using namespace dosn::overlay;
using benchkit::ScenarioContext;
using sim::kMillisecond;
using sim::kSecond;

namespace {

struct Sizes {
  std::size_t peers;
  std::size_t items;
  std::size_t lookups;
};

Sizes sizesFor(const ScenarioContext& ctx) {
  return ctx.smoke() ? Sizes{16, 8, 20} : Sizes{40, 20, 60};
}

struct Outcome {
  double successRate = 0;
  double msgsPerLookup = 0;
  std::size_t retries = 0;
};

// --- F3: bimodal link delays, fixed vs adaptive timeout ------------------
//
// Half the fleet sits behind a +400ms-each-way delay (think: continental
// links or overloaded home uplinks), so the fleet's RTT distribution is
// bimodal: ~50ms near, ~850ms far (~1.7s far<->far, the spikes add). A fixed
// rpcTimeout=250ms with attempts=2 gives up 650ms after the first send —
// before a far reply can possibly arrive — so every far RPC fails and every
// far retransmission is pure waste. The adaptive rows give each destination
// its own RFC 6298 estimator (net/rtt.hpp): consecutive timeouts back the
// peer's timeout off geometrically until one attempt survives long enough to
// sample the true RTT, after which far calls complete cleanly on their first
// attempt. The run is lossless, so *every* retransmission is spurious by
// construction (the original request always arrives; only the reply is slow).
constexpr std::size_t kF3Waves = 3;
constexpr std::size_t kF3Origins = 4;
constexpr sim::SimTime kF3FarDelay = 400 * kMillisecond;

struct WaveStats {
  double successRate = 0;
  double p50Ms = 0;
  double p95Ms = 0;
  std::uint64_t retransmits = 0;  // all spurious: the plan never drops
  std::uint64_t timeouts = 0;
};

std::uint64_t sumRpcCounter(const sim::Metrics& metrics,
                            const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : metrics.countersWithPrefix("rpc.")) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

std::vector<WaveStats> runF3(const ScenarioContext& ctx, bool adaptiveTimeout) {
  const Sizes sz = sizesFor(ctx);
  const std::size_t lookupsPerWave = ctx.smoke() ? 12 : 40;
  util::Rng rng(ctx.seed());
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  sim::Metrics metrics;
  net.setMetrics(&metrics);

  KademliaConfig config;
  config.k = 8;
  config.alpha = 3;
  config.rpcTimeout = 250 * kMillisecond;
  config.storeWidth = 2;
  config.retry = RetryPolicy{2, 150 * kMillisecond, 2.0};
  config.adaptiveTimeout = adaptiveTimeout;

  std::vector<std::unique_ptr<KademliaNode>> peers;
  for (std::size_t i = 0; i < sz.peers; ++i) {
    peers.push_back(
        std::make_unique<KademliaNode>(net, OverlayId::random(rng), config));
  }
  const Contact seed{peers[0]->id(), peers[0]->addr()};
  for (std::size_t i = 1; i < sz.peers; ++i) {
    peers[i]->bootstrap(seed);
    simulator.run();
  }
  std::vector<OverlayId> keys;
  for (std::size_t i = 0; i < sz.items; ++i) {
    keys.push_back(OverlayId::hash("bimodal-" + std::to_string(i)));
    peers[i % sz.peers]->store(keys.back(), util::toBytes("v"), {});
    simulator.run();
  }

  // The delay spikes start only after the (uniformly fast) build phase, so
  // both policies query the same topology — and the adaptive estimators
  // start *mis-trained*: they learned ~50ms RTTs for peers that are about to
  // become slow, the hardest starting point for an adaptive scheme.
  sim::FaultPlan plan;
  for (std::size_t i = sz.peers / 2; i < sz.peers; ++i) {
    plan.at(simulator.now(),
            sim::FaultRule::node(peers[i]->addr()).delay(kF3FarDelay));
  }
  net.setFaultPlan(&plan);

  std::vector<WaveStats> waves;
  std::uint64_t prevRetransmits = sumRpcCounter(metrics, ".retries");
  std::uint64_t prevTimeouts = sumRpcCounter(metrics, ".timeouts");
  for (std::size_t wave = 0; wave < kF3Waves; ++wave) {
    sim::Histogram completion;
    std::size_t found = 0;
    for (std::size_t q = 0; q < lookupsPerWave; ++q) {
      const sim::SimTime started = simulator.now();
      bool ok = false;
      peers[1 + (q % kF3Origins)]->findValue(
          keys[q % sz.items], [&](LookupResult r) {
            ok = r.value.has_value();
            completion.record(
                static_cast<double>(simulator.now() - started) /
                static_cast<double>(kMillisecond));
          });
      simulator.run();
      if (ok) ++found;
    }
    WaveStats stats;
    stats.successRate =
        static_cast<double>(found) / static_cast<double>(lookupsPerWave);
    stats.p50Ms = completion.percentile(50);
    stats.p95Ms = completion.percentile(95);
    const std::uint64_t retransmits = sumRpcCounter(metrics, ".retries");
    const std::uint64_t timeouts = sumRpcCounter(metrics, ".timeouts");
    stats.retransmits = retransmits - prevRetransmits;
    stats.timeouts = timeouts - prevTimeouts;
    prevRetransmits = retransmits;
    prevTimeouts = timeouts;
    waves.push_back(stats);
  }
  return waves;
}

Outcome run(const ScenarioContext& ctx, double drop, std::size_t retryAttempts,
            sim::Metrics* metricsOut = nullptr) {
  const Sizes sz = sizesFor(ctx);
  util::Rng rng(ctx.seed());
  sim::Simulator simulator;
  sim::Network net(simulator,
                   sim::LatencyModel{20 * kMillisecond, 10 * kMillisecond, 0.0},
                   rng);
  sim::Metrics metrics;
  net.setMetrics(&metrics);

  KademliaConfig config;
  config.k = 8;
  config.alpha = 3;
  config.rpcTimeout = 250 * kMillisecond;
  config.storeWidth = 3;
  config.retry = RetryPolicy{retryAttempts, 150 * kMillisecond, 2.0};

  std::vector<std::unique_ptr<KademliaNode>> peers;
  for (std::size_t i = 0; i < sz.peers; ++i) {
    peers.push_back(
        std::make_unique<KademliaNode>(net, OverlayId::random(rng), config));
  }
  const Contact seed{peers[0]->id(), peers[0]->addr()};
  for (std::size_t i = 1; i < sz.peers; ++i) {
    peers[i]->bootstrap(seed);
    simulator.run();
  }
  std::vector<OverlayId> keys;
  for (std::size_t i = 0; i < sz.items; ++i) {
    keys.push_back(OverlayId::hash("fault-" + std::to_string(i)));
    peers[i % sz.peers]->store(keys.back(), util::toBytes("v"), {});
    simulator.run();
  }

  // Faults start only after the swarm is built and populated, so every
  // configuration queries the same healthy topology.
  sim::FaultPlan plan;
  plan.at(simulator.now(), sim::FaultRule::global().drop(drop));
  net.setFaultPlan(&plan);
  net.resetStats();
  // Swap in the caller's sink here so it sees the lookup phase only, not the
  // (fault-free) bootstrap and store traffic.
  if (metricsOut) net.setMetrics(metricsOut);

  std::size_t found = 0;
  for (std::size_t q = 0; q < sz.lookups; ++q) {
    bool ok = false;
    peers[(q * 7) % sz.peers]->findValue(keys[q % sz.items], [&](LookupResult r) {
      ok = r.value.has_value();
    });
    simulator.run();
    if (ok) ++found;
  }
  Outcome out;
  out.successRate = static_cast<double>(found) / static_cast<double>(sz.lookups);
  out.msgsPerLookup =
      static_cast<double>(net.messagesSent()) / static_cast<double>(sz.lookups);
  for (const auto& peer : peers) out.retries += peer->rpcRetries();
  return out;
}

std::string dropTag(double drop) {
  return std::to_string(static_cast<int>(100 * drop));
}

}  // namespace

BENCH_SCENARIO(f1_drop_retry, {.hot = true}) {
  const Sizes sz = sizesFor(ctx);
  ctx.param("peers", static_cast<double>(sz.peers));
  ctx.param("lookups", static_cast<double>(sz.lookups));
  if (ctx.printing()) {
    std::printf(
        "F1: drop probability x RPC retry budget (%zu peers, %zu lookups)\n\n",
        sz.peers, sz.lookups);
    std::printf("%-8s %-9s %10s %14s %10s\n", "drop", "attempts", "success",
                "msgs/lookup", "retries");
  }
  for (const double drop : {0.0, 0.1, 0.2, 0.35}) {
    if (ctx.smoke() && drop > 0.2) continue;
    for (const std::size_t attempts : {1u, 2u, 4u}) {
      if (ctx.smoke() && attempts == 2) continue;
      const Outcome o = run(ctx, drop, attempts);
      if (ctx.printing()) {
        std::printf("%-8.2f %-9zu %9.0f%% %14.1f %10zu\n", drop, attempts,
                    100 * o.successRate, o.msgsPerLookup, o.retries);
      }
      const std::string tag =
          ".d" + dropTag(drop) + ".a" + std::to_string(attempts);
      ctx.param("success" + tag, o.successRate);
      ctx.param("msgs_per_lookup" + tag, o.msgsPerLookup);
      ctx.counter("retries" + tag, o.retries);
    }
    if (ctx.printing()) std::printf("\n");
  }
  if (ctx.printing()) {
    std::printf(
        "expected shape: with a single attempt, success degrades steeply with\n"
        "the drop rate; adding retry attempts recovers most of it, paying a\n"
        "message overhead that grows with the drop rate (each retry is itself\n"
        "subject to the same faults).\n");
  }
}

BENCH_SCENARIO(f1b_observability) {
  if (ctx.printing()) {
    std::printf(
        "\nF1b: per-RPC observability at drop=0.20, attempts=4 (the endpoint's\n"
        "uniform rpc.<type>.* surface; lookup phase only)\n\n");
  }
  const Outcome o = run(ctx, 0.2, 4, &ctx.metrics());
  if (ctx.printing()) sim::printRpcObservability(ctx.metrics());
  ctx.param("success", o.successRate);
  ctx.param("msgs_per_lookup", o.msgsPerLookup);
}

BENCH_SCENARIO(f3_bimodal) {
  const Sizes sz = sizesFor(ctx);
  const std::size_t lookupsPerWave = ctx.smoke() ? 12 : 40;
  if (ctx.printing()) {
    std::printf(
        "\nF3: bimodal link delays — half the fleet +%lldms each way — fixed vs\n"
        "adaptive per-destination timeouts (%zu peers, %zu waves x %zu lookups,\n"
        "rpcTimeout=250ms, attempts=2, lossless: every retransmit is spurious)\n\n",
        static_cast<long long>(kF3FarDelay / kMillisecond), sz.peers, kF3Waves,
        lookupsPerWave);
    std::printf("%-9s %-5s %9s %10s %10s %13s %9s\n", "policy", "wave",
                "success", "p50(ms)", "p95(ms)", "spur.rexmit", "timeouts");
  }
  const std::vector<WaveStats> fixedWaves = runF3(ctx, false);
  const std::vector<WaveStats> adaptiveWaves = runF3(ctx, true);
  const std::pair<const char*, const std::vector<WaveStats>&> rows[] = {
      {"fixed", fixedWaves}, {"adaptive", adaptiveWaves}};
  for (const auto& [policy, waves] : rows) {
    for (std::size_t w = 0; w < kF3Waves; ++w) {
      if (ctx.printing()) {
        std::printf("%-9s %-5zu %8.0f%% %10.1f %10.1f %13llu %9llu\n", policy,
                    w + 1, 100 * waves[w].successRate, waves[w].p50Ms,
                    waves[w].p95Ms,
                    static_cast<unsigned long long>(waves[w].retransmits),
                    static_cast<unsigned long long>(waves[w].timeouts));
      }
      const std::string tag =
          std::string(".") + policy + ".w" + std::to_string(w + 1);
      ctx.param("success" + tag, waves[w].successRate);
      ctx.param("p95_ms" + tag, waves[w].p95Ms);
      ctx.counter("retransmits" + tag, waves[w].retransmits);
      ctx.counter("timeouts" + tag, waves[w].timeouts);
    }
  }
  if (ctx.printing()) {
    std::printf(
        "\nexpected shape: fixed 250ms gives up 650ms after the first send, so\n"
        "every far RPC fails — far-replicated items are unreachable and each\n"
        "far call burns one spurious retransmission, wave after wave. The\n"
        "adaptive rows back each slow destination's timeout off until its true\n"
        "RTT is sampled (Karn's rule: only unretransmitted calls count), so by\n"
        "the last wave far calls complete on their first attempt: higher\n"
        "success, lower p95 completion, and an order of magnitude fewer\n"
        "spurious retransmits.\n");
  }
}

BENCHKIT_MAIN()

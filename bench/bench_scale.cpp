// S-series: simulator scale benchmark (BENCHMARKS.md entry "bench_scale",
// EXPERIMENTS.md S1). Measures raw event-loop throughput of the sim core —
// calendar event queue + interned message types + pooled closures + shared
// payloads (DESIGN.md §3d) — at fleet sizes from 1k to 1M nodes.
//
// The S1 workload is the canonical outstanding-RPC load, not a synthetic
// queue drill:
//  - N nodes on one Network with the default latency model (20 ms base,
//    10 ms jitter, no loss);
//  - every node keeps 4 pings in flight (Kademlia's alpha=3 parallel lookups
//    plus one maintenance ping) with a 64-byte payload — each delivery
//    handler immediately re-pings a uniformly random peer until the global
//    send budget (20 x N) runs out. The bytes never change, so every ping
//    shares one sim::Payload buffer: a copy per ping would measure memcpy,
//    not the simulator;
//  - handlers capture {ctx, self} (16 bytes -> std::function SBO), the same
//    shape RpcEndpoint-style code registers;
//  - one +60 s maintenance timer per 64 nodes keeps long-horizon events in
//    the queue, so the calendar queue's overflow partition stays exercised.
//
// Reported per size: events/sec over the drain, executed/delivered counts,
// peak RSS (getrusage ru_maxrss, whole process — monotone across scenarios,
// so the 1M gauge is the honest high-water mark), and end-of-warmup queue
// partition sizes (ring vs overflow) for introspection.
#include <sys/resource.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "dosn/benchkit/benchkit.hpp"
#include "dosn/sim/network.hpp"
#include "dosn/sim/simulator.hpp"
#include "dosn/util/rng.hpp"

using namespace dosn;
using namespace dosn::benchkit;

namespace {

const sim::MessageType kPing("scale.ping");

struct Ctx {
  sim::Network* net = nullptr;
  util::Rng* rng = nullptr;
  std::vector<sim::NodeAddr> addrs;
  sim::Payload payload;
  std::uint64_t sent = 0;
  std::uint64_t sendBudget = 0;
};

double peakRssMb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct ScaleResult {
  std::size_t executed = 0;
  std::uint64_t delivered = 0;
  double wallSecs = 0;
  double eventsPerSec = 0;
  std::size_t ringSize = 0;      // queue partition sizes after seeding
  std::size_t overflowSize = 0;
};

ScaleResult runScale(ScenarioContext& ctx, std::size_t nodes) {
  const std::uint64_t eventBudget = 20 * static_cast<std::uint64_t>(nodes);
  util::Rng rng(ctx.seed());
  sim::Simulator simulator;
  sim::LatencyModel latency;
  sim::Network net(simulator, latency, rng);

  Ctx workload;
  workload.net = &net;
  workload.rng = &rng;
  workload.sendBudget = eventBudget;
  workload.payload = util::toBytes(
      "scale-probe-payload-64-bytes....................................");
  workload.addrs.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) workload.addrs.push_back(net.addNode());

  Ctx* c = &workload;
  for (std::size_t i = 0; i < nodes; ++i) {
    const sim::NodeAddr self = workload.addrs[i];
    net.setHandler(self, [c, self](sim::NodeAddr, const sim::Message&) {
      if (c->sent >= c->sendBudget) return;
      ++c->sent;
      const sim::NodeAddr to = c->addrs[c->rng->uniform(c->addrs.size())];
      c->net->send(self, to, sim::Message{kPing, c->payload});
    });
  }
  // Long-horizon maintenance timers land in the queue's overflow partition.
  std::size_t timers = 0;
  for (std::size_t i = 0; i < nodes; i += 64) {
    simulator.schedule(60 * sim::kSecond + i * sim::kMicrosecond,
                       [&timers] { ++timers; });
  }
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t i = 0; i < nodes; ++i) {
      ++workload.sent;
      const sim::NodeAddr to = workload.addrs[rng.uniform(workload.addrs.size())];
      net.send(workload.addrs[i], to, sim::Message{kPing, workload.payload});
    }
  }

  ScaleResult result;
  result.ringSize = simulator.eventQueue().ringSize();
  result.overflowSize = simulator.eventQueue().overflowSize();

  const auto t0 = std::chrono::steady_clock::now();
  result.executed = simulator.run();
  const auto t1 = std::chrono::steady_clock::now();
  result.wallSecs = std::chrono::duration<double>(t1 - t0).count();
  result.delivered = net.messagesDelivered();
  result.eventsPerSec =
      result.wallSecs > 0 ? result.executed / result.wallSecs : 0;

  ctx.require(timers == (nodes + 63) / 64, "all maintenance timers fired");
  ctx.require(result.delivered == eventBudget, "send budget fully delivered");
  return result;
}

void report(ScenarioContext& ctx, std::size_t nodes, const ScaleResult& r) {
  if (ctx.printing()) {
    std::printf(
        "S1 scale: %zu nodes, %zu events executed (%llu delivered)\n"
        "  wall %.3f s -> %.0f events/sec; peak RSS %.1f MB\n"
        "  queue after seeding: ring=%zu overflow=%zu\n",
        nodes, r.executed, static_cast<unsigned long long>(r.delivered),
        r.wallSecs, r.eventsPerSec, peakRssMb(), r.ringSize, r.overflowSize);
  }
  ctx.counter("executed", r.executed);
  ctx.counter("delivered", r.delivered);
  ctx.counter("ring_after_seed", r.ringSize);
  ctx.counter("overflow_after_seed", r.overflowSize);
  ctx.param("nodes", static_cast<double>(nodes));
  ctx.gauge("events_per_sec", r.eventsPerSec);
  ctx.gauge("peak_rss_mb", peakRssMb());
}

}  // namespace

// Smoke mode shrinks each rung one decade so CI finishes in seconds while
// still crossing a calendar-queue rebase (the 100k rung's smoke size, 10k,
// drains ~200k events). Counters therefore differ between modes by design;
// bench_compare.py baselines are recorded per mode.
BENCH_SCENARIO(s1_1k) {
  report(ctx, 1000, runScale(ctx, 1000));
}

BENCH_SCENARIO(s1_10k, {.hot = true}) {
  const std::size_t nodes = ctx.smoke() ? 2000 : 10000;
  report(ctx, nodes, runScale(ctx, nodes));
}

BENCH_SCENARIO(s1_100k) {
  const std::size_t nodes = ctx.smoke() ? 10000 : 100000;
  report(ctx, nodes, runScale(ctx, nodes));
}

// The full-scale rung: ~20M events, ~22 s and ~1.3 GB RSS on the reference
// machine. Far too heavy for the CI smoke sweep; run locally via
//   bench_scale --filter s1_1m
BENCH_SCENARIO(s1_1m, {.skipInSmoke = true}) {
  report(ctx, 1000000, runScale(ctx, 1000000));
}

BENCHKIT_MAIN()

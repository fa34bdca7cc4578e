// Deterministic fault injection for the simulated network (DESIGN.md §3.2).
//
// The paper's §I motivates every availability mechanism it surveys with the
// observation that in a DOSN "users cannot guarantee full time data
// availability". A single uniform loss probability (LatencyModel) cannot
// exercise that claim: real deployments see flaky individual links, nodes
// behind bad NATs, bit corruption, duplicated datagrams and transient
// partitions. A FaultPlan scripts all of those against the virtual clock:
//
//   FaultPlan plan;
//   plan.add(FaultRule::link(a, b).drop(1.0));              // severed, one way
//   plan.at(10 * kSecond, FaultRule::node(c).corrupt(0.2)); // c's NIC goes bad
//   plan.between(t1, t2, FaultRule::global().drop(0.2));    // 20% storm
//   plan.partition("rack-4", {n1, n2}, t1, /*heal=*/t2);    // island until t2
//   network.setFaultPlan(&plan);
//
// Every random draw flows through the network's seeded Rng, so a fixed seed
// plus a fixed plan reproduces a byte-identical delivery trace — the property
// test_faults locks in. Fault events are counted in an attached sim::Metrics
// (`net.dropped.fault`, `net.duplicated`, `net.corrupted`, `net.partitioned`).
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dosn/sim/flat_map.hpp"
#include "dosn/sim/simulator.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::sim {

// Both mirror network.hpp (kept header-light).
using NodeAddr = std::uint64_t;
class Payload;

inline constexpr SimTime kFaultForever = ~SimTime{0};

/// One scripted network defect. Rules are *directional*: a kLink rule matches
/// only from->to traffic, so an asymmetric link is simply two different rules
/// (or one rule for one direction and none for the other). A kNode rule
/// matches traffic in or out of the node; a kGlobal rule matches everything.
struct FaultRule {
  enum class Scope { kGlobal, kLink, kNode };

  Scope scope = Scope::kGlobal;
  NodeAddr a = 0;  // kLink: sender; kNode: the node
  NodeAddr b = 0;  // kLink: receiver

  /// Overrides the link's base loss probability while active.
  std::optional<double> dropProbability;
  double duplicateProbability = 0.0;
  double corruptProbability = 0.0;
  /// Extra latency added on top of the sampled link latency.
  SimTime delaySpike = 0;
  double delaySpikeProbability = 0.0;

  /// Active window [start, end).
  SimTime start = 0;
  SimTime end = kFaultForever;

  static FaultRule global() { return {}; }
  static FaultRule link(NodeAddr from, NodeAddr to);
  static FaultRule node(NodeAddr n);

  // Chainable effect setters (probabilities clamped to [0, 1] on use).
  FaultRule& drop(double p);
  FaultRule& duplicate(double p);
  FaultRule& corrupt(double p);
  FaultRule& delay(SimTime spike, double probability = 1.0);

  bool matches(SimTime now, NodeAddr from, NodeAddr to) const;
};

/// A named network partition: `island` cannot exchange messages with the rest
/// of the network during [start, heal). Traffic within the island, and among
/// non-members, is unaffected; two distinct islands active at once also sever
/// island-to-island traffic (each crossing is a boundary crossing).
struct NetPartition {
  std::string name;
  // Open-addressing membership set: severs() runs on every send while a
  // plan is attached, so the island check is two O(1) probes, not two
  // red-black tree walks.
  AddrSet island;
  SimTime start = 0;
  SimTime heal = kFaultForever;

  bool severs(SimTime now, NodeAddr from, NodeAddr to) const;
};

class FaultPlan {
 public:
  /// Adds a rule with whatever window it already carries (default: always).
  FaultRule& add(FaultRule rule);
  /// Rule active from `t` onwards.
  FaultRule& at(SimTime t, FaultRule rule);
  /// Rule active during [t1, t2).
  FaultRule& between(SimTime t1, SimTime t2, FaultRule rule);
  /// Named partition isolating `island` during [start, heal).
  NetPartition& partition(std::string name, std::set<NodeAddr> island,
                          SimTime start, SimTime heal = kFaultForever);

  bool empty() const { return rules_.empty() && partitions_.empty(); }

  /// What the fault layer does to one message. `copies == 0` means dropped.
  struct Decision {
    bool partitioned = false;   // dropped at a partition boundary
    bool droppedByFault = false;  // dropped by a rule's drop override
    bool droppedByLoss = false;   // dropped by the link's base loss
    std::size_t copies = 1;     // 2 when duplicated
    bool corrupt = false;
    SimTime extraDelay = 0;

    bool dropped() const { return partitioned || droppedByFault || droppedByLoss; }
  };

  /// Evaluates all active faults for a from->to message at `now`.
  /// `baseLoss` is the link's LatencyModel loss, used when no active rule
  /// overrides it. Consumes rng draws in a fixed order, so the outcome
  /// sequence is a pure function of (seed, call sequence).
  ///
  /// Combination across multiple active matching rules: the *last added*
  /// drop override wins; duplicate/corrupt take the max probability; delay
  /// spikes accumulate.
  Decision decide(SimTime now, NodeAddr from, NodeAddr to, double baseLoss,
                  util::Rng& rng) const;

  /// True if any active partition severs from->to at `now`.
  bool partitioned(SimTime now, NodeAddr from, NodeAddr to) const;

 private:
  std::vector<FaultRule> rules_;
  std::vector<NetPartition> partitions_;
};

/// Replaces `payload` with a copy that has 1–3 random bits flipped (no-op on
/// empty payloads); models in-flight corruption that a checksum/AEAD layer
/// must reject. The shared buffer is never written, so only the corrupted
/// delivery pays for a copy: the sender's frame and its other attempts and
/// duplicates keep the original bytes.
void corruptPayload(Payload& payload, util::Rng& rng);

}  // namespace dosn::sim

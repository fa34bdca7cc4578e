#include "dosn/sim/faults.hpp"

#include <algorithm>
#include <utility>

#include "dosn/sim/network.hpp"

namespace dosn::sim {

namespace {

double clamp01(double p) { return std::min(1.0, std::max(0.0, p)); }

}  // namespace

FaultRule FaultRule::link(NodeAddr from, NodeAddr to) {
  FaultRule rule;
  rule.scope = Scope::kLink;
  rule.a = from;
  rule.b = to;
  return rule;
}

FaultRule FaultRule::node(NodeAddr n) {
  FaultRule rule;
  rule.scope = Scope::kNode;
  rule.a = n;
  return rule;
}

FaultRule& FaultRule::drop(double p) {
  dropProbability = clamp01(p);
  return *this;
}

FaultRule& FaultRule::duplicate(double p) {
  duplicateProbability = clamp01(p);
  return *this;
}

FaultRule& FaultRule::corrupt(double p) {
  corruptProbability = clamp01(p);
  return *this;
}

FaultRule& FaultRule::delay(SimTime spike, double probability) {
  delaySpike = spike;
  delaySpikeProbability = clamp01(probability);
  return *this;
}

bool FaultRule::matches(SimTime now, NodeAddr from, NodeAddr to) const {
  if (now < start || now >= end) return false;
  switch (scope) {
    case Scope::kGlobal:
      return true;
    case Scope::kLink:
      return from == a && to == b;
    case Scope::kNode:
      return from == a || to == a;
  }
  return false;
}

bool NetPartition::severs(SimTime now, NodeAddr from, NodeAddr to) const {
  if (now < start || now >= heal) return false;
  return island.count(from) != island.count(to);
}

FaultRule& FaultPlan::add(FaultRule rule) {
  rules_.push_back(rule);
  return rules_.back();
}

FaultRule& FaultPlan::at(SimTime t, FaultRule rule) {
  rule.start = t;
  rule.end = kFaultForever;
  return add(rule);
}

FaultRule& FaultPlan::between(SimTime t1, SimTime t2, FaultRule rule) {
  rule.start = t1;
  rule.end = t2;
  return add(rule);
}

NetPartition& FaultPlan::partition(std::string name, std::set<NodeAddr> island,
                                   SimTime start, SimTime heal) {
  partitions_.push_back(NetPartition{
      std::move(name), AddrSet(island.begin(), island.end()), start, heal});
  return partitions_.back();
}

bool FaultPlan::partitioned(SimTime now, NodeAddr from, NodeAddr to) const {
  for (const NetPartition& p : partitions_) {
    if (p.severs(now, from, to)) return true;
  }
  return false;
}

FaultPlan::Decision FaultPlan::decide(SimTime now, NodeAddr from, NodeAddr to,
                                      double baseLoss, util::Rng& rng) const {
  Decision d;
  if (partitioned(now, from, to)) {
    d.partitioned = true;
    d.copies = 0;
    return d;
  }

  // Fold all active matching rules into one effect set before drawing any
  // randomness, so the number of rng draws per message does not depend on
  // rule order.
  std::optional<double> dropOverride;
  double duplicateP = 0.0;
  double corruptP = 0.0;
  SimTime spike = 0;
  double spikeP = 0.0;
  for (const FaultRule& rule : rules_) {
    if (!rule.matches(now, from, to)) continue;
    if (rule.dropProbability) dropOverride = rule.dropProbability;
    duplicateP = std::max(duplicateP, rule.duplicateProbability);
    corruptP = std::max(corruptP, rule.corruptProbability);
    if (rule.delaySpike > 0) {
      spike += rule.delaySpike;
      spikeP = std::max(spikeP, rule.delaySpikeProbability);
    }
  }

  const double loss = dropOverride ? *dropOverride : baseLoss;
  if (loss > 0 && rng.chance(loss)) {
    d.copies = 0;
    if (dropOverride) {
      d.droppedByFault = true;
    } else {
      d.droppedByLoss = true;
    }
    return d;
  }
  if (duplicateP > 0 && rng.chance(duplicateP)) d.copies = 2;
  if (corruptP > 0 && rng.chance(corruptP)) d.corrupt = true;
  if (spike > 0 && spikeP > 0 && rng.chance(spikeP)) d.extraDelay = spike;
  return d;
}

void corruptPayload(Payload& payload, util::Rng& rng) {
  if (payload.empty()) return;
  util::Bytes bytes(payload.begin(), payload.end());
  // The draw order is part of the deterministic trace: the flip count, then
  // per flip the bit and then the index (C++17 evaluates a compound
  // assignment's right operand first).
  const std::size_t flips = 1 + static_cast<std::size_t>(rng.uniform(3));
  for (std::size_t f = 0; f < flips; ++f) {
    bytes[rng.uniform(bytes.size())] ^=
        static_cast<std::uint8_t>(1u << rng.uniform(8));
  }
  payload = Payload(std::move(bytes));
}

}  // namespace dosn::sim

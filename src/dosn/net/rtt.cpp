#include "dosn/net/rtt.hpp"

#include <algorithm>
#include <cmath>

namespace dosn::net {

void RttEstimator::addSample(sim::SimTime rtt) {
  const double r = static_cast<double>(rtt);
  if (samples_ == 0) {
    srtt_ = r;
    rttvar_ = r / 2.0;
  } else {
    // RFC 6298 §2.3: RTTVAR before SRTT, so the deviation is measured
    // against the pre-update smoothed estimate.
    rttvar_ = (1.0 - kBeta) * rttvar_ + kBeta * std::abs(srtt_ - r);
    srtt_ = (1.0 - kAlpha) * srtt_ + kAlpha * r;
  }
  ++samples_;
  consecutiveTimeouts_ = 0;
}

void RttEstimator::onTimeout() {
  // Saturate well before the backoff factor alone exceeds kMaxTimeout;
  // keeps the doubling finite.
  if (consecutiveTimeouts_ < 63) ++consecutiveTimeouts_;
}

sim::SimTime RttEstimator::timeout(sim::SimTime fallback) const {
  double base = samples_ > 0 ? srtt_ + kK * rttvar_
                             : static_cast<double>(fallback);
  base = std::ldexp(base, static_cast<int>(consecutiveTimeouts_));
  // The negated comparison also catches +inf/NaN.
  if (!(base < static_cast<double>(kMaxTimeout))) return kMaxTimeout;
  if (base < static_cast<double>(kMinTimeout)) return kMinTimeout;
  return static_cast<sim::SimTime>(base);
}

PeerStateTable::PeerState& PeerStateTable::state(sim::NodeAddr peer) {
  Entry& entry = peers_[peer];  // one probe: finds or inserts
  // Touch before evicting so a just-created entry can never be its own
  // eviction victim (unique monotonic touches keep eviction deterministic
  // regardless of the table's iteration order).
  entry.lastTouch = ++touchClock_;
  if (peers_.size() <= kMaxPeers) return entry.state;
  evictIfNeeded();
  // Eviction's backward-shift deletion may relocate surviving entries, so
  // the pre-eviction reference cannot be returned.
  return peers_.find(peer)->state;
}

const PeerStateTable::PeerState* PeerStateTable::find(sim::NodeAddr peer) const {
  const Entry* entry = peers_.find(peer);
  return entry ? &entry->state : nullptr;
}

bool PeerStateTable::erase(sim::NodeAddr peer) {
  return peers_.erase(peer);
}

std::size_t PeerStateTable::sampledPeers() const {
  std::size_t n = 0;
  peers_.forEach([&](sim::NodeAddr, const Entry& entry) {
    if (entry.state.rtt.hasSample()) ++n;
  });
  return n;
}

void PeerStateTable::evictIfNeeded() {
  while (peers_.size() > kMaxPeers) {
    sim::NodeAddr victim = sim::kNoAddr;
    std::uint64_t victimTouch = ~std::uint64_t{0};
    peers_.forEach([&](sim::NodeAddr addr, const Entry& entry) {
      if (entry.lastTouch < victimTouch) {
        victim = addr;
        victimTouch = entry.lastTouch;
      }
    });
    peers_.erase(victim);
  }
}

}  // namespace dosn::net

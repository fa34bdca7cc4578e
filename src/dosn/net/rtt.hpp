// Per-destination round-trip-time estimation for the shared RPC endpoint
// (net/rpc_endpoint.hpp), following the Jacobson/Karn algorithm with RFC 6298
// semantics:
//
//  - first valid sample R:        SRTT = R, RTTVAR = R/2
//  - subsequent valid samples:    RTTVAR = (1-beta)*RTTVAR + beta*|SRTT - R|
//                                 SRTT   = (1-alpha)*SRTT  + alpha*R
//    (RTTVAR updated before SRTT, exactly as the RFC orders the assignments)
//  - timeout = SRTT + k*RTTVAR, clamped to [kMinTimeout, kMaxTimeout]
//  - Karn's rule: a reply to a call that was retransmitted is ambiguous (it
//    may answer any attempt) and must never update the estimate — the
//    endpoint only feeds addSample() for calls answered on their first
//    attempt.
//  - exponential backoff: every consecutive timeout doubles the effective
//    timeout (still clamped to kMaxTimeout); the next valid sample collapses
//    the backoff. Because the backoff persists across calls to the same
//    destination, a peer whose true RTT exceeds the current estimate is
//    probed with geometrically growing timeouts until one attempt survives
//    unretransmitted and yields a Karn-valid sample — this is how the
//    estimator escapes the classic "RTO < RTT forever" trap.
//
// alpha = 1/8, beta = 1/4 and k = 4 are the RFC's values; the timeout is
// clamped to [50 ms, 10 s]. None of them is configurable.
//
// Before the first sample the estimator has no opinion: timeout(fallback)
// returns the caller-provided fixed timeout (backed off and clamped), so an
// adaptive call to an unknown peer behaves like a classic fixed-timeout call.
//
// PeerStateTable keys one RttEstimator plus one AdaptiveRetryPolicy per
// destination NodeAddr, so each peer earns its own timeout and retry budget
// (the call's own attempts are the budget's floor) instead of sharing
// fleet-global constants. The table is bounded: under churn, peers come and
// go forever, so entries are evicted least-recently-used once kMaxPeers is
// exceeded (eviction order is deterministic — a monotonic touch counter, no
// clocks). Storage is an open-addressing AddrMap (DESIGN.md §3d): the
// per-send state(peer) lookup is one hash and a short probe instead of a
// red-black-tree walk.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dosn/net/retry.hpp"
#include "dosn/sim/flat_map.hpp"
#include "dosn/sim/network.hpp"

namespace dosn::net {

class RttEstimator {
 public:
  static constexpr double kAlpha = 0.125;  // SRTT gain
  static constexpr double kBeta = 0.25;    // RTTVAR gain
  static constexpr double kK = 4.0;        // timeout = SRTT + k*RTTVAR
  static constexpr sim::SimTime kMinTimeout = 50 * sim::kMillisecond;
  static constexpr sim::SimTime kMaxTimeout = 10 * sim::kSecond;

  /// Feeds a Karn-valid sample (call answered without retransmission) and
  /// collapses any accumulated backoff.
  void addSample(sim::SimTime rtt);

  /// One timeout expired against this destination: backs off the timeout.
  void onTimeout();

  /// The adaptive timeout: SRTT + k*RTTVAR (or `fallback` before the first
  /// sample), doubled per consecutive timeout, clamped to [min, max].
  sim::SimTime timeout(sim::SimTime fallback) const;

  bool hasSample() const { return samples_ > 0; }
  std::size_t samples() const { return samples_; }
  /// Smoothed RTT / variance in microseconds (0 before the first sample).
  double srtt() const { return srtt_; }
  double rttvar() const { return rttvar_; }
  std::size_t consecutiveTimeouts() const { return consecutiveTimeouts_; }

 private:
  double srtt_ = 0.0;
  double rttvar_ = 0.0;
  std::size_t samples_ = 0;
  std::size_t consecutiveTimeouts_ = 0;
};

class PeerStateTable {
 public:
  struct PeerState {
    RttEstimator rtt;
    /// Sized from the timeout rate observed against *this peer*, not the
    /// fleet average.
    AdaptiveRetryPolicy retry;
  };

  /// LRU bound on tracked destinations (churny fleets meet new peers
  /// forever; estimator state for long-gone ones is dead weight).
  static constexpr std::size_t kMaxPeers = 1024;

  /// The state for `peer`, created on first use; touches the LRU order and
  /// may evict the least-recently-used other entry to stay within kMaxPeers.
  PeerState& state(sim::NodeAddr peer);

  /// Read-only lookup; nullptr if the peer is not tracked. Does not touch
  /// the LRU order.
  const PeerState* find(sim::NodeAddr peer) const;

  /// Drops a peer's state (e.g. on authoritative churn notice).
  bool erase(sim::NodeAddr peer);

  std::size_t size() const { return peers_.size(); }

  /// Destinations with at least one Karn-valid sample.
  std::size_t sampledPeers() const;

 private:
  struct Entry {
    PeerState state;
    std::uint64_t lastTouch = 0;
  };

  void evictIfNeeded();

  sim::AddrMap<Entry> peers_;
  std::uint64_t touchClock_ = 0;
};

}  // namespace dosn::net

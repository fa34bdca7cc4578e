// Retry policies for the shared RPC endpoint layer (net/rpc_endpoint.hpp).
//
// RetryPolicy: fixed retry-with-exponential-backoff. With jitterFraction = 0
// (the default) delays are closed-form functions of the attempt number, so
// retried runs stay bit-reproducible under the simulator's virtual clock.
// A nonzero jitterFraction scales each delay by a uniform factor drawn from
// the simulation rng — still deterministic per seed, but retransmissions of
// calls that timed out together decorrelate instead of re-colliding in
// synchronized retry storms.
//
// AdaptiveRetryPolicy: one destination's attempt budget for adaptive calls,
// sized from the per-attempt timeout rate observed against that destination
// (an EWMA over attempt outcomes the endpoint feeds it). The call's own
// RetryPolicy::attempts is the budget's floor.
#pragma once

#include <cmath>
#include <cstddef>

#include "dosn/sim/simulator.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::net {

struct RetryPolicy {
  /// Upper clamp on any single backoff delay. Keeps pathological attempt
  /// counts (or multipliers) from overflowing SimTime in the cast below.
  static constexpr sim::SimTime kMaxBackoff = 60 * sim::kSecond;

  /// Total send attempts per RPC; 1 means no retries (classic behavior).
  std::size_t attempts = 1;
  /// Backoff before the 2nd attempt; attempt n waits base * multiplier^(n-1).
  sim::SimTime backoffBase = 100 * sim::kMillisecond;
  double backoffMultiplier = 2.0;
  /// Fraction f in [0, 1): each backoff is scaled by a uniform factor in
  /// [1-f, 1+f] drawn from the rng passed to backoff(). 0 (the default)
  /// draws nothing, so existing fixed-seed runs stay byte-identical.
  double jitterFraction = 0.0;

  /// Backoff to wait after attempt `attempt` (1-based) times out.
  sim::SimTime backoff(std::size_t attempt) const {
    const double delay =
        static_cast<double>(backoffBase) *
        std::pow(backoffMultiplier, static_cast<double>(attempt - 1));
    // The negated comparison also catches NaN (e.g. 0 * inf) and +inf.
    if (!(delay < static_cast<double>(kMaxBackoff))) return kMaxBackoff;
    return static_cast<sim::SimTime>(delay);
  }

  /// As backoff(attempt), jittered. Consumes exactly one rng draw when
  /// jitterFraction > 0 and none otherwise — the zero-jitter path must not
  /// perturb the deterministic draw sequence of existing experiments.
  sim::SimTime backoff(std::size_t attempt, util::Rng& rng) const {
    const sim::SimTime flat = backoff(attempt);
    if (jitterFraction <= 0.0) return flat;
    const double scale =
        1.0 + jitterFraction * (2.0 * rng.uniformReal() - 1.0);
    const double jittered = static_cast<double>(flat) * scale;
    if (!(jittered < static_cast<double>(kMaxBackoff))) return kMaxBackoff;
    if (jittered <= 0.0) return 0;
    return static_cast<sim::SimTime>(jittered);
  }
};

/// Estimates the per-attempt timeout probability from the outcomes observed
/// against one destination and derives the smallest attempt budget whose
/// residual failure probability (rate^attempts) meets kTargetResidualFailure.
/// Deterministic: the estimate is a pure function of the observed outcome
/// sequence.
class AdaptiveRetryPolicy {
 public:
  /// Accepted give-up probability.
  static constexpr double kTargetResidualFailure = 0.01;
  /// EWMA weight of history per observed outcome.
  static constexpr double kDecay = 0.95;
  /// Budget ceiling; a floor above it is kept as it is.
  static constexpr std::size_t kMaxAttempts = 6;

  /// One attempt resolved: it either timed out or was answered.
  void observeAttempt(bool timedOut) {
    rate_ = kDecay * rate_ + (timedOut ? 1.0 - kDecay : 0.0);
  }

  /// EWMA of the per-attempt timeout probability (0 until first observation).
  double timeoutRate() const { return rate_; }

  /// Current budget: smallest n >= minAttempts (and >= 1) with
  /// timeoutRate()^n <= target, growing no further than kMaxAttempts.
  std::size_t attempts(std::size_t minAttempts) const {
    std::size_t n = minAttempts > 0 ? minAttempts : 1;
    if (rate_ > 0.0) {
      double residual = std::pow(rate_, static_cast<double>(n));
      while (n < kMaxAttempts && residual > kTargetResidualFailure) {
        ++n;
        residual *= rate_;
      }
    }
    return n;
  }

 private:
  double rate_ = 0.0;
};

}  // namespace dosn::net

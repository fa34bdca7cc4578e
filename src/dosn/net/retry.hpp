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
// AdaptiveRetryPolicy: sizes the retry budget from the observed per-attempt
// timeout rate (an EWMA over attempt outcomes the endpoint feeds it), picking
// the smallest budget whose residual failure probability meets a target.
#pragma once

#include <cmath>
#include <cstddef>

#include "dosn/sim/simulator.hpp"
#include "dosn/util/rng.hpp"

namespace dosn::net {

struct RetryPolicy {
  /// Total send attempts per RPC; 1 means no retries (classic behavior).
  std::size_t attempts = 1;
  /// Backoff before the 2nd attempt; attempt n waits base * multiplier^(n-1).
  sim::SimTime backoffBase = 100 * sim::kMillisecond;
  double backoffMultiplier = 2.0;
  /// Upper clamp on any single backoff delay. Keeps pathological attempt
  /// counts (or multipliers) from overflowing SimTime in the cast below.
  sim::SimTime maxBackoff = 60 * sim::kSecond;
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
    if (!(delay < static_cast<double>(maxBackoff))) return maxBackoff;
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
    if (!(jittered < static_cast<double>(maxBackoff))) return maxBackoff;
    if (jittered <= 0.0) return 0;
    return static_cast<sim::SimTime>(jittered);
  }
};

/// Estimates the per-attempt timeout probability from outcomes observed at an
/// RpcEndpoint and derives the smallest attempt budget whose residual failure
/// probability (rate^attempts) meets kTargetResidualFailure. Deterministic:
/// the estimate is a pure function of the observed outcome sequence.
class AdaptiveRetryPolicy {
 public:
  struct Config {
    RetryPolicy base;             // backoff shape + minimum attempts
    std::size_t maxAttempts = 6;  // budget ceiling
  };

  /// Accepted give-up probability.
  static constexpr double kTargetResidualFailure = 0.01;
  /// EWMA weight of history per observed outcome.
  static constexpr double kDecay = 0.95;

  AdaptiveRetryPolicy() = default;
  explicit AdaptiveRetryPolicy(Config config) : config_(config) {}

  /// One attempt resolved: it either timed out or was answered.
  void observeAttempt(bool timedOut) {
    rate_ = kDecay * rate_ + (timedOut ? 1.0 - kDecay : 0.0);
    ++observed_;
  }

  /// EWMA of the per-attempt timeout probability (0 until first observation).
  double timeoutRate() const { return rate_; }
  std::size_t observedAttempts() const { return observed_; }

  /// Current budget: smallest n with timeoutRate()^n <= target, clamped to
  /// [base.attempts, maxAttempts].
  std::size_t attempts() const {
    std::size_t n = config_.base.attempts > 0 ? config_.base.attempts : 1;
    if (rate_ > 0.0) {
      double residual = std::pow(rate_, static_cast<double>(n));
      while (n < config_.maxAttempts && residual > kTargetResidualFailure) {
        ++n;
        residual *= rate_;
      }
    }
    return n;
  }

  /// The base policy with the adaptive attempt budget substituted in.
  RetryPolicy current() const {
    RetryPolicy policy = config_.base;
    policy.attempts = attempts();
    return policy;
  }

 private:
  Config config_;
  double rate_ = 0.0;
  std::size_t observed_ = 0;
};

}  // namespace dosn::net

// Lightweight metrics for experiments: counters, last-value gauges and value
// histograms with percentile queries.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dosn::sim {

class Histogram {
 public:
  void record(double value);

  std::size_t count() const { return values_.size(); }
  // mean/min/max/percentile return quiet NaN on an empty histogram — a value
  // that cannot be mistaken for a measurement in a report (0.0 can).
  double mean() const;
  double min() const;
  double max() const;
  /// p in [0, 100]; linear interpolation between order statistics.
  double percentile(double p) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;

  void ensureSorted() const;
};

class Metrics {
 public:
  // Assignment would drop names that slots (counterSlot() and friends)
  // still point into.
  Metrics& operator=(const Metrics&) = delete;

  void increment(const std::string& name, std::uint64_t by = 1);
  std::uint64_t counter(const std::string& name) const;
  /// The counter's storage, created at zero if absent. Map nodes never move
  /// and no name is ever removed, so the reference stays valid for this
  /// Metrics' lifetime: a hot path resolves a name at its first bump and
  /// bumps through the reference afterwards.
  std::uint64_t& counterSlot(const std::string& name);

  /// Sets a last-value gauge (e.g. the current SRTT of an RTT estimator).
  void gauge(const std::string& name, double value);
  /// The gauge's storage, created at zero if absent; stable like
  /// counterSlot().
  double& gaugeSlot(const std::string& name);
  /// The gauge's last value, or quiet NaN if it was never set.
  double gaugeValue(const std::string& name) const;
  const std::map<std::string, double>& gauges() const { return gauges_; }

  /// The named histogram, created empty if absent; stable like
  /// counterSlot().
  Histogram& histogram(const std::string& name);
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  const std::map<std::string, std::uint64_t>& counters() const {
    return counters_;
  }

  /// Counters whose name starts with `prefix`, in name order — how the
  /// benches dump one RPC type's `rpc.<type>.*` family in one call.
  std::vector<std::pair<std::string, std::uint64_t>> countersWithPrefix(
      const std::string& prefix) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Dumps the shared RPC endpoint's uniform observability surface — every
/// `rpc.*` counter plus every `rpc.*` histogram (count/mean/p50/p99) — in
/// the fixed format bench_faults F1b established, so the benches that adopt
/// it print comparable trajectories.
void printRpcObservability(const Metrics& metrics, std::FILE* out = stdout);

}  // namespace dosn::sim

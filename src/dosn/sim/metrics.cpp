#include "dosn/sim/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace dosn::sim {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
}

void Histogram::record(double value) {
  values_.push_back(value);
  sorted_ = false;
}

void Histogram::ensureSorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Histogram::mean() const {
  if (values_.empty()) return kNaN;
  double sum = 0.0;
  for (double v : values_) sum += v;
  return sum / static_cast<double>(values_.size());
}

double Histogram::min() const {
  ensureSorted();
  return values_.empty() ? kNaN : values_.front();
}

double Histogram::max() const {
  ensureSorted();
  return values_.empty() ? kNaN : values_.back();
}

double Histogram::percentile(double p) const {
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: bad p");
  if (values_.empty()) return kNaN;
  ensureSorted();
  const double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

void Metrics::increment(const std::string& name, std::uint64_t by) {
  counterSlot(name) += by;
}

std::uint64_t& Metrics::counterSlot(const std::string& name) {
  return counters_[name];
}

std::uint64_t Metrics::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void Metrics::gauge(const std::string& name, double value) {
  gaugeSlot(name) = value;
}

double& Metrics::gaugeSlot(const std::string& name) { return gauges_[name]; }

double Metrics::gaugeValue(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? kNaN : it->second;
}

Histogram& Metrics::histogram(const std::string& name) {
  return histograms_[name];
}

std::vector<std::pair<std::string, std::uint64_t>> Metrics::countersWithPrefix(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  // counters_ is name-ordered, so the prefix range is contiguous.
  for (auto it = counters_.lower_bound(prefix); it != counters_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second);
  }
  return out;
}

void printRpcObservability(const Metrics& metrics, std::FILE* out) {
  std::fprintf(out, "%-24s %10s\n", "counter", "value");
  for (const auto& [name, value] : metrics.countersWithPrefix("rpc.")) {
    std::fprintf(out, "%-24s %10llu\n", name.c_str(),
                 static_cast<unsigned long long>(value));
  }
  std::fprintf(out, "\n%-24s %8s %8s %8s %8s\n", "rtt histogram", "count",
               "mean", "p50", "p99");
  for (const auto& [name, hist] : metrics.histograms()) {
    if (name.rfind("rpc.", 0) != 0) continue;
    std::fprintf(out, "%-24s %8zu %7.1fms %6.1fms %6.1fms\n", name.c_str(),
                 hist.count(), hist.mean(), hist.percentile(50),
                 hist.percentile(99));
  }
}

}  // namespace dosn::sim

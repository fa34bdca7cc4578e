// Rendering a replayed day: E19's per-phase table, the per-phase timeline
// with its failure taxonomy, and the percentile rule every printed
// latency uses.
#pragma once

#include <string>
#include <vector>

#include "dosn/benchkit/json.hpp"
#include "replay.hpp"

namespace perfbench {

/// p in [0, 100]: benchkit's interpolated percentile, as E19 reports it.
/// 0 for an empty sample.
double percentile(std::vector<double> values, double p);

/// Samples strictly above the order statistic the percentile interpolates
/// from — the "samples beyond it" a printed percentile must have ten of.
std::size_t samplesBeyond(std::size_t count, double p);

/// E19's printed table for one day.
std::string renderTable(const DayResult& day);

/// The per-phase timeline: E19's counters and visibility percentiles plus
/// the failure taxonomy (fetch_fail.head, fetch_fail.chain, publish_fail).
benchkit::Json timeline(const DayResult& day);

}  // namespace perfbench

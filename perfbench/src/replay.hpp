// One seeded E19 day, set up and replayed over the full stack exactly as
// bench/bench_dayinlife.cpp wires it: a WorkloadGenerator schedule drives
// MicroblogNodes over Kademlia with SocialPolicy placement, friend caches
// and HybridAcl(kIbbe), through the dawn-to-night phases with their flash
// crowds, revocation storms and evening churn + fault storm.
//
// The replay is an open loop on the sim clock: each scheduled event is
// applied at its scheduled sim time whatever has completed. On the wall
// clock it runs as fast as it can, on one thread.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "dosn/sim/simulator.hpp"
#include "trace.hpp"

namespace perfbench {

/// E19's fleet, the same in every workload: its users and the Kademlia
/// replica hosts they store on.
inline constexpr std::size_t kUsers = 20;
inline constexpr std::size_t kSubstrate = 48;

/// A named workload: E19's dayInLife model (hourScale 0.02) with the peak
/// post/fetch rates scaled and revocations added.
struct WorkloadSpec {
  std::string name;
  double postFactor = 1.0;           // scales the peak post rate
  double fetchFactor = 1.0;          // scales the peak fetch rate
  std::size_t extraRevocations = 0;  // added to each phase that revokes
  std::size_t days = 1;              // distinct seeded days per benchmark run
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* findWorkload(std::string_view name);

/// One row of E19's per-phase table, plus the failure taxonomy.
struct PhaseRow {
  std::string name;
  double level = 0;
  sim::SimTime duration = 0;
  std::uint64_t postsStarted = 0, postsOk = 0;
  std::uint64_t fetchesStarted = 0, fetchesOk = 0;
  std::uint64_t flashFetches = 0;
  std::uint64_t revokes = 0, reencrypted = 0;
  std::uint64_t undecryptable = 0;
  std::uint64_t visible = 0;
  std::vector<double> visibilityMs;
  std::map<std::string, std::uint64_t> counterDeltas;  // rpc.* / net.*
  // Failures, by the phase the operation was issued in.
  std::uint64_t fetchFailHead = 0;   // no valid signed head
  std::uint64_t fetchFailChain = 0;  // head valid, chain invalid
  std::uint64_t publishFail = 0;     // never durable by the end of the drain
};

struct DayResult {
  std::uint64_t seed = 0;
  std::uint64_t scheduleHash = 0;
  std::uint64_t eventsApplied = 0;
  std::uint64_t pendingAtEnd = 0;
  std::vector<PhaseRow> rows;

  // User-facing latencies on the sim clock, in ms.
  std::vector<double> fetchMs;    // fetchTimeline() -> verified callback
  std::vector<double> publishMs;  // publish() -> entry + covering head landed
  std::vector<double> visibleMs;  // publish -> first verified follower fetch

  /// Every deterministic count of the day, by metric name (per-layer counts
  /// and the bases of the ratios). Identical across replays of one seed.
  std::map<std::string, std::uint64_t> counts;

  /// Output-check failures; empty when the day's outputs are correct.
  std::vector<std::string> violations;

  // Wall clock.
  double setupMs = 0;   // everything before the first event
  double replayMs = 0;  // first event through the drain
  double genMs = 0;     // schedule generation (part of setup)
  std::array<double, kBucketCount> bucketMs{};  // traced replays only
  double fetchEventsMs = 0;                     // traced replays only

  /// Everything a replay of this seed must reproduce exactly: the E19
  /// table, the per-phase timeline, every count and every latency sample.
  std::string fingerprint() const;
};

/// The day seed of the i-th distinct day of a run at `seed` (day 0 is
/// `seed` itself, so E19's seed-42 day is day 0 of a run at seed 42).
std::uint64_t daySeed(std::uint64_t seed, std::size_t day);

enum class Mode {
  kSetupOnly,  // stop before the first event (set-up timing only)
  kUntraced,   // the replay the end-to-end metrics come from
  kTraced,     // every event timed and bucketed (the per-layer metrics)
};

DayResult runDay(const WorkloadSpec& spec, std::uint64_t seed, Mode mode);

}  // namespace perfbench

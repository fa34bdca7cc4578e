// perfbench: the repository benchmark. Replays a fixed set of seeded E19
// days of one workload, checks the outputs, and prints every metric by name
// with its unit; the last line of stdout is one JSON object with the keys
// correct, attempted, failed and metrics.
//
//   perfbench --workload day --seed 42 --seconds 45 --trace 0
//
// --trace 0 replays every day untraced (then replays more, round-robin,
// while --seconds lasts) and reports the end-to-end metrics. --trace 1
// replays the first half of the days untraced and then traced, and reports
// the per-layer metrics. See perfbench/README.md for the definitions.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "dosn/benchkit/json.hpp"
#include "replay.hpp"
#include "report.hpp"

using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

// A set-up is short next to a replay, so a brief stall of the shared host
// can double one timing of it. Every day is therefore set up this many
// extra times besides once per replay, and setup_s takes each day's fastest.
constexpr std::size_t kSetupRounds = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 45;
  bool trace = false;
  std::string artifact;
};

/// Every set-up and replay of one distinct day.
struct DaySlot {
  std::uint64_t seed = 0;
  DayResult first;  // the first replay: sim metrics, counts, checks
  std::string fingerprint;
  std::vector<double> setupMs;   // every set-up of this day
  std::vector<double> replayMs;  // untraced replays
  DayResult traced;  // the traced replay (--trace 1)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note = "";  // printed beside the value (sample counts, bases)
  bool gated = true;      // listed in BENCHMARK.json, printed in the result
};

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--artifact <path>]\n"
               "workloads:",
               error.c_str());
  for (const WorkloadSpec& spec : workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--artifact") {
        o.artifact = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  return o;
}

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50);
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::uint64_t total(const std::vector<DaySlot>& slots, const std::string& name) {
  std::uint64_t sum = 0;
  for (const DaySlot& slot : slots) {
    const auto it = slot.first.counts.find(name);
    if (it != slot.first.counts.end()) sum += it->second;
  }
  return sum;
}

std::uint64_t attemptedOps(const std::vector<DaySlot>& slots) {
  return total(slots, "app.fetch_calls") + total(slots, "app.publish_calls");
}

std::uint64_t failedOps(const std::vector<DaySlot>& slots) {
  return total(slots, "app.fetch_fail.head") +
         total(slots, "app.fetch_fail.chain") + total(slots, "app.publish_fail");
}

// E19's recorded outputs for its canonical day at seed 42.
void checkE19(const DayResult& day, std::vector<std::string>& violations) {
  std::uint64_t fetchesOk = 0, revokes = 0, reencrypted = 0;
  for (const PhaseRow& row : day.rows) {
    fetchesOk += row.fetchesOk;
    revokes += row.revokes;
    reencrypted += row.reencrypted;
  }
  const auto expect = [&violations](const char* what, std::uint64_t got,
                                    std::uint64_t want) {
    if (got == want) return;
    violations.push_back(std::string("E19 seed-42 day: ") + what + " " +
                         std::to_string(got) + ", expected " +
                         std::to_string(want));
  };
  expect("schedule hash", day.scheduleHash, 0x4c2db529ab1bcee1ull);
  expect("posts_ok", day.counts.at("e19.posts_ok"), 240);
  expect("fetches_ok", fetchesOk, 1676);
  expect("revokes", revokes, 8);
  expect("reencrypted_envelopes", reencrypted, 110);
}

// A latency's median and p95, each with its sample count. The p95 tails
// of fetch and publish vary too much from seed to seed to gate a change
// on; they are printed and kept in the artifact.
void latency(std::vector<Metric>& out, std::vector<std::string>& violations,
             const std::string& name, const std::vector<double>& samples) {
  const std::size_t n = samples.size();
  for (const int p : {50, 95}) {
    const std::string metric = name + "_p" + std::to_string(p) + "_ms";
    const std::size_t beyond = samplesBeyond(n, p);
    if (n < 200 || beyond < 10) {
      violations.push_back(metric + ": " + std::to_string(n) +
                           " samples, too few for the percentile");
    }
    out.push_back({metric, percentile(samples, p), "sim_ms",
                   "n=" + std::to_string(n) + ", " + std::to_string(beyond) +
                       " beyond",
                   p == 50 || name == "visible"});
  }
}

std::vector<Metric> endToEnd(const std::vector<DaySlot>& slots,
                             std::vector<std::string>& violations) {
  std::vector<double> fetch, publish, visible, eventsPerS, fastestSetupMs;
  std::uint64_t applied = 0;
  std::size_t setups = 0;
  for (const DaySlot& slot : slots) {
    const DayResult& d = slot.first;
    fetch.insert(fetch.end(), d.fetchMs.begin(), d.fetchMs.end());
    publish.insert(publish.end(), d.publishMs.begin(), d.publishMs.end());
    visible.insert(visible.end(), d.visibleMs.begin(), d.visibleMs.end());
    for (const double ms : slot.replayMs) {
      eventsPerS.push_back(static_cast<double>(d.eventsApplied) / (ms / 1000));
    }
    applied += d.eventsApplied;
    fastestSetupMs.push_back(
        *std::min_element(slot.setupMs.begin(), slot.setupMs.end()));
    setups += slot.setupMs.size();
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::vector<Metric> out;
  out.push_back({"ops_per_s", median(eventsPerS), "events/s",
                 "median of " + std::to_string(eventsPerS.size()) +
                     " replays, " + std::to_string(applied) + " events in " +
                     std::to_string(slots.size()) + " days"});
  out.push_back({"setup_s", median(fastestSetupMs) / 1000, "s",
                 "median over " + std::to_string(slots.size()) +
                     " days of each day's fastest set-up, " +
                     std::to_string(setups) + " set-ups"});
  out.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024,
                 "MiB"});
  latency(out, violations, "fetch", fetch);
  latency(out, violations, "publish", publish);
  latency(out, violations, "visible", visible);
  const std::uint64_t attempted = attemptedOps(slots);
  const std::uint64_t failed = failedOps(slots);
  // A few failures a day (mostly in the evening fault storm): too rare to
  // gate on, so printed with its base and split by cause per layer.
  out.push_back({"fail_pct", 100.0 * ratio(failed, attempted), "%",
                 std::to_string(failed) + " of " + std::to_string(attempted),
                 false});
  out.push_back({"net_kb_per_op",
                 static_cast<double>(total(slots, "sim.bytes_sent")) / 1024 /
                     static_cast<double>(applied),
                 "KiB/event"});
  return out;
}

// Groups of buckets whose share of the traced replay names the layer a
// workload is dominated by.
struct Share {
  const char* name;
  double ms;
};

std::vector<Metric> perLayer(const std::vector<DaySlot>& slots,
                             std::string& dominant) {
  std::vector<Metric> out;
  const auto count = [&](const std::string& name, const char* unit = "count") {
    out.push_back({name, static_cast<double>(total(slots, name)), unit});
  };
  const auto share = [&](const std::string& name, std::uint64_t num,
                         std::uint64_t den) {
    out.push_back({name, ratio(num, den), "ratio",
                   std::to_string(num) + " of " + std::to_string(den)});
  };
  const auto time = [&out](const std::string& name, double value) {
    out.push_back({name, value, "ms"});
  };

  std::array<double, kBucketCount> ms{};
  double replayMs = 0, fetchEventsMs = 0, genMs = 0, untracedMs = 0;
  for (const DaySlot& slot : slots) {
    const DayResult& t = slot.traced;
    for (std::size_t b = 0; b < kBucketCount; ++b) ms[b] += t.bucketMs[b];
    replayMs += t.replayMs;
    fetchEventsMs += t.fetchEventsMs;
    genMs += t.genMs;
    untracedMs += median(slot.replayMs);
  }
  const auto bucket = [&ms](Bucket b) { return ms[static_cast<std::size_t>(b)]; };

  count("privacy.decrypt_calls");
  time("privacy.decrypt_ms", bucket(Bucket::kDecrypt));
  count("privacy.decrypt_denied");
  share("privacy.decrypt_new_ratio", total(slots, "privacy.decrypt_new"),
        total(slots, "privacy.decrypt_calls"));

  const std::uint64_t verified = total(slots, "integrity.entries_verified");
  const std::uint64_t fresh = total(slots, "integrity.entries_new");
  count("integrity.entries_verified");
  share("integrity.new_entry_ratio", fresh, verified);
  share("integrity.reread_share", verified - fresh, verified);
  time("integrity.verify_ms", bucket(Bucket::kVerify));

  count("privacy.encrypt_calls");
  time("privacy.encrypt_ms", bucket(Bucket::kEncrypt));
  count("privacy.revoke_calls");
  time("privacy.revoke_ms", bucket(Bucket::kRevoke));
  count("privacy.reencrypted");
  count("privacy.rewritten_bytes", "bytes");
  count("privacy.key_ops");

  count("app.publish_calls");
  time("app.publish_ms", bucket(Bucket::kPublish));
  count("app.fetch_calls");
  time("app.fetch_start_ms", bucket(Bucket::kFetchStart));
  time("app.fetch_finish_ms", fetchEventsMs);
  count("app.fetch_fail.head");
  count("app.fetch_fail.chain");
  count("app.publish_fail");
  count("app.undecryptable");

  const std::uint64_t hits = total(slots, "app.cache_local_hits") +
                             total(slots, "app.cache_remote_hits");
  count("app.cache_local_hits");
  count("app.cache_remote_hits");
  count("app.cache_misses");
  count("app.cache_invalidations");
  count("app.cache_evictions");
  share("app.cache_hit_ratio", hits, hits + total(slots, "app.cache_misses"));

  count("overlay.lookups");
  count("overlay.hops");
  count("overlay.place_calls");
  time("overlay.place_ms", bucket(Bucket::kPlace));
  time("overlay.replica_ms", bucket(Bucket::kReplica));

  count("store.puts");
  count("store.gets");
  time("store.put_ms", bucket(Bucket::kStorePut));
  time("store.get_ms", bucket(Bucket::kStoreGet));
  out.push_back({"store.replicas_per_entry",
                 ratio(total(slots, "store.entry_copies"),
                       total(slots, "store.entries")),
                 "replicas",
                 std::to_string(total(slots, "store.entries")) + " entries"});

  for (const char* type : {"kad.find_node", "kad.find_value", "kad.store",
                           "mb.cache.get"}) {
    for (const char* event : {"sent", "retries", "timeouts", "failed"}) {
      count(std::string("net.rpc.") + type + "." + event);
    }
  }
  share("net.useful_ratio", total(slots, "net.rpc_completed"),
        total(slots, "net.rpc_sent"));

  count("sim.events");
  time("sim.dispatch_ms", bucket(Bucket::kDispatch));
  time("sim.schedule_ms", bucket(Bucket::kSchedule));
  count("sim.msgs_sent");
  count("sim.bytes_sent", "bytes");
  count("sim.dropped");

  count("workload.events");
  time("workload.gen_ms", genMs);

  time("bench.callback_ms", bucket(Bucket::kCallback));
  double named = 0;
  for (const double v : ms) named += v;
  time("trace.replay_ms", replayMs);
  out.push_back({"trace.coverage_pct", 100.0 * named / replayMs, "%",
                 "of the traced replay in named buckets"});
  out.push_back({"trace.overhead_pct", 100.0 * (replayMs / untracedMs - 1),
                 "%", "traced vs untraced replay"});

  const Share shares[] = {
      {"fetch completion", fetchEventsMs},
      {"revocation + publish", bucket(Bucket::kRevoke) +
                                   bucket(Bucket::kEncrypt) +
                                   bucket(Bucket::kPublish)},
      {"sim dispatch", bucket(Bucket::kDispatch)},
      {"placement", bucket(Bucket::kPlace)},
      {"replica store", bucket(Bucket::kReplica) + bucket(Bucket::kStorePut) +
                            bucket(Bucket::kStoreGet)},
      {"fetch start", bucket(Bucket::kFetchStart)},
      {"churn start/stop", bucket(Bucket::kSchedule)},
  };
  const Share* top = &shares[0];
  std::printf("\ntraced replay: %.1f ms, by layer group\n", replayMs);
  for (const Share& s : shares) {
    std::printf("  %-28s %9.1f ms  %5.1f%%\n", s.name, s.ms,
                100.0 * s.ms / replayMs);
    if (s.ms > top->ms) top = &s;
  }
  dominant = top->name;
  std::printf("  dominant: %s\n", top->name);
  return out;
}

void printMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("\n%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.4f %-10s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str(), m.gated ? "" : " (not gated)");
  }
}

benchkit::Json metricsJson(const std::vector<Metric>& metrics) {
  benchkit::Json out = benchkit::Json::object();
  for (const Metric& m : metrics) {
    if (!m.gated) continue;
    benchkit::Json entry = benchkit::Json::object();
    entry.set("value", m.value);
    entry.set("unit", m.unit);
    out.set(m.name, std::move(entry));
  }
  return out;
}

benchkit::Json numbers(const std::vector<double>& values) {
  benchkit::Json out = benchkit::Json::array();
  for (const double v : values) out.push(v);
  return out;
}

std::string failuresByPhase(const DayResult& day) {
  std::string out = "  failures by issue phase (fetch head/chain, publish):";
  for (const PhaseRow& row : day.rows) {
    out += " " + row.name + " " + std::to_string(row.fetchFailHead) + "/" +
           std::to_string(row.fetchFailChain) + "/" +
           std::to_string(row.publishFail);
  }
  return out + "\n";
}

void writeArtifact(const Options& opt, const WorkloadSpec& spec,
                   const std::vector<DaySlot>& slots,
                   const std::vector<Metric>& metrics,
                   const std::string& dominant,
                   const std::vector<std::string>& violations) {
  benchkit::Json doc = benchkit::Json::object();
  doc.set("workload", spec.name);
  doc.set("seed", opt.seed);
  doc.set("trace", opt.trace);
  if (!dominant.empty()) doc.set("dominant_layer", dominant);
  benchkit::Json all = benchkit::Json::object();
  for (const Metric& m : metrics) all.set(m.name, m.value);
  doc.set("metrics", std::move(all));
  benchkit::Json days = benchkit::Json::array();
  for (const DaySlot& slot : slots) {
    benchkit::Json day = benchkit::Json::object();
    // Day seeds use all 64 bits; a JSON number would round them.
    day.set("seed", std::to_string(slot.seed));
    day.set("schedule_hash", std::to_string(slot.first.scheduleHash));
    day.set("table", renderTable(slot.first));
    day.set("timeline", timeline(slot.first));
    benchkit::Json counts = benchkit::Json::object();
    for (const auto& [name, value] : slot.first.counts) counts.set(name, value);
    day.set("counts", std::move(counts));
    benchkit::Json samples = benchkit::Json::object();
    samples.set("fetch_ms", numbers(slot.first.fetchMs));
    samples.set("publish_ms", numbers(slot.first.publishMs));
    samples.set("visible_ms", numbers(slot.first.visibleMs));
    day.set("latency_samples", std::move(samples));
    day.set("setup_ms", numbers(slot.setupMs));
    day.set("replay_ms", numbers(slot.replayMs));
    if (opt.trace) day.set("traced_replay_ms", slot.traced.replayMs);
    days.push(std::move(day));
  }
  doc.set("days", std::move(days));
  benchkit::Json failures = benchkit::Json::array();
  for (const std::string& v : violations) failures.push(v);
  doc.set("violations", std::move(failures));
  std::ofstream(opt.artifact) << doc.dump(2) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const WorkloadSpec* spec = findWorkload(opt.workload);
  if (!spec) usage("unknown workload " + opt.workload);
  // A traced run replays every day twice (untraced, then traced), so it
  // takes the first half of the days to keep to a run's time.
  const std::size_t dayCount = opt.trace ? (spec->days + 1) / 2 : spec->days;

  std::printf("perfbench: workload %s, seed %llu, %zu days, %.0f s, trace %d\n",
              spec->name.c_str(), static_cast<unsigned long long>(opt.seed),
              dayCount, opt.seconds, opt.trace ? 1 : 0);

  std::vector<DaySlot> slots(dayCount);
  for (std::size_t i = 0; i < dayCount; ++i) slots[i].seed = daySeed(opt.seed, i);
  std::vector<std::string> violations;

  // The process's first set-up also builds the cached DLOG group; it is not
  // counted.
  runDay(*spec, slots[0].seed, Mode::kSetupOnly);
  for (std::size_t round = 0; round < kSetupRounds; ++round) {
    for (DaySlot& slot : slots) {
      slot.setupMs.push_back(runDay(*spec, slot.seed, Mode::kSetupOnly).setupMs);
    }
  }

  std::vector<double> lastMs(dayCount, 0);
  const auto replay = [&](std::size_t i, Mode mode) {
    DaySlot& slot = slots[i];
    const auto start = Clock::now();
    DayResult day = runDay(*spec, slot.seed, mode);
    lastMs[i] = secondsSince(start) * 1000;
    const bool traced = mode == Mode::kTraced;
    std::printf("replay seed %llu %s: set-up %.1f ms, replay %.1f ms\n",
                static_cast<unsigned long long>(slot.seed),
                traced ? "traced" : "untraced", day.setupMs, day.replayMs);
    slot.setupMs.push_back(day.setupMs);
    const std::string fingerprint = day.fingerprint();
    if (slot.fingerprint.empty()) {
      slot.fingerprint = fingerprint;
    } else if (fingerprint != slot.fingerprint) {
      violations.push_back("seed " + std::to_string(slot.seed) + ": a " +
                           (traced ? "traced" : "untraced") +
                           " replay diverged from the first");
    }
    if (traced) {
      slot.traced = std::move(day);
      return;
    }
    slot.replayMs.push_back(day.replayMs);
    if (slot.replayMs.size() == 1) slot.first = std::move(day);
  };

  // Every day once untraced, then once traced; untraced runs go on,
  // round-robin, while the budget lasts.
  const auto start = Clock::now();
  for (std::size_t i = 0; i < dayCount; ++i) replay(i, Mode::kUntraced);
  if (opt.trace) {
    for (std::size_t i = 0; i < dayCount; ++i) replay(i, Mode::kTraced);
  } else {
    for (std::size_t i = 0;; i = (i + 1) % dayCount) {
      if (secondsSince(start) + lastMs[i] / 1000 > opt.seconds) break;
      replay(i, Mode::kUntraced);
    }
  }
  const double measured = secondsSince(start);

  for (const DaySlot& slot : slots) {
    std::printf("\n%s%s", renderTable(slot.first).c_str(),
                failuresByPhase(slot.first).c_str());
    for (const std::string& v : slot.first.violations) violations.push_back(v);
  }
  if (spec->name == "day" && opt.seed == 42) checkE19(slots[0].first, violations);

  std::vector<Metric> metrics = endToEnd(slots, violations);
  printMetrics("end-to-end metrics", metrics);
  std::string dominant;
  if (opt.trace) {
    metrics = perLayer(slots, dominant);
    printMetrics("per-layer metrics", metrics);
  }

  std::size_t replays = 0;
  for (const DaySlot& slot : slots) replays += slot.replayMs.size();
  std::printf("\n%zu untraced%s replays of %zu days in %.1f s\n", replays,
              opt.trace ? " and traced" : "", dayCount, measured);
  if (violations.empty()) {
    std::printf("output checks: ok\n");
  } else {
    std::printf("output checks: %zu failed\n", violations.size());
    for (std::size_t i = 0; i < violations.size() && i < 20; ++i) {
      std::printf("  FAIL %s\n", violations[i].c_str());
    }
  }
  if (!opt.artifact.empty()) {
    writeArtifact(opt, *spec, slots, metrics, dominant, violations);
  }

  benchkit::Json result = benchkit::Json::object();
  result.set("correct", violations.empty());
  result.set("attempted", attemptedOps(slots));
  result.set("failed", failedOps(slots));
  result.set("metrics", metricsJson(metrics));
  std::printf("%s\n", result.dump().c_str());
  return violations.empty() ? 0 : 1;
}

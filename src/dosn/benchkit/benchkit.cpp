#include "dosn/benchkit/benchkit.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <regex>

#include "dosn/crypto/sha256.hpp"

// The build injects `git describe --always --dirty` (see src/CMakeLists.txt)
// so every trajectory file records the tree it was measured on.
#ifndef DOSN_GIT_DESCRIBE
#define DOSN_GIT_DESCRIBE "unknown"
#endif

namespace dosn::benchkit {

namespace {

std::string isoTimestampUtc() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string baseName(const char* argv0) {
  std::string name = argv0 ? argv0 : "bench";
  const std::size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name.empty() ? "bench" : name;
}

void printUsage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--list] [--filter <regex>] [--smoke] [--seed <n>]\n"
               "       [--reps <n>] [--warmup <n>] [--json <path>] [--help]\n"
               "\n"
               "  --list            print scenario names and exit\n"
               "  --filter <regex>  run only matching scenarios\n"
               "  --smoke           fast CI workloads, reps forced to 1\n"
               "  --seed <n>        base RNG seed (default 42)\n"
               "  --reps <n>        timed repetitions per scenario\n"
               "  --warmup <n>      untimed warmup runs per scenario\n"
               "  --json <path>     write the BENCH_*.json trajectory\n",
               argv0 ? argv0 : "bench");
}

bool parseUint(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = v;
  return true;
}

Json summarizeHistogram(const sim::Histogram& h) {
  Json out = Json::object();
  out.set("count", h.count());
  out.set("mean", h.mean());
  out.set("p50", h.percentile(50));
  out.set("p95", h.percentile(95));
  return out;
}

}  // namespace

double WallStats::percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

WallStats WallStats::fromSamples(std::vector<double> samplesMs) {
  WallStats stats;
  stats.reps = samplesMs.size();
  if (samplesMs.empty()) return stats;
  std::sort(samplesMs.begin(), samplesMs.end());
  stats.minMs = samplesMs.front();
  stats.maxMs = samplesMs.back();
  double sum = 0;
  for (const double v : samplesMs) sum += v;
  stats.meanMs = sum / static_cast<double>(samplesMs.size());
  stats.medianMs = percentile(samplesMs, 50);
  stats.p95Ms = percentile(samplesMs, 95);
  return stats;
}

void ScenarioContext::mergeMetrics(const sim::Metrics& other) {
  for (const auto& [name, value] : other.counters()) {
    metrics_.increment(name, value);
  }
  for (const auto& [name, value] : other.gauges()) {
    metrics_.gauge(name, value);
  }
  for (const auto& [name, histogram] : other.histograms()) {
    // sim::Histogram exposes no raw samples; carry the summary as gauges.
    if (histogram.count() == 0) continue;
    metrics_.gauge(name + ".count", static_cast<double>(histogram.count()));
    metrics_.gauge(name + ".mean", histogram.mean());
    metrics_.gauge(name + ".p50", histogram.percentile(50));
    metrics_.gauge(name + ".p95", histogram.percentile(95));
  }
}

void ScenarioContext::param(const std::string& name, double value) {
  params_.set(name, Json(value));
}

void ScenarioContext::param(const std::string& name, const std::string& value) {
  params_.set(name, Json(value));
}

void ScenarioContext::fail(const std::string& message) {
  failures_.push_back(message);
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

bool Registry::add(std::string name, ScenarioFn fn, Options opts) {
  for (const Scenario& s : scenarios_) {
    if (s.name == name) {
      std::fprintf(stderr, "benchkit: duplicate scenario '%s'\n", name.c_str());
      std::abort();
    }
  }
  scenarios_.push_back(Scenario{std::move(name), fn, opts});
  return true;
}

std::vector<std::size_t> Registry::match(const std::string& pattern) const {
  std::vector<std::size_t> out;
  if (pattern.empty()) {
    for (std::size_t i = 0; i < scenarios_.size(); ++i) out.push_back(i);
    return out;
  }
  const std::regex re(pattern);
  for (std::size_t i = 0; i < scenarios_.size(); ++i) {
    if (std::regex_search(scenarios_[i].name, re)) out.push_back(i);
  }
  return out;
}

CliResult parseCli(int argc, const char* const* argv, std::FILE* out,
                   std::FILE* err) {
  CliResult result;
  const char* argv0 = argc > 0 ? argv[0] : "bench";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    bool hasInlineValue = false;
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) == 0 && eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      hasInlineValue = true;
    }
    const auto takeValue = [&](const char* flag) -> bool {
      if (hasInlineValue) return true;
      if (i + 1 >= argc) {
        std::fprintf(err, "%s: %s requires a value\n", argv0, flag);
        return false;
      }
      value = argv[++i];
      return true;
    };
    if (arg == "--help" || arg == "-h") {
      printUsage(out, argv0);
      result.exitCode = 0;
      return result;
    } else if (arg == "--list") {
      result.config.list = true;
    } else if (arg == "--smoke") {
      result.config.smoke = true;
    } else if (arg == "--filter") {
      if (!takeValue("--filter")) {
        result.exitCode = 2;
        return result;
      }
      result.config.filter = value;
    } else if (arg == "--json") {
      if (!takeValue("--json")) {
        result.exitCode = 2;
        return result;
      }
      result.config.jsonPath = value;
    } else if (arg == "--seed" || arg == "--reps" || arg == "--warmup") {
      const std::string flag = arg;
      if (!takeValue(flag.c_str())) {
        result.exitCode = 2;
        return result;
      }
      std::uint64_t parsed = 0;
      if (!parseUint(value, &parsed)) {
        std::fprintf(err, "%s: %s expects a non-negative integer, got '%s'\n",
                     argv0, flag.c_str(), value.c_str());
        result.exitCode = 2;
        return result;
      }
      if (flag == "--seed") {
        result.config.seed = parsed;
      } else if (flag == "--reps") {
        result.config.repsOverride = static_cast<std::size_t>(parsed);
      } else {
        result.config.warmupOverride = static_cast<std::size_t>(parsed);
      }
    } else {
      std::fprintf(err, "%s: unrecognized argument '%s'\n", argv0, argv[i]);
      printUsage(err, argv0);
      result.exitCode = 2;
      return result;
    }
  }
  return result;
}

Json runScenarios(const Registry& registry, const RunConfig& config,
                  const std::string& benchName, bool* anyFailed) {
  Json doc = Json::object();
  doc.set("schema", kSchema);
  doc.set("bench", benchName);
  doc.set("git_describe", DOSN_GIT_DESCRIBE);
  // Wall times depend on the host's SHA-256 block function.
  doc.set("sha256_kernel", crypto::sha256Kernel());
  doc.set("timestamp", isoTimestampUtc());
  doc.set("smoke", config.smoke);
  doc.set("seed", config.seed);
  Json scenarios = Json::array();

  bool failed = false;
  for (const std::size_t index : registry.match(config.filter)) {
    const Scenario& scenario = registry.scenarios()[index];
    if (config.smoke && scenario.opts.skipInSmoke && !config.repsOverride) {
      continue;
    }
    std::size_t reps = config.repsOverride
                           ? *config.repsOverride
                           : (config.smoke ? 1 : scenario.opts.reps);
    if (reps == 0) reps = 1;
    const std::size_t warmup = config.warmupOverride
                                   ? *config.warmupOverride
                                   : (config.smoke ? 0 : scenario.opts.warmup);

    for (std::size_t w = 0; w < warmup; ++w) {
      ScenarioContext warmCtx(config.seed, config.smoke, /*printing=*/false);
      scenario.fn(warmCtx);
      failed |= warmCtx.failed();
    }

    ScenarioContext ctx(config.seed, config.smoke, /*printing=*/true);
    std::vector<double> samples;
    samples.reserve(reps);
    for (std::size_t r = 0; r < reps; ++r) {
      ctx.setPrinting(r == 0);
      Timer timer;
      scenario.fn(ctx);
      samples.push_back(timer.ms());
    }
    failed |= ctx.failed();
    const WallStats stats = WallStats::fromSamples(samples);

    std::printf(
        "  [%s] wall median %.3f ms (min %.3f, mean %.3f, p95 %.3f; reps=%zu"
        "%s%s)\n",
        scenario.name.c_str(), stats.medianMs, stats.minMs, stats.meanMs,
        stats.p95Ms, stats.reps, scenario.opts.hot ? ", hot" : "",
        ctx.failed() ? ", FAILED" : "");

    Json entry = Json::object();
    entry.set("name", scenario.name);
    entry.set("hot", scenario.opts.hot);
    entry.set("params", ctx.params());
    entry.set("reps", stats.reps);
    entry.set("warmup", warmup);
    Json wall = Json::object();
    wall.set("min", stats.minMs);
    wall.set("median", stats.medianMs);
    wall.set("mean", stats.meanMs);
    wall.set("p95", stats.p95Ms);
    wall.set("max", stats.maxMs);
    Json sampleArray = Json::array();
    for (const double s : samples) sampleArray.push(s);
    wall.set("samples", std::move(sampleArray));
    entry.set("wall_ms", std::move(wall));
    Json counters = Json::object();
    for (const auto& [name, value] : ctx.metrics().counters()) {
      counters.set(name, value);
    }
    entry.set("counters", std::move(counters));
    Json gauges = Json::object();
    for (const auto& [name, value] : ctx.metrics().gauges()) {
      gauges.set(name, value);
    }
    entry.set("gauges", std::move(gauges));
    Json histograms = Json::object();
    for (const auto& [name, histogram] : ctx.metrics().histograms()) {
      if (histogram.count() == 0) continue;
      histograms.set(name, summarizeHistogram(histogram));
    }
    entry.set("histograms", std::move(histograms));
    if (ctx.timeline()) entry.set("timeline", *ctx.timeline());
    if (ctx.failed()) {
      Json failures = Json::array();
      for (const auto& message : ctx.failures()) failures.push(message);
      entry.set("failures", std::move(failures));
    }
    scenarios.push(std::move(entry));
  }
  doc.set("scenarios", std::move(scenarios));
  if (anyFailed) *anyFailed = failed;
  return doc;
}

int benchMain(int argc, char** argv) {
  const CliResult cli = parseCli(argc, argv, stdout, stderr);
  if (cli.exitCode >= 0) return cli.exitCode;
  const Registry& registry = Registry::instance();

  std::vector<std::size_t> selected;
  try {
    selected = registry.match(cli.config.filter);
  } catch (const std::regex_error&) {
    std::fprintf(stderr, "%s: invalid --filter regex '%s'\n",
                 baseName(argv[0]).c_str(), cli.config.filter.c_str());
    return 2;
  }

  if (cli.config.list) {
    for (const std::size_t index : selected) {
      const Scenario& s = registry.scenarios()[index];
      std::printf("%s%s%s\n", s.name.c_str(), s.opts.hot ? "  [hot]" : "",
                  s.opts.skipInSmoke ? "  [skip-in-smoke]" : "");
    }
    return 0;
  }
  if (selected.empty()) {
    std::fprintf(stderr, "%s: no scenarios match '%s'\n",
                 baseName(argv[0]).c_str(), cli.config.filter.c_str());
    return 2;
  }

  bool failed = false;
  const Json doc =
      runScenarios(registry, cli.config, baseName(argv[0]), &failed);

  if (!cli.config.jsonPath.empty()) {
    const std::string text = doc.dump(2) + "\n";
    std::FILE* f = std::fopen(cli.config.jsonPath.c_str(), "w");
    bool written = f != nullptr;
    if (f) {
      written = std::fwrite(text.data(), 1, text.size(), f) == text.size();
      // fclose flushes the buffer, so a full device often fails only here.
      written = std::fclose(f) == 0 && written;
    }
    if (!written) {
      std::fprintf(stderr, "%s: cannot write %s\n", baseName(argv[0]).c_str(),
                   cli.config.jsonPath.c_str());
      return 2;
    }
  }
  return failed ? 1 : 0;
}

}  // namespace dosn::benchkit

// Unit tests for the shared benchmark harness (src/dosn/benchkit): scenario
// registry and --filter matching, wall-clock statistics on hand-computed
// samples, the exact JSON text bench_compare.py reads, the shared CLI's
// exit-code contract (a failed --json write included), and seed/smoke
// plumbing through runScenarios.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "dosn/benchkit/benchkit.hpp"
#include "dosn/benchkit/json.hpp"
#include "dosn/crypto/sha256.hpp"

using dosn::benchkit::CliResult;
using dosn::benchkit::Json;
using dosn::benchkit::Options;
using dosn::benchkit::Registry;
using dosn::benchkit::RunConfig;
using dosn::benchkit::ScenarioContext;
using dosn::benchkit::WallStats;

namespace {

void noop(ScenarioContext&) {}

TEST(Registry, MatchFiltersByEcmaRegex) {
  Registry registry;
  registry.add("e1_alpha", &noop);
  registry.add("e1_beta", &noop);
  registry.add("zz_gamma", &noop);

  EXPECT_EQ(registry.match("").size(), 3u);
  EXPECT_EQ(registry.match(""), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(registry.match("e1_"), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(registry.match("beta|gamma"), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(registry.match("^zz"), (std::vector<std::size_t>{2}));
  EXPECT_TRUE(registry.match("nothing").empty());
}

TEST(Registry, PreservesRegistrationOrderAndOptions) {
  Registry registry;
  registry.add("slow", &noop, Options{.reps = 5, .warmup = 2, .hot = true});
  registry.add("heavy", &noop, Options{.skipInSmoke = true});

  ASSERT_EQ(registry.scenarios().size(), 2u);
  EXPECT_EQ(registry.scenarios()[0].name, "slow");
  EXPECT_EQ(registry.scenarios()[0].opts.reps, 5u);
  EXPECT_EQ(registry.scenarios()[0].opts.warmup, 2u);
  EXPECT_TRUE(registry.scenarios()[0].opts.hot);
  EXPECT_FALSE(registry.scenarios()[0].opts.skipInSmoke);
  EXPECT_TRUE(registry.scenarios()[1].opts.skipInSmoke);
}

TEST(RegistryDeathTest, DuplicateNameAborts) {
  Registry registry;
  registry.add("once", &noop);
  EXPECT_DEATH(registry.add("once", &noop), "duplicate scenario");
}

TEST(WallStats, HandComputedSamples) {
  // Sorted: {1, 2, 3, 4}. Median interpolates between 2 and 3; p95 sits at
  // rank 0.95 * 3 = 2.85, i.e. 3 + 0.85 * (4 - 3).
  const WallStats stats = WallStats::fromSamples({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(stats.reps, 4u);
  EXPECT_DOUBLE_EQ(stats.minMs, 1.0);
  EXPECT_DOUBLE_EQ(stats.maxMs, 4.0);
  EXPECT_DOUBLE_EQ(stats.meanMs, 2.5);
  EXPECT_DOUBLE_EQ(stats.medianMs, 2.5);
  EXPECT_DOUBLE_EQ(stats.p95Ms, 3.85);
}

TEST(WallStats, SingleSampleAndEmpty) {
  const WallStats one = WallStats::fromSamples({7.5});
  EXPECT_EQ(one.reps, 1u);
  EXPECT_DOUBLE_EQ(one.minMs, 7.5);
  EXPECT_DOUBLE_EQ(one.medianMs, 7.5);
  EXPECT_DOUBLE_EQ(one.p95Ms, 7.5);
  EXPECT_DOUBLE_EQ(one.maxMs, 7.5);

  const WallStats none = WallStats::fromSamples({});
  EXPECT_EQ(none.reps, 0u);
  EXPECT_DOUBLE_EQ(none.medianMs, 0.0);
}

TEST(WallStats, PercentileInterpolatesLikeHistogram) {
  const std::vector<double> sorted{10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(WallStats::percentile(sorted, 0), 10.0);
  EXPECT_DOUBLE_EQ(WallStats::percentile(sorted, 50), 20.0);
  EXPECT_DOUBLE_EQ(WallStats::percentile(sorted, 75), 25.0);
  EXPECT_DOUBLE_EQ(WallStats::percentile(sorted, 100), 30.0);
  EXPECT_DOUBLE_EQ(WallStats::percentile({}, 50), 0.0);
}

TEST(JsonTest, RoundTripPreservesStructure) {
  Json doc = Json::object();
  doc.set("schema", "dosn-bench/1");
  doc.set("count", std::uint64_t{12345});
  doc.set("ratio", 0.125);
  doc.set("negative", -42.5);
  doc.set("flag", true);
  doc.set("nothing", Json());
  doc.set("escaped", std::string("line\nquote\"back\\slash\ttab\x01"));
  doc.set("empty", Json::array());
  Json arr = Json::array();
  arr.push(1.0);
  arr.push("two");
  Json nested = Json::object();
  nested.set("deep", 3.5);
  arr.push(std::move(nested));
  doc.set("items", std::move(arr));

  // Integers print without ".0", control characters as \u00XX, and an empty
  // array as [] at every indent.
  EXPECT_EQ(doc.dump(0),
            R"({"schema":"dosn-bench/1","count":12345,"ratio":0.125,)"
            R"("negative":-42.5,"flag":true,"nothing":null,)"
            R"("escaped":"line\nquote\"back\\slash\ttab\u0001",)"
            R"("empty":[],"items":[1,"two",{"deep":3.5}]})");
  EXPECT_EQ(doc.dump(2), R"({
  "schema": "dosn-bench/1",
  "count": 12345,
  "ratio": 0.125,
  "negative": -42.5,
  "flag": true,
  "nothing": null,
  "escaped": "line\nquote\"back\\slash\ttab\u0001",
  "empty": [],
  "items": [
    1,
    "two",
    {
      "deep": 3.5
    }
  ]
})");
}

TEST(JsonTest, ObjectsPreserveInsertionOrderAndSetReplacesInPlace) {
  Json doc = Json::object();
  doc.set("zebra", 1.0);
  doc.set("apple", 2.0);
  doc.set("zebra", 3.0);  // replaced in place, keeps first position
  ASSERT_EQ(doc.size(), 2u);
  EXPECT_EQ(doc.items()[0].first, "zebra");
  EXPECT_DOUBLE_EQ(doc.items()[0].second.asNumber(), 3.0);
  EXPECT_EQ(doc.items()[1].first, "apple");
  ASSERT_NE(doc.find("apple"), nullptr);
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNull) {
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).dump(), "null");
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null");
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).dump(), "null");
}

CliResult parseArgs(const std::vector<const char*>& args) {
  std::FILE* sink = std::tmpfile();
  const CliResult result = dosn::benchkit::parseCli(
      static_cast<int>(args.size()), args.data(), sink, sink);
  std::fclose(sink);
  return result;
}

TEST(Cli, HelpExitsZeroUnknownFlagExitsTwo) {
  EXPECT_EQ(parseArgs({"bench", "--help"}).exitCode, 0);
  EXPECT_EQ(parseArgs({"bench", "-h"}).exitCode, 0);
  EXPECT_EQ(parseArgs({"bench", "--no-such-flag"}).exitCode, 2);
  EXPECT_EQ(parseArgs({"bench", "extra"}).exitCode, 2);
  EXPECT_EQ(parseArgs({"bench", "--seed"}).exitCode, 2);       // missing value
  EXPECT_EQ(parseArgs({"bench", "--seed", "x"}).exitCode, 2);  // not a number
}

TEST(Cli, ParsesFlagsInBothForms) {
  const CliResult spaced = parseArgs(
      {"bench", "--smoke", "--seed", "7", "--filter", "e1", "--reps", "3"});
  EXPECT_EQ(spaced.exitCode, -1);
  EXPECT_TRUE(spaced.config.smoke);
  EXPECT_EQ(spaced.config.seed, 7u);
  EXPECT_EQ(spaced.config.filter, "e1");
  ASSERT_TRUE(spaced.config.repsOverride.has_value());
  EXPECT_EQ(*spaced.config.repsOverride, 3u);
  EXPECT_FALSE(spaced.config.warmupOverride.has_value());

  const CliResult inlined = parseArgs(
      {"bench", "--seed=9", "--json=out.json", "--warmup=2", "--list"});
  EXPECT_EQ(inlined.exitCode, -1);
  EXPECT_EQ(inlined.config.seed, 9u);
  EXPECT_EQ(inlined.config.jsonPath, "out.json");
  ASSERT_TRUE(inlined.config.warmupOverride.has_value());
  EXPECT_EQ(*inlined.config.warmupOverride, 2u);
  EXPECT_TRUE(inlined.config.list);
}

TEST(Cli, DefaultsMatchHistoricalBehavior) {
  const CliResult bare = parseArgs({"bench"});
  EXPECT_EQ(bare.exitCode, -1);
  EXPECT_EQ(bare.config.seed, 42u);
  EXPECT_FALSE(bare.config.smoke);
  EXPECT_TRUE(bare.config.filter.empty());
  EXPECT_TRUE(bare.config.jsonPath.empty());
}

// benchMain runs the process-wide registry, so the probe registers there once.
int runBenchMain(const std::string& jsonPath) {
  static const bool registered =
      Registry::instance().add("json_write_probe", &noop);
  EXPECT_TRUE(registered);
  std::string name = "test_benchkit";
  std::string filter = "--filter=^json_write_probe$";
  std::string json = "--json=" + jsonPath;
  char* argv[] = {name.data(), filter.data(), json.data()};
  return dosn::benchkit::benchMain(3, argv);
}

TEST(BenchMain, JsonWriteFailureExitsTwo) {
  const std::string path = ::testing::TempDir() + "benchmain_probe.json";
  EXPECT_EQ(runBenchMain(path), 0);
  std::remove(path.c_str());
  // /dev/full accepts the open and the buffered write; the flush in fclose
  // fails with ENOSPC.
  EXPECT_EQ(runBenchMain("/dev/full"), 2);
}

// runScenarios probes: plain function pointers, so state lives in globals.
std::uint64_t gSeenSeed = 0;
int gProbeCalls = 0;
int gHeavyCalls = 0;

void seedProbe(ScenarioContext& ctx) {
  gSeenSeed = ctx.seed();
  ++gProbeCalls;
  ctx.counter("calls", 1);
  ctx.param("seed_param", static_cast<double>(ctx.seed()));
}

void heavyProbe(ScenarioContext&) { ++gHeavyCalls; }

void failingProbe(ScenarioContext& ctx) { ctx.fail("boom"); }

TEST(RunScenarios, PlumbsSeedAndEmitsDocument) {
  Registry registry;
  registry.add("probe", &seedProbe, Options{.hot = true});
  gSeenSeed = 0;
  gProbeCalls = 0;

  RunConfig config;
  config.seed = 7;
  bool failed = true;
  const Json doc = dosn::benchkit::runScenarios(registry, config, "test_bench",
                                                &failed);
  EXPECT_FALSE(failed);
  EXPECT_EQ(gSeenSeed, 7u);
  EXPECT_EQ(gProbeCalls, 1);

  EXPECT_EQ(doc.find("schema")->asString(), "dosn-bench/1");
  EXPECT_EQ(doc.find("bench")->asString(), "test_bench");
  EXPECT_DOUBLE_EQ(doc.find("seed")->asNumber(), 7.0);
  // Which SHA-256 block function the host ran, so wall times from hosts
  // with and without SHA extensions are told apart.
  ASSERT_NE(doc.find("sha256_kernel"), nullptr);
  const std::string kernel = doc.find("sha256_kernel")->asString();
  EXPECT_TRUE(kernel == "sha-ni" || kernel == "portable") << kernel;
  EXPECT_EQ(kernel, dosn::crypto::sha256Kernel());
  const Json* scenarios = doc.find("scenarios");
  ASSERT_NE(scenarios, nullptr);
  ASSERT_EQ(scenarios->size(), 1u);
  const Json& entry = scenarios->at(0);
  EXPECT_EQ(entry.find("name")->asString(), "probe");
  EXPECT_TRUE(entry.find("hot")->asBool());
  EXPECT_DOUBLE_EQ(entry.find("counters")->find("calls")->asNumber(), 1.0);
  EXPECT_DOUBLE_EQ(entry.find("params")->find("seed_param")->asNumber(), 7.0);
  const Json* wall = entry.find("wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_GE(wall->find("median")->asNumber(), 0.0);
  EXPECT_EQ(wall->find("samples")->size(), 1u);
  EXPECT_EQ(entry.find("failures"), nullptr);
}

TEST(RunScenarios, SmokeSkipsHeavyAndRepsOverrideReruns) {
  Registry registry;
  registry.add("probe", &seedProbe);
  registry.add("heavy", &heavyProbe, Options{.skipInSmoke = true});
  gProbeCalls = 0;
  gHeavyCalls = 0;

  RunConfig smoke;
  smoke.smoke = true;
  const Json doc = dosn::benchkit::runScenarios(registry, smoke, "t");
  EXPECT_EQ(gProbeCalls, 1);
  EXPECT_EQ(gHeavyCalls, 0);
  EXPECT_EQ(doc.find("scenarios")->size(), 1u);

  gProbeCalls = 0;
  gHeavyCalls = 0;
  RunConfig reps;
  reps.repsOverride = 3;
  reps.filter = "probe";
  const Json doc2 = dosn::benchkit::runScenarios(registry, reps, "t");
  EXPECT_EQ(gProbeCalls, 3);
  EXPECT_EQ(gHeavyCalls, 0);  // filtered out, not skipped
  const Json& entry = doc2.find("scenarios")->at(0);
  EXPECT_DOUBLE_EQ(entry.find("reps")->asNumber(), 3.0);
  EXPECT_EQ(entry.find("wall_ms")->find("samples")->size(), 3u);
  // The counter accumulated across reps in one context.
  EXPECT_DOUBLE_EQ(entry.find("counters")->find("calls")->asNumber(), 3.0);
}

TEST(RunScenarios, FailureIsReportedAndRecorded) {
  Registry registry;
  registry.add("bad", &failingProbe);

  RunConfig config;
  bool failed = false;
  const Json doc = dosn::benchkit::runScenarios(registry, config, "t", &failed);
  EXPECT_TRUE(failed);
  const Json& entry = doc.find("scenarios")->at(0);
  const Json* failures = entry.find("failures");
  ASSERT_NE(failures, nullptr);
  ASSERT_EQ(failures->size(), 1u);
  EXPECT_EQ(failures->at(0).asString(), "boom");
}

}  // namespace

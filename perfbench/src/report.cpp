#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "dosn/benchkit/benchkit.hpp"

namespace perfbench {

namespace {

using sim::kSecond;

std::string format(const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return benchkit::WallStats::percentile(values, p);
}

std::size_t samplesBeyond(std::size_t count, double p) {
  if (count == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  return count - 1 - static_cast<std::size_t>(std::ceil(rank));
}

std::string renderTable(const DayResult& day) {
  sim::SimTime length = 0;
  for (const PhaseRow& row : day.rows) length += row.duration;
  std::string out = format(
      "E19 day-in-the-life: %zu users + %zu replica hosts "
      "(%zu nodes total),\n",
      kUsers, kSubstrate, kUsers + kSubstrate);
  out += format(
      "%llu scheduled events over a %.0f sim-second day "
      "(seed %llu, schedule hash %016llx)\n\n",
      static_cast<unsigned long long>(day.eventsApplied),
      static_cast<double>(length) / kSecond,
      static_cast<unsigned long long>(day.seed),
      static_cast<unsigned long long>(day.scheduleHash));
  out += format("  %-19s %5s %9s %11s %7s %7s %7s %24s\n", "phase", "level",
                "posts", "fetches", "flash", "revoke", "reenc",
                "visibility p50/p95/p99 (s)");
  for (const PhaseRow& row : day.rows) {
    out += format(
        "  %-19s %5.2f %4llu/%-4llu %5llu/%-5llu %7llu %7llu %7llu"
        "   %7.1f %7.1f %7.1f\n",
        row.name.c_str(), row.level,
        static_cast<unsigned long long>(row.postsOk),
        static_cast<unsigned long long>(row.postsStarted),
        static_cast<unsigned long long>(row.fetchesOk),
        static_cast<unsigned long long>(row.fetchesStarted),
        static_cast<unsigned long long>(row.flashFetches),
        static_cast<unsigned long long>(row.revokes),
        static_cast<unsigned long long>(row.reencrypted),
        percentile(row.visibilityMs, 50) / 1000,
        percentile(row.visibilityMs, 95) / 1000,
        percentile(row.visibilityMs, 99) / 1000);
  }
  return out;
}

benchkit::Json timeline(const DayResult& day) {
  benchkit::Json phases = benchkit::Json::array();
  for (const PhaseRow& row : day.rows) {
    benchkit::Json counters = benchkit::Json::object();
    counters.set("posts_started", row.postsStarted);
    counters.set("posts_ok", row.postsOk);
    counters.set("fetches_started", row.fetchesStarted);
    counters.set("fetches_ok", row.fetchesOk);
    counters.set("flash_fetches", row.flashFetches);
    counters.set("revokes", row.revokes);
    counters.set("reencrypted_envelopes", row.reencrypted);
    counters.set("undecryptable", row.undecryptable);
    counters.set("visible_posts", row.visible);
    counters.set("app.fetch_fail.head", row.fetchFailHead);
    counters.set("app.fetch_fail.chain", row.fetchFailChain);
    counters.set("app.publish_fail", row.publishFail);
    for (const auto& [name, value] : row.counterDeltas) {
      counters.set(name, value);
    }
    benchkit::Json params = benchkit::Json::object();
    params.set("activity_level", row.level);
    params.set("duration_s", static_cast<double>(row.duration) / kSecond);
    params.set("visibility_p50_ms", percentile(row.visibilityMs, 50));
    params.set("visibility_p95_ms", percentile(row.visibilityMs, 95));
    params.set("visibility_p99_ms", percentile(row.visibilityMs, 99));
    benchkit::Json phase = benchkit::Json::object();
    phase.set("name", row.name);
    phase.set("counters", std::move(counters));
    phase.set("params", std::move(params));
    phases.push(std::move(phase));
  }
  return phases;
}

std::string DayResult::fingerprint() const {
  std::string out = format("seed %llu hash %016llx applied %llu pending %llu\n",
                           static_cast<unsigned long long>(seed),
                           static_cast<unsigned long long>(scheduleHash),
                           static_cast<unsigned long long>(eventsApplied),
                           static_cast<unsigned long long>(pendingAtEnd));
  out += timeline(*this).dump() + '\n';
  for (const auto& [name, value] : counts) {
    out += name + "=" + std::to_string(value) + '\n';
  }
  for (const auto* samples : {&fetchMs, &publishMs, &visibleMs}) {
    for (const double v : *samples) out += format("%.17g ", v);
    out += '\n';
  }
  return out;
}

}  // namespace perfbench

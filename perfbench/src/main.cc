// twimob benchmark program.
//
//   twimob_perfbench --workload analyze|serve|live --seed N --seconds S
//                    --trace 0|1 --out DIR
//
// Set-up (timed as setup_s from process start): generate the seeded
// corpus, write it as a dataset, open a SnapshotCatalog on it. Then the
// three phases run in a fixed order (analyze, serve, live — live last
// because it appends to the dataset); the workload's subject phase runs
// warm for S seconds, the others run a fixed probe. Output checks run
// outside every timed region; the population answers are checked after
// peak_rss_mb is read, so the oracle's copy of the rows is not in it. The
// last stdout line is the result object: end-to-end metrics untraced,
// per-layer metrics traced.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out = ".bench_run";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !kv.count("--workload") || !kv.count("--seed") ||
      !kv.count("--seconds") || !kv.count("--trace")) {
    return false;
  }
  args->workload = kv["--workload"];
  args->seed = std::strtoull(kv["--seed"].c_str(), nullptr, 10);
  args->seconds = std::strtod(kv["--seconds"].c_str(), nullptr);
  args->trace = kv["--trace"] == "1";
  if (kv.count("--out")) args->out = kv["--out"];
  return args->seconds > 0.0 &&
         (args->workload == "analyze" || args->workload == "serve" ||
          args->workload == "live");
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"analyze_s", "s"},
    {"query_qps", "queries/s"},
    {"population_p50_us", "us"},
    {"whatif_sweep_s", "s"},
    {"append_rows_per_s", "rows/s"},
    {"refresh_s", "s"},
    {"refresh_bulk_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics: span medians (unit from the name's suffix) or
/// counter medians.
constexpr MetricSpec kPerLayer[] = {
    {"synth.generate_s", "s"},
    {"serve.catalog_open_s", "s"},
    {"tweetdb.read_s", "s"},
    {"tweetdb.map_open_s", "s"},
    {"tweetdb.append_batch_ms", "ms"},
    {"tweetdb.append_bulk_ms", "ms"},
    {"tweetdb.compact_s", "s"},
    {"tweetdb.compact_bytes_written", "bytes"},
    {"core.compact_s", "s"},
    {"core.index_build_s", "s"},
    {"core.population_s", "s"},
    {"mobility.trips_national_s", "s"},
    {"mobility.trips_state_s", "s"},
    {"mobility.trips_metropolitan_s", "s"},
    {"core.fit_s", "s"},
    {"core.rows_scanned", "count"},
    {"core.analyze_cpu_s", "s"},
    {"core.analyze_efficiency", "ratio"},
    {"core.count_unique_users_us", "us"},
    {"core.count_tweets_us", "us"},
    {"serve.population_us", "us"},
    {"serve.population_p99_us", "us"},
    {"serve.live_population_p99_us", "us"},
    {"serve.point_batch_us", "us"},
    {"serve.od_flow_us", "us"},
    {"serve.predict_us", "us"},
    {"serve.whatif_hit_us", "us"},
    {"epi.sweep_s", "s"},
    {"epi.scenarios_per_s", "scenarios/s"},
    {"common.pool_spawn_us", "us"},
};

double PerLayerValue(const Tracer& tracer, const std::string& name) {
  const Samples counter = tracer.Counter(name);
  if (!counter.empty()) return counter.Median();
  const Samples spans = tracer.Durations(name);
  const double median = spans.Median();
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_us") == 0) return median * 1e6;
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) return median * 1e3;
  return median;
}

std::string Number(double v) {
  std::ostringstream out;
  out.precision(10);
  out << v;
  return out.str();
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream(path) << text;
}

int Run(const Args& args) {
  const std::string tag = args.workload + "-seed" + std::to_string(args.seed) +
                          "-trace" + (args.trace ? "1" : "0");
  Bench bench(args.seed, args.seconds, args.trace, args.out + "/data-" + tag);
  if (!Setup(bench)) return 1;
  bench.metrics["setup_s"] = SecondsSince(kProcessStart);
  std::fprintf(stderr, "[perfbench] set-up %.2f s\n", bench.metrics["setup_s"]);

  const Clock::time_point oracle_start = Clock::now();
  PrepareOracles(bench);
  std::fprintf(stderr, "[perfbench] %zu rows; base checks %.2f s; peak RSS %.1f MB\n",
               bench.base_rows, SecondsSince(oracle_start), PeakRssMb());
  const std::pair<const char*, std::function<void(Bench&, Mode)>> phases[] = {
      {"analyze", RunAnalyze}, {"serve", RunServe}, {"live", RunLive}};
  for (const auto& [name, run] : phases) {
    const Clock::time_point t0 = Clock::now();
    run(bench, args.workload == name ? Mode::kSubject : Mode::kProbe);
    std::fprintf(stderr, "[perfbench] %s phase %.2f s\n", name, SecondsSince(t0));
  }
  bench.metrics["peak_rss_mb"] = PeakRssMb();
  const Clock::time_point deferred_start = Clock::now();
  CheckDeferred(bench);
  std::fprintf(stderr, "[perfbench] %zu deferred population checks %.2f s\n",
               bench.deferred.size(), SecondsSince(deferred_start));
  // Every end-to-end metric is a positive measurement; one that a failed
  // phase left unset fails the run instead of reading as 0.
  for (const MetricSpec& m : kEndToEnd) {
    const auto it = bench.metrics.find(m.name);
    if (it == bench.metrics.end() || !(it->second > 0.0) || !std::isfinite(it->second)) {
      bench.Check(std::string("end-to-end metric ") + m.name + " was not measured");
    }
  }
  bench.catalog.reset();
  std::error_code ec;
  std::filesystem::remove_all(bench.data_dir, ec);

  if (!bench.first_failure.empty()) {
    std::fprintf(stderr, "[perfbench] first failed operation: %s\n",
                 bench.first_failure.c_str());
  }
  if (!bench.check_error.empty()) {
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", bench.check_error.c_str());
  }

  std::ostringstream metrics;
  bool first = true;
  auto emit = [&](const char* name, const char* unit, double value) {
    metrics << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
            << Number(value) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (args.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m.name, m.unit, PerLayerValue(bench.tracer, m.name));
    std::ostringstream e2e;
    for (const MetricSpec& m : kEndToEnd) {
      e2e << (&m == kEndToEnd ? "" : ", ") << "\"" << m.name << "\": "
          << Number(bench.metrics[m.name]);
    }
    // The per-layer breakdown and the spans, next to the run's result.
    WriteFile(args.out + "/" + tag + ".layers.json",
              "{\"end_to_end_traced\": {" + e2e.str() + "}, \"breakdown\": " +
                  bench.tracer.BreakdownJson() + "}\n");
    WriteFile(args.out + "/" + tag + ".spans.json", bench.tracer.SpansJson());
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m.name, m.unit, bench.metrics[m.name]);
  }
  const std::string result =
      "{\"correct\": " + std::string(bench.check_error.empty() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(bench.attempted) +
      ", \"failed\": " + std::to_string(bench.failed) + ", \"metrics\": {" +
      metrics.str() + "}}";
  WriteFile(args.out + "/" + tag + ".result.json", result + "\n");
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload analyze|serve|live --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}

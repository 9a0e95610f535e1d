// The analyze phase: the paper's batch pipeline, repeated. Each iteration
// opens the stored corpus (ReadDatasetFiles) and builds a full
// AnalysisSnapshot on a freshly spawned pool, as the catalog does per load.
// A fresh pool per iteration also re-draws the workers' CPU placement, so
// the median averages over placements instead of inheriting one.

#include <cstdio>
#include <optional>

#include "bench.h"
#include "core/analysis_snapshot.h"
#include "core/stage_engine.h"
#include "mobility/trip_extractor.h"
#include "tweetdb/binary_codec.h"

namespace perfbench {

namespace tw = twimob;

namespace {

/// Span names of ExtractTripsDataset per scale, in paper order.
constexpr const char* kTripSpans[] = {"mobility.trips_national_s",
                                      "mobility.trips_state_s",
                                      "mobility.trips_metropolitan_s"};

/// One open + Analyze. Returns the snapshot, or nullopt after recording a
/// failed operation.
std::optional<tw::core::AnalysisSnapshot> OpenAndAnalyze(Bench& bench,
                                                         size_t workers,
                                                         double* wall_s,
                                                         double* cpu_s) {
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  Tracer::Scope span(bench.tracer, "core.open_analyze");
  auto dataset = [&] {
    Tracer::Scope read(bench.tracer, "tweetdb.read_s");
    return tw::tweetdb::ReadDatasetFiles(bench.dataset_path);
  }();
  if (!dataset.ok()) {
    bench.Op(false, "read: " + dataset.status().ToString());
    return std::nullopt;
  }
  tw::core::AnalysisContext ctx(workers);
  auto snapshot = [&] {
    Tracer::Scope analyze(bench.tracer, "core.analyze");
    return tw::core::AnalysisSnapshot::Analyze(std::move(*dataset), bench.analysis,
                                               {}, &ctx);
  }();
  *wall_s = SecondsSince(t0);
  *cpu_s = ProcessCpuSeconds() - cpu0;
  bench.Op(snapshot.ok(), snapshot.ok() ? "" : "analyze: " + snapshot.status().ToString());
  if (!snapshot.ok()) return std::nullopt;
  return std::move(*snapshot);
}

/// Traced runs only: the analysis again, one public layer call at a time,
/// each in its own span (storage read and map, compaction, index build,
/// population at three scales, trip extraction per scale, model fits).
void LayerPass(Bench& bench) {
  Tracer& tracer = bench.tracer;
  Tracer::Scope pass(tracer, "layers.analyze");
  {
    Tracer::Scope span(tracer, "tweetdb.map_open_s");
    auto mapped = tw::tweetdb::MapDatasetFiles(bench.dataset_path);
    if (!mapped.ok()) {
      bench.Op(false, "map: " + mapped.status().ToString());
      return;
    }
    // Touch every block, so lazy decode and verification are included.
    uint64_t sum = 0;
    mapped->dataset.ForEachRow([&sum](const tw::tweetdb::Tweet& t) { sum += t.user_id; });
    bench.Op(sum != 0, "map: empty dataset");
  }
  auto dataset = [&] {
    Tracer::Scope span(tracer, "tweetdb.read_s");
    return tw::tweetdb::ReadDatasetFiles(bench.dataset_path);
  }();
  bench.Op(dataset.ok(), "read: " + dataset.status().ToString());
  if (!dataset.ok()) return;
  tw::ThreadPool pool(AnalyzeWorkers());
  {
    Tracer::Scope span(tracer, "core.compact_s");
    dataset->CompactShards(&pool);
  }
  auto estimator = [&] {
    Tracer::Scope span(tracer, "core.index_build_s");
    return tw::core::PopulationEstimator::Build(*dataset, &pool);
  }();
  bench.Op(estimator.ok(), "index: " + estimator.status().ToString());
  if (!estimator.ok()) return;
  const std::vector<tw::core::ScaleSpec> specs = tw::core::PaperScales();
  {
    Tracer::Scope span(tracer, "core.population_s");
    for (const auto& spec : specs) {
      auto estimate = estimator->Estimate(spec, &pool);
      bench.Op(estimate.ok(), "estimate: " + estimate.status().ToString());
    }
  }
  for (size_t s = 0; s < specs.size(); ++s) {
    const auto& spec = specs[s];
    std::optional<tw::Result<tw::mobility::OdMatrix>> od;
    {
      Tracer::Scope span(tracer, kTripSpans[s]);
      od = tw::mobility::ExtractTripsDataset(*dataset, spec.areas, spec.radius_m, pool);
    }
    bench.Op(od->ok(), "trips: " + od->status().ToString());
    if (!od->ok()) continue;
    const std::vector<double> masses = tw::core::CountAreaMasses(*estimator, spec, pool);
    const std::vector<double> distances = tw::core::PairwiseDistances(spec.areas, pool);
    const auto observations = tw::mobility::BuildObservations(**od, masses, distances);
    std::vector<double> observed;
    for (const auto& o : observations) observed.push_back(o.flow);
    Tracer::Scope span(tracer, "core.fit_s");
    auto models = tw::core::FitPaperModels(observations, spec.areas, masses, observed, pool);
    bench.Op(models.ok(), "fit: " + models.status().ToString());
  }
}

/// Rows scanned by every stage of one analysis, from its public trace.
double RowsScanned(const tw::core::AnalysisSnapshot& snapshot) {
  double rows = 0.0;
  for (const auto& stage : snapshot.result().trace.stages()) {
    if (stage.has_scan) rows += static_cast<double>(stage.scan.rows_scanned);
  }
  return rows;
}

}  // namespace

void RunAnalyze(Bench& bench, Mode mode) {
  const bool subject = mode == Mode::kSubject;
  const size_t warmup = subject ? 3 : 1;
  const size_t min_timed = subject ? 12 : 9;
  const size_t workers = AnalyzeWorkers();
  Samples wall;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0;; ++i) {
    if (i >= warmup + min_timed &&
        (!subject || SecondsSince(start) >= bench.seconds)) {
      break;
    }
    double wall_s = 0.0, cpu_s = 0.0;
    auto snapshot = OpenAndAnalyze(bench, workers, &wall_s, &cpu_s);
    if (!snapshot) continue;
    if (i >= warmup) {
      wall.Add(wall_s);
      bench.tracer.Count("core.analyze_cpu_s", cpu_s);
      bench.tracer.Count("core.analyze_efficiency",
                         cpu_s / (wall_s * static_cast<double>(workers + 1)));
      bench.tracer.Count("core.rows_scanned", RowsScanned(*snapshot));
    }
    if (Fingerprint(*snapshot) != bench.base_fingerprint) {
      bench.Check("analyze: iteration output differs from the served snapshot");
    }
  }
  if (!wall.empty()) bench.metrics["analyze_s"] = wall.Median();

  if (subject) {
    // Thread invariance: a build on 1 worker (plus the caller) is bitwise
    // equal to the pooled one.
    double wall_s = 0.0, cpu_s = 0.0;
    auto single = OpenAndAnalyze(bench, 1, &wall_s, &cpu_s);
    if (single && Fingerprint(*single) != bench.base_fingerprint) {
      bench.Check("analyze: 1-worker build differs from the pooled build");
    }
    std::fprintf(stderr, "[perfbench] analyze: 1 worker %.3f s, %zu workers %.3f s\n",
                 wall_s, workers, wall.Median());
  }
  if (bench.tracer.enabled()) {
    for (size_t i = 0; i < (subject ? 3 : 1); ++i) LayerPass(bench);
  }
}

}  // namespace perfbench

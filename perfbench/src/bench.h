// Shared state of one benchmark run and the three phases every workload
// runs. A workload names its subject phase: the subject runs warm for the
// run's time budget, the other two run a fixed-size probe, so every
// end-to-end metric is reported on every workload while each workload's
// time goes to the layers it is meant to stress.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "census/area.h"
#include "core/pipeline.h"
#include "harness.h"
#include "oracle.h"
#include "random/rng.h"
#include "serve/query_service.h"
#include "serve/snapshot_catalog.h"

namespace perfbench {

/// Synthetic users in the base corpus (about 2.0M rows).
inline constexpr size_t kUsers = 150000;
/// Closed-loop client threads of the serve phase.
inline constexpr size_t kClients = 2;
/// A radius around the continent's middle that holds every row.
inline constexpr double kContinentLat = -27.0, kContinentLon = 134.0;
inline constexpr double kContinentM = 4.5e6;

/// Runnable threads the benchmark keeps at or below: the vCPUs, capped at
/// 4 (the size the reference figures were taken at), at least 2.
size_t Runnable();
/// Analysis pool workers; the thread calling ParallelFor runs a chunk too.
inline size_t AnalyzeWorkers() { return Runnable() - 1; }
/// Catalog (refresh) and compaction pool workers: leaves one vCPU for the
/// live phase's querier next to the refreshing writer.
inline size_t CatalogWorkers() { return Runnable() - 2 > 0 ? Runnable() - 2 : 1; }

/// One population query and the answer it got.
struct PopulationAsk {
  double lat = 0.0, lon = 0.0, radius_m = 0.0;
  twimob::serve::PopulationAnswer answer;
};

/// A population answer checked once the run's peak memory has been read:
/// against a brute-force count over the final rows of users below
/// `user_limit`, the users of the version that answered.
struct DeferredAsk {
  PopulationAsk ask;
  uint64_t user_limit = 0;
  const char* source = "";  ///< the phase, for the failure message
};

enum class Mode { kSubject, kProbe };

struct Bench {
  Bench(uint64_t seed_in, double seconds_in, bool traced, std::string dir)
      : seed(seed_in), seconds(seconds_in), tracer(traced), data_dir(std::move(dir)) {}

  const uint64_t seed;
  const double seconds;  ///< time budget of the subject phase
  Tracer tracer;
  const std::string data_dir;
  std::string dataset_path;
  twimob::core::PipelineConfig analysis;
  std::unique_ptr<twimob::serve::SnapshotCatalog> catalog;

  // What the oracles keep of the base corpus. The rows themselves are
  // dropped after the base checks, so they are not in peak_rss_mb.
  size_t base_rows = 0;
  uint64_t max_user_id = 0;
  CountBand base_continent;  ///< brute-force count within kContinentM
  uint64_t base_fingerprint = 0;
  std::vector<std::vector<double>> oracle_flows;  ///< per scale, n x n
  std::vector<DeferredAsk> deferred;

  // Accounting of the operations the run attempted.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;  ///< first failed operation, for stderr
  std::string check_error;    ///< first failed output check; empty = correct

  /// End-to-end metric values by name.
  std::map<std::string, double> metrics;

  /// Records one operation outcome.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_failure.empty()) first_failure = what;
    }
  }
  /// Records a failed output check (the first one is reported).
  void Check(const std::string& error) {
    if (!error.empty() && check_error.empty()) check_error = error;
  }
};

/// The k-th population query of a stream: every census centre of every
/// scale (`all`) at ε = 2, 25 and 50 km in turn — a fixed mix, so runs
/// differ only in jitter — the centre jittered by up to 0.05 degrees.
PopulationAsk DrawPopulation(twimob::random::Xoshiro256& rng,
                             const std::vector<twimob::census::Area>& all, size_t k);

/// Generates the seeded corpus, writes it as a dataset and opens the
/// catalog on it: the timed set-up of every run.
bool Setup(Bench& bench);
/// Untimed: collects the stored rows, checks the served snapshot's
/// population estimates and OD flows against brute force, keeps what the
/// later checks need and frees the rows.
void PrepareOracles(Bench& bench);
/// Untimed, after peak_rss_mb is read: collects the final rows and checks
/// every deferred population answer against brute force.
void CheckDeferred(Bench& bench);

/// Repeated open + full analysis of the stored corpus.
void RunAnalyze(Bench& bench, Mode mode);
/// Mixed closed-loop queries and what-if sweeps on the opened catalog.
void RunServe(Bench& bench, Mode mode);
/// Appends, refreshes and compactions next to a population querier.
void RunLive(Bench& bench, Mode mode);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

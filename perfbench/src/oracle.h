// Independent output checks. Everything here recomputes what the program
// answers by brute force over the rows as stored, with the benchmark's own
// haversine, and never consults the program's index, assigners or kernels.
// Points within kEdgeM of a radius (or of a nearest-centre tie) are
// ambiguous under floating point and widen the accepted band instead of
// failing the check.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "census/area.h"
#include "core/analysis_snapshot.h"
#include "serve/whatif_service.h"
#include "tweetdb/dataset.h"

namespace perfbench {

/// Distance band treated as "on the edge", metres.
inline constexpr double kEdgeM = 1e-3;

/// The benchmark's great-circle distance, metres (mean Earth radius).
double HaversineM(double lat1, double lon1, double lat2, double lon2);

/// Rows of a dataset as stored, structure-of-arrays. `merged` rows are in
/// global (user, time) order, as trip extraction sees them.
struct Rows {
  std::vector<double> lat;
  std::vector<double> lon;
  std::vector<uint64_t> user;
  size_t size() const { return user.size(); }
};
Rows CollectRows(const twimob::tweetdb::TweetDataset& dataset, bool merged);

/// Accepted range of a radius count: `lo` counts only rows clearly inside,
/// `hi` also counts rows on the edge.
struct CountBand {
  size_t users_lo = 0, users_hi = 0;
  size_t tweets_lo = 0, tweets_hi = 0;
  bool Admits(size_t users, size_t tweets) const {
    return users >= users_lo && users <= users_hi && tweets >= tweets_lo &&
           tweets <= tweets_hi;
  }
};

/// Brute-force distinct users and tweets within `radius_m` of the centre.
/// `user_limit`, when nonzero, keeps only rows whose user id is below it.
CountBand BruteCount(const Rows& rows, double lat, double lon, double radius_m,
                     uint64_t user_limit = 0);

/// Nearest centre within `radius_m` by brute force; -1 for none.
/// `ambiguous` is set when an edge or near-tie makes another answer
/// equally valid under floating point.
int NearestArea(const std::vector<twimob::census::Area>& areas, double radius_m,
                double lat, double lon, double* distance_m, bool* ambiguous);

/// Checks every per-area population estimate of every scale of `snapshot`
/// against BruteCount over `rows`. Returns an empty string on success, else
/// the first mismatch.
std::string CheckPopulation(const twimob::core::AnalysisSnapshot& snapshot,
                            const Rows& rows);

/// Brute-force OD flows of one scale: consecutive same-user pairs in
/// `merged` rows whose endpoints fall in distinct areas (nearest centre
/// within ε). Row-major n x n; pairs touching an ambiguous row are left
/// out and counted in `ambiguous_pairs`.
std::vector<double> BruteFlows(const Rows& merged,
                               const std::vector<twimob::census::Area>& areas,
                               double radius_m, size_t* ambiguous_pairs);

/// Checks each scale's observed flows (and serving tables) against
/// BruteFlows. `flows_out`, when non-null, receives the per-scale oracle
/// matrices for later lookups.
std::string CheckFlows(const twimob::core::AnalysisSnapshot& snapshot,
                       const Rows& merged,
                       std::vector<std::vector<double>>* flows_out);

/// Conservation (S+E+I+R equals the scale's census population) and
/// containment (full mobility reduction never arrives outside the seed
/// area) over every scenario of `answer`.
std::string CheckWhatIf(const twimob::serve::WhatIfAnswer& answer);

/// True when both answers hold bitwise-identical results.
bool SameBits(const twimob::serve::WhatIfAnswer& a,
              const twimob::serve::WhatIfAnswer& b);

/// A hash of every count and floating-point bit of a snapshot's analysis
/// output (population, extraction, observations, fitted models, serving
/// tables), for thread-invariance checks.
uint64_t Fingerprint(const twimob::core::AnalysisSnapshot& snapshot);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_

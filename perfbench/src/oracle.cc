#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "census/census_data.h"
#include "common/string_util.h"

namespace perfbench {

namespace tw = twimob;

namespace {

constexpr double kEarthRadiusM = 6371008.8;  // mean Earth radius (IUGG)
constexpr double kRad = M_PI / 180.0;

/// Conservative reject test for one centre: a row outside the latitude or
/// longitude band cannot lie within `reach_m` of the centre.
struct BandFilter {
  BandFilter(double lat, double lon, double reach_m) : lat_(lat), lon_(lon) {
    const double theta = reach_m / kEarthRadiusM;  // central angle, radians
    lat_band_ = theta / kRad;
    // For rows in the latitude band, cos(lat) >= cos_min, and
    // sin^2(dlon/2) * cos(lat1) * cos(lat2) <= sin^2(theta/2) must hold.
    const double max_abs_lat = std::min(90.0, std::fabs(lat) + lat_band_);
    const double cos_min = std::cos(max_abs_lat * kRad);
    const double s = cos_min > 0.0 ? std::sin(theta / 2.0) / cos_min : 2.0;
    lon_band_ = s >= 1.0 ? 360.0 : 2.0 * std::asin(s) / kRad;
    lon_band_ *= 1.0 + 1e-9;
    lat_band_ *= 1.0 + 1e-9;
  }
  bool MayReach(double lat, double lon) const {
    return std::fabs(lat - lat_) <= lat_band_ && std::fabs(lon - lon_) <= lon_band_;
  }

 private:
  double lat_, lon_, lat_band_ = 0.0, lon_band_ = 0.0;
};

size_t CountDistinct(std::vector<uint64_t>& users) {
  std::sort(users.begin(), users.end());
  return static_cast<size_t>(std::unique(users.begin(), users.end()) - users.begin());
}

/// FNV-1a over raw bytes.
struct Hasher {
  uint64_t h = 1469598103934665603ull;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  }
  void U(uint64_t v) { Bytes(&v, sizeof v); }
  void D(double v) { Bytes(&v, sizeof v); }
  void S(const std::string& s) { Bytes(s.data(), s.size()); }
  void Ds(const std::vector<double>& v) {
    U(v.size());
    Bytes(v.data(), v.size() * sizeof(double));
  }
};

/// NearestArea over the centres whose band (when given) may reach the row.
int Nearest(const std::vector<tw::census::Area>& areas,
            const std::vector<BandFilter>* bands, double radius_m, double lat,
            double lon, double* distance_m, bool* ambiguous) {
  int best = -1;
  double best_d = INFINITY, second_d = INFINITY;
  bool edge = false;
  for (size_t a = 0; a < areas.size(); ++a) {
    if (bands != nullptr && !(*bands)[a].MayReach(lat, lon)) continue;
    const double d = HaversineM(areas[a].center.lat, areas[a].center.lon, lat, lon);
    if (std::fabs(d - radius_m) <= kEdgeM) edge = true;
    if (d > radius_m + kEdgeM) continue;
    if (d < best_d) {
      second_d = best_d;
      best_d = d;
      best = static_cast<int>(a);
    } else if (d < second_d) {
      second_d = d;
    }
  }
  if (best >= 0 && best_d > radius_m) best = -1;  // edge row just outside ε
  *distance_m = best_d;
  *ambiguous = edge || second_d - best_d <= kEdgeM;
  return best;
}

}  // namespace

double HaversineM(double lat1, double lon1, double lat2, double lon2) {
  const double dlat = (lat2 - lat1) * kRad;
  const double dlon = (lon2 - lon1) * kRad;
  const double a = std::sin(dlat / 2.0);
  const double b = std::sin(dlon / 2.0);
  const double h = a * a + std::cos(lat1 * kRad) * std::cos(lat2 * kRad) * b * b;
  return 2.0 * kEarthRadiusM * std::asin(std::min(1.0, std::sqrt(h)));
}

Rows CollectRows(const tw::tweetdb::TweetDataset& dataset, bool merged) {
  Rows rows;
  rows.lat.reserve(dataset.num_rows());
  rows.lon.reserve(dataset.num_rows());
  rows.user.reserve(dataset.num_rows());
  auto add = [&rows](const tw::tweetdb::Tweet& t) {
    rows.lat.push_back(t.pos.lat);
    rows.lon.push_back(t.pos.lon);
    rows.user.push_back(t.user_id);
  };
  if (merged) {
    dataset.ForEachRowMerged(add);
  } else {
    dataset.ForEachRow(add);
  }
  return rows;
}

CountBand BruteCount(const Rows& rows, double lat, double lon, double radius_m,
                     uint64_t user_limit) {
  const BandFilter band(lat, lon, radius_m + kEdgeM);
  std::vector<uint64_t> inside, edge_or_inside;
  CountBand out;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!band.MayReach(rows.lat[i], rows.lon[i])) continue;
    const uint64_t user = rows.user[i];
    if (user_limit != 0 && user >= user_limit) continue;
    const double d = HaversineM(lat, lon, rows.lat[i], rows.lon[i]);
    if (d <= radius_m + kEdgeM) {
      edge_or_inside.push_back(user);
      ++out.tweets_hi;
      if (d < radius_m - kEdgeM) {
        inside.push_back(user);
        ++out.tweets_lo;
      }
    }
  }
  out.users_lo = CountDistinct(inside);
  out.users_hi = CountDistinct(edge_or_inside);
  return out;
}

int NearestArea(const std::vector<tw::census::Area>& areas, double radius_m,
                double lat, double lon, double* distance_m, bool* ambiguous) {
  return Nearest(areas, nullptr, radius_m, lat, lon, distance_m, ambiguous);
}

std::string CheckPopulation(const tw::core::AnalysisSnapshot& snapshot,
                            const Rows& rows) {
  const auto& population = snapshot.result().population;
  if (population.size() != snapshot.specs().size()) return "population: scale count";
  for (size_t s = 0; s < population.size(); ++s) {
    const tw::core::ScaleSpec& spec = snapshot.specs()[s];
    if (population[s].areas.size() != spec.areas.size()) {
      return "population: area count at " + spec.name;
    }
    for (size_t a = 0; a < spec.areas.size(); ++a) {
      const CountBand band = BruteCount(rows, spec.areas[a].center.lat,
                                        spec.areas[a].center.lon, spec.radius_m);
      const auto& est = population[s].areas[a];
      if (!band.Admits(est.unique_users, est.tweet_count)) {
        return tw::StrFormat(
            "population %s/%s: program %zu users %zu tweets, brute force "
            "[%zu,%zu] users [%zu,%zu] tweets",
            spec.name.c_str(), spec.areas[a].name.c_str(), est.unique_users,
            est.tweet_count, band.users_lo, band.users_hi, band.tweets_lo,
            band.tweets_hi);
      }
    }
  }
  return "";
}

std::vector<double> BruteFlows(const Rows& merged,
                               const std::vector<tw::census::Area>& areas,
                               double radius_m, size_t* ambiguous_pairs) {
  const size_t n = areas.size();
  std::vector<BandFilter> bands;
  for (const auto& area : areas) {
    bands.emplace_back(area.center.lat, area.center.lon, radius_m + kEdgeM);
  }
  constexpr int kAmbiguous = -2;
  std::vector<int> assigned(merged.size(), -1);
  for (size_t i = 0; i < merged.size(); ++i) {
    double d = 0.0;
    bool ambiguous = false;
    const int area = Nearest(areas, &bands, radius_m, merged.lat[i], merged.lon[i],
                             &d, &ambiguous);
    assigned[i] = ambiguous ? kAmbiguous : area;
  }
  std::vector<double> flows(n * n, 0.0);
  *ambiguous_pairs = 0;
  for (size_t i = 1; i < merged.size(); ++i) {
    if (merged.user[i] != merged.user[i - 1]) continue;
    const int from = assigned[i - 1], to = assigned[i];
    if (from == kAmbiguous || to == kAmbiguous) {
      ++*ambiguous_pairs;
    } else if (from >= 0 && to >= 0 && from != to) {
      flows[static_cast<size_t>(from) * n + static_cast<size_t>(to)] += 1.0;
    }
  }
  return flows;
}

std::string CheckFlows(const tw::core::AnalysisSnapshot& snapshot,
                       const Rows& merged,
                       std::vector<std::vector<double>>* flows_out) {
  const auto& mobility = snapshot.result().mobility;
  const auto& tables = snapshot.serving_tables();
  if (mobility.size() != snapshot.specs().size() || tables.size() != mobility.size()) {
    return "flows: scale count";
  }
  for (size_t s = 0; s < mobility.size(); ++s) {
    const tw::core::ScaleSpec& spec = snapshot.specs()[s];
    const size_t n = spec.areas.size();
    size_t ambiguous = 0;
    std::vector<double> oracle = BruteFlows(merged, spec.areas, spec.radius_m, &ambiguous);
    std::vector<double> program(n * n, 0.0);
    for (const auto& o : mobility[s].observations) program[o.src * n + o.dst] = o.flow;
    double diff = 0.0;
    for (size_t k = 0; k < n * n; ++k) {
      diff += std::fabs(program[k] - oracle[k]);
      if (tables[s].observed[k] != program[k]) {
        return "flows: serving table differs from observations at " + spec.name;
      }
    }
    // Each ambiguous pair can move at most one trip between two cells.
    if (diff > 2.0 * static_cast<double>(ambiguous)) {
      return tw::StrFormat("flows %s: program differs from brute force by %.0f "
                           "trips (%zu ambiguous pairs)",
                           spec.name.c_str(), diff, ambiguous);
    }
    if (mobility[s].extraction.tweets_seen != merged.size()) {
      return "flows: extraction saw a different row count at " + spec.name;
    }
    if (flows_out != nullptr) flows_out->push_back(std::move(oracle));
  }
  return "";
}

std::string CheckWhatIf(const tw::serve::WhatIfAnswer& answer) {
  for (const auto& r : answer.results) {
    const auto& areas = tw::census::AreasForScale(tw::census::kAllScales[r.point.scale]);
    double population = 0.0;
    for (const auto& a : areas) population += a.population;
    const auto& t = r.final_totals;
    const double total = t.s + t.e + t.i + t.r;
    if (!(std::fabs(total - population) <= 1e-6 * population)) {
      return tw::StrFormat("what-if: S+E+I+R = %.6f, population %.6f", total,
                           population);
    }
    if (r.point.mobility_reduction == 1.0) {
      for (size_t a = 0; a < r.arrival_day.size(); ++a) {
        if (a != r.point.seed_area && r.arrival_day[a] >= 0.0) {
          return tw::StrFormat("what-if: full mobility reduction arrived in "
                               "area %zu (seed %zu)", a, r.point.seed_area);
        }
      }
    }
  }
  return "";
}

bool SameBits(const tw::serve::WhatIfAnswer& a, const tw::serve::WhatIfAnswer& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t k = 0; k < a.results.size(); ++k) {
    const auto& x = a.results[k];
    const auto& y = b.results[k];
    const double xs[] = {x.point.beta, x.point.mobility_reduction, x.final_totals.t,
                         x.final_totals.s, x.final_totals.e, x.final_totals.i,
                         x.final_totals.r, x.peak_infectious, x.peak_day,
                         x.attack_rate};
    const double ys[] = {y.point.beta, y.point.mobility_reduction, y.final_totals.t,
                         y.final_totals.s, y.final_totals.e, y.final_totals.i,
                         y.final_totals.r, y.peak_infectious, y.peak_day,
                         y.attack_rate};
    if (std::memcmp(xs, ys, sizeof xs) != 0 || x.point.scale != y.point.scale ||
        x.point.seed_area != y.point.seed_area ||
        x.arrival_day.size() != y.arrival_day.size() ||
        std::memcmp(x.arrival_day.data(), y.arrival_day.data(),
                    x.arrival_day.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

uint64_t Fingerprint(const tw::core::AnalysisSnapshot& snapshot) {
  Hasher h;
  const auto& result = snapshot.result();
  for (const auto& p : result.population) {
    h.S(p.scale_name);
    h.D(p.radius_m);
    for (const auto& a : p.areas) {
      h.U(a.tweet_count);
      h.U(a.unique_users);
      h.D(a.census_population);
      h.D(a.rescaled_estimate);
    }
    h.D(p.rescale_factor);
    h.D(p.correlation.r);
    h.D(p.correlation.p_value);
    h.D(p.median_users);
  }
  h.D(result.pooled_population_correlation.r);
  for (const auto& m : result.mobility) {
    const auto& x = m.extraction;
    h.U(x.tweets_seen);
    h.U(x.tweets_in_some_area);
    h.U(x.consecutive_pairs);
    h.U(x.inter_area_trips);
    h.U(x.intra_area_pairs);
    for (const auto& o : m.observations) {
      h.U(o.src);
      h.U(o.dst);
      h.D(o.m);
      h.D(o.n);
      h.D(o.d_meters);
      h.D(o.flow);
    }
    for (const auto& model : m.models) {
      h.S(model.model_name);
      h.D(model.metrics.pearson_r);
      h.D(model.metrics.hit_rate);
      h.D(model.metrics.rmsle);
      h.D(model.metrics.log_pearson_r);
      h.D(model.log10_c);
      h.D(model.alpha);
      h.D(model.beta);
      h.D(model.gamma);
      h.Ds(model.estimated);
    }
  }
  for (const auto& t : snapshot.serving_tables()) {
    h.Ds(t.observed);
    for (const auto& e : t.model_estimates) h.Ds(e);
  }
  return h.h;
}

}  // namespace perfbench

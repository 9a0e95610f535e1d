// The serve phase: the opened catalog answers a seeded closed loop of
// mixed requests from kClients threads (one thread in a probe, see
// RunServe). Cache-missing what-if sweeps run
// first, alone, so their time is not shared with the clients; the loop's
// what-if requests then replay those grids (cache hits). No storage or
// analysis work happens here.

#include <barrier>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench.h"
#include "census/census_data.h"
#include "random/rng.h"
#include "serve/query_service.h"
#include "serve/whatif_service.h"

namespace perfbench {

namespace tw = twimob;

namespace {

constexpr size_t kPointsPerBatch = 256;
constexpr size_t kLookupsPerRound = 4;  ///< OD lookups, and again predictions
constexpr double kMetresPerDegree = 111195.0;
/// Distinct grids the clients' what-if requests replay from the cache.
constexpr size_t kHitGrids = 4;
/// Timed rounds whose answers each client keeps for the output checks.
constexpr size_t kCheckedRounds = 12;

/// A cache-missing grid: 3 scales x 12 betas x 6 mobility reductions x 5
/// seed areas = 1080 scenarios of 400 steps. `variant` shifts one beta by
/// 1e-3 per step: a distinct cache key at the same cost.
tw::epi::SweepGrid MissGrid(size_t variant) {
  tw::epi::SweepGrid grid;
  grid.scales = {0, 1, 2};
  for (int b = 0; b < 12; ++b) grid.betas.push_back(0.25 + 0.04 * b);
  grid.betas[0] += 0.001 * static_cast<double>(variant);
  grid.mobility_reductions = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  grid.seed_areas = {0, 1, 2, 3, 4};
  grid.steps = 400;
  return grid;
}

struct PointAsk {
  size_t scale = 0;
  std::vector<double> lats, lons;
  std::vector<tw::serve::PointAnswer> answers;
};

struct LookupAsk {
  size_t scale = 0, model = 0, src = 0, dst = 0;
  double answer = 0.0;
};

/// What one client measured and kept for the checks.
struct ClientLog {
  Samples population_us;
  uint64_t requests = 0;
  uint64_t failed = 0;
  std::vector<PopulationAsk> populations;
  std::vector<PointAsk> points;
  std::vector<LookupAsk> od, predict;
  std::vector<std::pair<size_t, std::shared_ptr<const tw::serve::WhatIfAnswer>>> hits;
};

double Micros(Clock::time_point t0) { return 1e6 * SecondsSince(t0); }

class Client {
 public:
  Client(Bench& bench, const tw::serve::QueryService& queries,
         const tw::serve::WhatIfService& whatif, size_t id)
      : bench_(bench),
        queries_(queries),
        whatif_(whatif),
        rng_(bench.seed * 0x9e3779b97f4a7c15ull + 17 * (id + 1)),
        all_areas_(tw::census::AllAreas()),
        next_population_(id * 90) {}

  /// Runs one round: 3 population queries (one per ε), 1 point batch,
  /// kLookupsPerRound OD and as many prediction lookups, 1 what-if hit —
  /// 13 requests. `timed` rounds add their latencies; the first
  /// kCheckedRounds timed rounds keep their answers.
  void Round(bool timed) {
    ++rounds_;
    const bool keep = timed && kept_rounds_ < kCheckedRounds;
    if (keep) ++kept_rounds_;
    Tracer& tracer = bench_.tracer;
    for (size_t q = 0; q < 3; ++q) {
      PopulationAsk ask = DrawPopulation(rng_, all_areas_, next_population_++);
      const Clock::time_point t0 = Clock::now();
      auto answer = [&] {
        Tracer::Scope span(tracer, "serve.population_us");
        return queries_.Population({ask.lat, ask.lon}, ask.radius_m);
      }();
      if (timed) log_.population_us.Add(Micros(t0));
      Count(timed, answer.ok());
      if (keep && answer.ok()) {
        ask.answer = *answer;
        log_.populations.push_back(ask);
      }
    }
    {
      PointAsk ask;
      ask.scale = rounds_ % 3;
      const auto& areas = tw::census::AreasForScale(tw::census::kAllScales[ask.scale]);
      const double reach_deg =
          1.5 * tw::census::DefaultSearchRadiusMeters(tw::census::kAllScales[ask.scale]) /
          kMetresPerDegree;
      for (size_t p = 0; p < kPointsPerBatch; ++p) {
        const auto& area = areas[rng_.NextUint64(areas.size())];
        ask.lats.push_back(area.center.lat + rng_.NextUniform(-reach_deg, reach_deg));
        ask.lons.push_back(area.center.lon + rng_.NextUniform(-reach_deg, reach_deg));
      }
      auto answer = [&] {
        Tracer::Scope span(tracer, "serve.point_batch_us");
        return queries_.PointEstimateBatch(ask.scale, ask.lats.data(), ask.lons.data(),
                                           kPointsPerBatch);
      }();
      Count(timed, answer.ok());
      if (keep && answer.ok()) {
        ask.answers = std::move(*answer);
        log_.points.push_back(std::move(ask));
      }
    }
    for (size_t k = 0; k < kLookupsPerRound; ++k) {
      LookupAsk ask{rng_.NextUint64(3), 0, rng_.NextUint64(20), rng_.NextUint64(20)};
      auto answer = [&] {
        Tracer::Scope span(tracer, "serve.od_flow_us");
        return queries_.OdFlow(ask.scale, ask.src, ask.dst);
      }();
      Count(timed, answer.ok());
      if (keep && answer.ok()) {
        ask.answer = answer->observed;
        log_.od.push_back(ask);
      }
    }
    for (size_t k = 0; k < kLookupsPerRound; ++k) {
      LookupAsk ask{rng_.NextUint64(3), rng_.NextUint64(3), rng_.NextUint64(20),
                    rng_.NextUint64(20)};
      auto answer = [&] {
        Tracer::Scope span(tracer, "serve.predict_us");
        return queries_.Predict(ask.scale, ask.model, ask.src, ask.dst);
      }();
      Count(timed, answer.ok());
      if (keep && answer.ok()) {
        ask.answer = answer->estimated;
        log_.predict.push_back(ask);
      }
    }
    {
      const size_t variant = rng_.NextUint64(kHitGrids);
      auto answer = [&] {
        Tracer::Scope span(tracer, "serve.whatif_hit_us");
        return whatif_.WhatIf(MissGrid(variant));
      }();
      Count(timed, answer.ok());
      if (keep && answer.ok()) log_.hits.emplace_back(variant, *answer);
    }
  }

  ClientLog& log() { return log_; }
  const std::vector<tw::census::Area>& all_areas() const { return all_areas_; }
  tw::random::Xoshiro256& rng() { return rng_; }

 private:
  void Count(bool timed, bool ok) {
    if (!timed) return;
    ++log_.requests;
    if (!ok) ++log_.failed;
  }

  Bench& bench_;
  const tw::serve::QueryService& queries_;
  const tw::serve::WhatIfService& whatif_;
  tw::random::Xoshiro256 rng_;
  const std::vector<tw::census::Area> all_areas_;
  ClientLog log_;
  size_t kept_rounds_ = 0;
  size_t rounds_ = 0;
  size_t next_population_;  ///< index into the population query stream
};

/// Checks the answers one client kept against brute force. Population
/// answers are checked at the end of the run (CheckDeferred), over the
/// base users' rows.
void CheckClient(Bench& bench, const ClientLog& log,
                 const std::vector<std::shared_ptr<const tw::serve::WhatIfAnswer>>& misses) {
  const auto snapshot = bench.catalog->Current();
  for (const PopulationAsk& ask : log.populations) {
    bench.deferred.push_back({ask, bench.max_user_id + 1, "serve"});
  }
  for (const PointAsk& ask : log.points) {
    const auto& areas = snapshot->specs()[ask.scale].areas;
    const double radius = snapshot->specs()[ask.scale].radius_m;
    for (size_t p = 0; p < ask.lats.size(); ++p) {
      double d = 0.0;
      bool ambiguous = false;
      const int expect = NearestArea(areas, radius, ask.lats[p], ask.lons[p], &d, &ambiguous);
      const auto& got = ask.answers[p];
      if (ambiguous) continue;
      if (got.area != expect ||
          (expect >= 0 && std::fabs(got.distance_m - d) > kEdgeM)) {
        bench.Check("serve: point answer is not the brute-force nearest area");
      }
    }
  }
  for (const LookupAsk& ask : log.od) {
    const size_t n = snapshot->specs()[ask.scale].areas.size();
    if (ask.answer != bench.oracle_flows[ask.scale][ask.src * n + ask.dst]) {
      bench.Check("serve: OD flow differs from brute force");
    }
  }
  for (const LookupAsk& ask : log.predict) {
    // The fitted model's estimate for an observed pair, 0 for the others.
    double expect = 0.0;
    const auto& mobility = snapshot->result().mobility[ask.scale];
    for (size_t k = 0; k < mobility.observations.size(); ++k) {
      const auto& o = mobility.observations[k];
      if (o.src == ask.src && o.dst == ask.dst) {
        expect = mobility.models[ask.model].estimated[k];
      }
    }
    if (ask.answer != expect) bench.Check("serve: prediction differs from the fit");
  }
  for (const auto& [variant, hit] : log.hits) {
    if (!SameBits(*hit, *misses[variant])) {
      bench.Check("serve: what-if cache hit differs from the miss it replays");
    }
  }
}

/// Traced runs only: the population query's two estimator walks, timed
/// directly, and the sweep engine without the serving layer around it.
void LayerPass(Bench& bench, Client& client, size_t sweeps) {
  Tracer& tracer = bench.tracer;
  Tracer::Scope pass(tracer, "layers.serve");
  const auto snapshot = bench.catalog->Current();
  for (size_t q = 0; q < 180; ++q) {
    const PopulationAsk ask = DrawPopulation(client.rng(), client.all_areas(), q);
    {
      Tracer::Scope span(tracer, "core.count_unique_users_us");
      snapshot->estimator().CountUniqueUsers({ask.lat, ask.lon}, ask.radius_m);
    }
    Tracer::Scope span(tracer, "core.count_tweets_us");
    snapshot->estimator().CountTweets({ask.lat, ask.lon}, ask.radius_m);
  }
  tw::ThreadPool pool(AnalyzeWorkers());
  for (size_t s = 0; s < sweeps; ++s) {
    const tw::epi::SweepGrid grid = MissGrid(1000 + s);
    const Clock::time_point t0 = Clock::now();
    auto results = [&] {
      Tracer::Scope span(tracer, "epi.sweep_s");
      return snapshot->scenario_sweep()->Run(grid, &pool);
    }();
    bench.Op(results.ok(), "sweep: " + results.status().ToString());
    if (results.ok()) {
      tracer.Count("epi.scenarios_per_s",
                   static_cast<double>(results->size()) / SecondsSince(t0));
    }
  }
}

}  // namespace

PopulationAsk DrawPopulation(tw::random::Xoshiro256& rng,
                             const std::vector<tw::census::Area>& all, size_t k) {
  constexpr double kRadiiM[] = {2000.0, 25000.0, 50000.0};  // the paper's ε
  const auto& area = all[k % all.size()];
  PopulationAsk ask;
  ask.lat = area.center.lat + rng.NextUniform(-0.05, 0.05);
  ask.lon = area.center.lon + rng.NextUniform(-0.05, 0.05);
  ask.radius_m = kRadiiM[(k / all.size()) % 3];
  return ask;
}

void RunServe(Bench& bench, Mode mode) {
  const bool subject = mode == Mode::kSubject;
  const size_t timed_misses = subject ? 24 : 16;
  const size_t warm_rounds = subject ? 20 : 5;
  const size_t probe_rounds = 400;
  // A probe runs one client: two clients of a short loop keep whichever
  // CPUs they start on, and whether those share a core moved the probe's
  // query_qps by a third from run to run.
  const size_t num_clients = subject ? kClients : 1;

  tw::serve::WhatIfOptions whatif_options;
  whatif_options.num_threads = AnalyzeWorkers();
  whatif_options.cache_capacity = kHitGrids;

  // Cache misses, alone. Each runs on a fresh service, so each draws its own
  // worker placement (bimodal from one pool to the next, see the README);
  // the median then spans placements instead of inheriting one.
  Samples sweep_s;
  std::vector<std::shared_ptr<const tw::serve::WhatIfAnswer>> misses;
  for (size_t m = 0; m < timed_misses + 1; ++m) {
    const tw::serve::WhatIfService fresh(bench.catalog.get(), whatif_options);
    const Clock::time_point t0 = Clock::now();
    auto answer = fresh.WhatIf(MissGrid(m));
    const double seconds = SecondsSince(t0);
    if (m > 0) sweep_s.Add(seconds);  // the first sweep warms the engine
    bench.Op(answer.ok(), "what-if miss: " + answer.status().ToString());
    if (!answer.ok()) return;
    misses.push_back(*answer);
  }
  if (!sweep_s.empty()) bench.metrics["whatif_sweep_s"] = sweep_s.Median();

  // The service the clients share, its cache filled with the grids they
  // replay.
  tw::serve::QueryService queries(bench.catalog.get());
  tw::serve::WhatIfService whatif(bench.catalog.get(), whatif_options);
  for (size_t m = 0; m < kHitGrids; ++m) {
    auto answer = whatif.WhatIf(MissGrid(m));
    bench.Op(answer.ok(), "what-if fill: " + answer.status().ToString());
    if (!answer.ok()) return;
  }

  std::vector<std::unique_ptr<Client>> clients;
  for (size_t c = 0; c < num_clients; ++c) {
    clients.push_back(std::make_unique<Client>(bench, queries, whatif, c));
  }
  std::barrier sync(static_cast<std::ptrdiff_t>(num_clients + 1));
  Clock::time_point loop_start;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c] {
      Client& client = *clients[c];
      for (size_t r = 0; r < warm_rounds; ++r) client.Round(false);
      sync.arrive_and_wait();  // all warm: the main thread starts the clock
      sync.arrive_and_wait();
      for (size_t r = 0;; ++r) {
        const bool more = subject ? SecondsSince(loop_start) < bench.seconds
                                  : r < probe_rounds;
        if (!more) break;
        client.Round(true);
      }
    });
  }
  sync.arrive_and_wait();
  loop_start = Clock::now();
  sync.arrive_and_wait();
  for (std::thread& t : threads) t.join();
  const double loop_s = SecondsSince(loop_start);

  ClientLog total;
  for (auto& client : clients) {
    ClientLog& log = client->log();
    total.population_us.Append(log.population_us);
    total.requests += log.requests;
    total.failed += log.failed;
  }
  bench.attempted += total.requests;
  bench.failed += total.failed;
  if (total.failed > 0 && bench.first_failure.empty()) bench.first_failure = "serve request";
  if (total.requests > 0) {
    bench.metrics["query_qps"] = static_cast<double>(total.requests) / loop_s;
  }
  if (!total.population_us.empty()) {
    bench.metrics["population_p50_us"] = total.population_us.Median();
  }
  // Per-layer only: the tail did not repeat within the bound (README).
  bench.tracer.Count("serve.population_p99_us", total.population_us.Quantile(0.99));
  std::fprintf(stderr, "[perfbench] serve: %llu requests in %.2f s, %zu population "
               "samples\n", static_cast<unsigned long long>(total.requests), loop_s,
               total.population_us.size());

  for (const auto& answer : misses) bench.Check(CheckWhatIf(*answer));
  for (auto& client : clients) CheckClient(bench, client->log(), misses);
  if (bench.tracer.enabled()) LayerPass(bench, *clients[0], subject ? 4 : 2);
}

}  // namespace perfbench

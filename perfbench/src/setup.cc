// Set-up: corpus generation, dataset write and catalog open (timed as
// setup_s), then the untimed oracle preparation.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "synth/tweet_generator.h"
#include "tweetdb/binary_codec.h"

namespace perfbench {

namespace tw = twimob;

size_t Runnable() {
  const size_t cpus = std::thread::hardware_concurrency();
  return std::clamp<size_t>(cpus, 2, 4);
}

bool Setup(Bench& bench) {
  std::error_code ec;
  std::filesystem::remove_all(bench.data_dir, ec);
  std::filesystem::create_directories(bench.data_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", bench.data_dir.c_str(),
                 ec.message().c_str());
    return false;
  }
  bench.dataset_path = bench.data_dir + "/corpus.twdb";
  // The corpus keeps the generator's calibration seed: the generator draws
  // city sizes from its seed, and a corpus per --seed moved the rows
  // within 50 km of Sydney between 385k and 643k over five seeds, and the
  // query latencies with them. --seed varies everything fed on top of it.
  bench.analysis.corpus.num_users = kUsers;

  auto generate = [&bench]() -> tw::Result<tw::tweetdb::TweetDataset> {
    Tracer::Scope span(bench.tracer, "synth.generate_s");
    auto generator = tw::synth::TweetGenerator::Create(bench.analysis.corpus);
    if (!generator.ok()) return generator.status();
    return generator->GenerateDataset(tw::tweetdb::PartitionSpec::Single());
  };
  auto dataset = generate();
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n", dataset.status().ToString().c_str());
    return false;
  }
  {
    Tracer::Scope span(bench.tracer, "tweetdb.write");
    tw::ThreadPool pool(AnalyzeWorkers());
    dataset->CompactShards(&pool);
    const tw::Status written = tw::tweetdb::WriteDatasetFiles(*dataset, bench.dataset_path);
    if (!written.ok()) {
      std::fprintf(stderr, "write: %s\n", written.ToString().c_str());
      return false;
    }
  }
  {
    Tracer::Scope span(bench.tracer, "serve.catalog_open_s");
    tw::serve::CatalogOptions options;
    options.analysis = bench.analysis;
    options.num_threads = CatalogWorkers();
    auto catalog = tw::serve::SnapshotCatalog::Open(bench.dataset_path, options);
    if (!catalog.ok()) {
      std::fprintf(stderr, "catalog open: %s\n", catalog.status().ToString().c_str());
      return false;
    }
    bench.catalog = std::move(*catalog);
  }
  return true;
}

void PrepareOracles(Bench& bench) {
  const auto snapshot = bench.catalog->Current();
  const Rows rows = CollectRows(snapshot->dataset(), /*merged=*/true);
  bench.base_rows = rows.size();
  for (uint64_t user : rows.user) bench.max_user_id = std::max(bench.max_user_id, user);
  bench.base_continent = BruteCount(rows, kContinentLat, kContinentLon, kContinentM);
  bench.base_fingerprint = Fingerprint(*snapshot);
  bench.Check(CheckPopulation(*snapshot, rows));
  bench.Check(CheckFlows(*snapshot, rows, &bench.oracle_flows));
}

void CheckDeferred(Bench& bench) {
  const Rows rows = CollectRows(bench.catalog->Current()->dataset(), /*merged=*/false);
  // Untimed and after every measurement, so spread over the vCPUs.
  const size_t n = bench.deferred.size();
  std::vector<char> admitted(n, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < Runnable(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < n; i += Runnable()) {
        const DeferredAsk& d = bench.deferred[i];
        const CountBand band =
            BruteCount(rows, d.ask.lat, d.ask.lon, d.ask.radius_m, d.user_limit);
        admitted[i] = band.Admits(d.ask.answer.unique_users, d.ask.answer.tweets);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t i = 0; i < n; ++i) {
    if (!admitted[i]) {
      bench.Check(std::string(bench.deferred[i].source) +
                  ": population answer differs from brute force");
    }
  }
}

}  // namespace perfbench

// The live phase: one writer appends seeded batches of new users' tweets
// through IngestWriter, while one querier thread keeps issuing population
// queries against whatever the catalog serves. Each round makes small
// appends and a refresh; every second round starts with a compaction,
// which that round's refresh serves. A fixed number of early rounds also
// make a bulk append with a refresh of its own.

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "census/census_data.h"
#include "random/rng.h"
#include "serve/query_service.h"
#include "synth/tweet_generator.h"
#include "tweetdb/binary_codec.h"
#include "tweetdb/ingest.h"

namespace perfbench {

namespace tw = twimob;

namespace {

/// New users in one small batch (about 2.6k rows).
constexpr size_t kBatchUsers = 200;
/// Distinct small batches generated up front; later batches reuse their
/// rows under fresh user ids, so every batch adds new users.
constexpr size_t kBatchTemplates = 24;
constexpr size_t kTemplateUsers = kBatchUsers * kBatchTemplates;
/// New users in one bulk batch: a sixteenth of the corpus (about 124k
/// rows), the batch of bench/perf_ingest.
constexpr size_t kBulkUsers = kUsers / 16;
/// Bulk appends per run, each refreshed on its own, in timed rounds 1 to 5:
/// the same rounds in every run.
constexpr size_t kBulkRounds = 5;
bool BulkRound(size_t round) { return round >= 1 && round <= kBulkRounds; }
/// Small appends per refresh. With 4, the slow first append after a
/// compaction's or a bulk append's writes is a quarter of the samples,
/// not half, and the median stays among the others.
constexpr size_t kAppendsPerRound = 4;
constexpr size_t kCompactEvery = 2;  ///< rounds per compaction
/// Timed rounds of a probe, and the least a subject runs: every bulk round.
constexpr size_t kProbeRounds = 8;
/// Every kSampleEvery-th querier answer is kept for the output checks.
constexpr size_t kSampleEvery = 16;

/// The appended rows: small batch templates 0 .. kBatchTemplates-1 and
/// the bulk template kBulkTemplate, each appended under fresh user ids.
constexpr size_t kBulkTemplate = kBatchTemplates;

class AppendStream {
 public:
  explicit AppendStream(uint64_t seed) {
    tw::synth::CorpusConfig config;
    config.seed = seed;
    config.num_users = kTemplateUsers + kBulkUsers;
    auto generator = tw::synth::TweetGenerator::Create(config);
    if (!generator.ok()) return;
    auto table = generator->Generate();
    if (!table.ok()) return;
    templates_.resize(kBulkTemplate + 1);
    table->ForEachRow([this](const tw::tweetdb::Tweet& t) {
      const uint64_t index = t.user_id - 1;  // ids are 1-based
      templates_[index < kTemplateUsers ? index / kBatchUsers : kBulkTemplate].push_back(t);
    });
  }

  bool ok() const { return !templates_.empty(); }
  static size_t users(size_t t) { return t == kBulkTemplate ? kBulkUsers : kBatchUsers; }

  /// Template t under the user ids [first_user, first_user + users(t)).
  std::vector<tw::tweetdb::Tweet> Batch(size_t t, uint64_t first_user) const {
    std::vector<tw::tweetdb::Tweet> rows = templates_[t];
    const uint64_t template_first = t * kBatchUsers + 1;
    for (auto& r : rows) r.user_id = r.user_id - template_first + first_user;
    return rows;
  }

 private:
  std::vector<std::vector<tw::tweetdb::Tweet>> templates_;
};

struct LiveAsk : PopulationAsk {
  size_t batches = 0;  ///< appended batches in the snapshot that answered
};

}  // namespace

void RunLive(Bench& bench, Mode mode) {
  const bool subject = mode == Mode::kSubject;
  Tracer& tracer = bench.tracer;
  tw::serve::SnapshotCatalog& catalog = *bench.catalog;
  const AppendStream stream(bench.seed ^ 0x6c697665ull);
  if (!stream.ok()) {
    bench.Op(false, "live: append stream generation");
    return;
  }
  tw::tweetdb::IngestOptions ingest_options;
  ingest_options.partition = tw::tweetdb::PartitionSpec::Single();
  auto writer = tw::tweetdb::IngestWriter::Open(bench.dataset_path, ingest_options);
  bench.Op(writer.ok(), "live: writer open: " + writer.status().ToString());
  if (!writer.ok()) return;
  tw::serve::QueryService queries(&catalog);

  // What the served snapshot must hold: the base corpus plus the batches.
  const uint64_t seq0 = catalog.current_ingest_seq();
  size_t appended_rows = 0;
  // user_end[b]: the first user id not yet appended after b batches.
  std::vector<uint64_t> user_end = {bench.max_user_id + 1};
  auto check_served = [&](const char* after) {
    const auto served = queries.Population({kContinentLat, kContinentLon}, kContinentM);
    const size_t rows = catalog.Current()->dataset().num_rows();
    if (!served.ok() || rows != bench.base_rows + appended_rows ||
        served->tweets != bench.base_continent.tweets_lo + appended_rows ||
        served->unique_users !=
            bench.base_continent.users_lo + (user_end.back() - user_end.front())) {
      bench.Check(std::string("live: served rows or users differ from base plus "
                              "appended after ") + after);
    }
  };

  // The querier: population queries until told to stop.
  std::atomic<bool> stop{false};
  std::atomic<bool> timing{false};
  Samples latency_us;
  uint64_t queries_failed = 0;  // timed queries only, like latency_us
  std::vector<LiveAsk> kept;
  std::thread querier([&] {
    tw::random::Xoshiro256 rng(bench.seed * 31 + 7);
    const std::vector<tw::census::Area> all = tw::census::AllAreas();
    for (size_t q = 0; !stop.load(); ++q) {
      LiveAsk ask;
      static_cast<PopulationAsk&>(ask) = DrawPopulation(rng, all, q);
      const bool timed = timing.load();
      const uint64_t seq_before = catalog.current_ingest_seq();
      const Clock::time_point t0 = Clock::now();
      auto answer = queries.Population({ask.lat, ask.lon}, ask.radius_m);
      if (timed) latency_us.Add(1e6 * SecondsSince(t0));
      const uint64_t seq_after = catalog.current_ingest_seq();
      if (!answer.ok()) {
        if (timed) ++queries_failed;
        continue;
      }
      // One commit version before and after: the answer came from it, and
      // each append advances the version's ingest cursor by one.
      if (q % kSampleEvery == 0 && seq_before == seq_after) {
        ask.answer = *answer;
        ask.batches = static_cast<size_t>(seq_after - seq0);
        kept.push_back(ask);
      }
    }
  });

  // Appends template t as the next batch; `rate`, when non-null, gets
  // its rows/s.
  auto append = [&](size_t t, const char* span_name, Samples* rate) {
    const std::vector<tw::tweetdb::Tweet> rows = stream.Batch(t, user_end.back());
    const Clock::time_point t0 = Clock::now();
    const tw::Status appended = [&] {
      Tracer::Scope span(tracer, span_name);
      return (*writer)->AppendBatch(rows);
    }();
    const double seconds = SecondsSince(t0);
    if (rate != nullptr) rate->Add(static_cast<double>(rows.size()) / seconds);
    bench.Op(appended.ok(), "live: append: " + appended.ToString());
    if (!appended.ok()) return;
    user_end.push_back(user_end.back() + AppendStream::users(t));
    appended_rows += rows.size();
  };
  // Refreshes right after a commit; `times`, when non-null, gets the time
  // until the refresh returned with the commit served.
  auto refresh = [&](Samples* times, const char* after) {
    const Clock::time_point t0 = Clock::now();
    auto swapped = catalog.Refresh();
    if (times != nullptr) times->Add(SecondsSince(t0));
    bench.Op(swapped.ok() && *swapped, std::string("live: refresh after ") + after);
    check_served(after);
  };
  size_t compactions = 0;
  // Compacts; the refresh that follows serves and checks the result.
  auto compact = [&] {
    // A fresh pool per compaction, as the catalog spawns one per refresh.
    tw::ThreadPool compact_pool(CatalogWorkers());
    auto compacted = [&] {
      Tracer::Scope span(tracer, "tweetdb.compact_s");
      return (*writer)->Compact(&compact_pool);
    }();
    ++compactions;
    bench.Op(compacted.ok() && *compacted, "live: compact");
    if (tracer.enabled()) {
      const auto description = tw::tweetdb::DescribeDataset(bench.dataset_path);
      if (description.ok()) {
        tracer.Count("tweetdb.compact_bytes_written",
                     static_cast<double>(description->shard_bytes));
      }
    }
  };

  Samples append_rate, refresh_s, refresh_bulk_s;
  size_t small_batches = 0;
  const size_t warm_rounds = 1;
  Clock::time_point loop_start = Clock::now();
  for (size_t round = 0;; ++round) {
    if (round == warm_rounds) {
      loop_start = Clock::now();
      timing.store(true);
    }
    const bool timed = round >= warm_rounds;
    if (round >= warm_rounds + kProbeRounds &&
        (!subject || SecondsSince(loop_start) >= bench.seconds)) {
      break;
    }
    if (round > 0 && round % kCompactEvery == 0) compact();
    if (BulkRound(round)) {
      append(kBulkTemplate, "tweetdb.append_bulk_ms", nullptr);
      refresh(&refresh_bulk_s, "a bulk append");
    }
    for (size_t a = 0; a < kAppendsPerRound; ++a) {
      append(small_batches++ % kBatchTemplates, "tweetdb.append_batch_ms",
             timed ? &append_rate : nullptr);
    }
    refresh(timed ? &refresh_s : nullptr, "a refresh");
  }
  stop.store(true);
  querier.join();

  // Median over appends: one slow fsync moves a rows/total-seconds ratio.
  if (!append_rate.empty()) bench.metrics["append_rows_per_s"] = append_rate.Median();
  if (!refresh_s.empty()) bench.metrics["refresh_s"] = refresh_s.Median();
  if (!refresh_bulk_s.empty()) bench.metrics["refresh_bulk_s"] = refresh_bulk_s.Median();
  // Per-layer only: the tail did not repeat within the bound (README).
  tracer.Count("serve.live_population_p99_us", latency_us.Quantile(0.99));
  bench.attempted += latency_us.size();
  bench.failed += queries_failed;
  if (queries_failed > 0 && bench.first_failure.empty()) {
    bench.first_failure = "live: population query";
  }
  std::fprintf(stderr, "[perfbench] live: %zu batches (%zu rows), %zu + %zu refreshes, "
               "%zu compactions, %zu queries\n", user_end.size() - 1, appended_rows,
               refresh_bulk_s.size(), refresh_s.size(), compactions, latency_us.size());

  // Sampled querier answers, checked at the end of the run against brute
  // force over the rows the answering snapshot held.
  for (const LiveAsk& ask : kept) {
    bench.deferred.push_back({ask, user_end[ask.batches], "live"});
  }
  if (tracer.enabled()) {
    for (int i = 0; i < 50; ++i) {
      Tracer::Scope span(tracer, "common.pool_spawn_us");
      tw::ThreadPool pool(CatalogWorkers());
    }
  }
}

}  // namespace perfbench

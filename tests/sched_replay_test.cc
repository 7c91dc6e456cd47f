// Engine-integration tests for controlled scheduling (ctest label: sched).
//
// These enforce the acceptance criteria of the schedule-exploration work:
//   - Replay determinism: executing the same Schedule twice yields identical
//     final state (digest over guest memory + thread state), not just the
//     same exit code.
//   - Exploration finds, shrinks and deterministically replays the lost
//     outcome that fence removal + RLE/DSE induces on the corpus programs,
//     within the default budget.
//   - The controlled differential checker (check::RunScheduleDifferential)
//     flags the fence-stripped build and passes an honest one.
//   - Every checked-in tests/schedules/*.sched corpus entry still replays to
//     its recorded outcome.

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/differential.h"
#include "src/sched/explore.h"
#include "src/sched/schedule.h"
#include "src/sched/scheduler.h"
#include "src/support/testseed.h"
#include "tests/sched_corpus.h"

#ifndef POLY_SCHEDULES_DIR
#error "POLY_SCHEDULES_DIR must point at the tests/schedules corpus"
#endif

namespace polynima {
namespace {

// Corpus builds are expensive (compile + lift + optimize + additive
// convergence); share them across tests in this binary.
const recomp::RecompiledBinary& CachedBuild(const std::string& name,
                                            const std::string& variant) {
  static auto* cache =
      new std::map<std::pair<std::string, std::string>,
                   std::unique_ptr<recomp::RecompiledBinary>>();
  auto key = std::make_pair(name, variant);
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache
             ->emplace(key, std::make_unique<recomp::RecompiledBinary>(
                                schedtest::BuildCorpus(name, variant)))
             .first;
  }
  return *it->second;
}

TEST(SchedReplayTest, SameScheduleSameFinalState) {
  uint64_t engine_seed = TestSeed(1);
  SCOPED_TRACE("POLYNIMA_SEED=" + std::to_string(engine_seed));
  const auto& binary = CachedBuild("rle_flag", "fenced");

  // Record a handful of PCT runs, then replay each recording twice; every
  // replay must land on the recorded run's exact final state digest.
  sched::PctOptions pct_options;
  pct_options.expected_length = 256;
  int nondefault_runs = 0;
  for (uint64_t s = 0; s < 8; ++s) {
    sched::PctScheduler pct(engine_seed + s, pct_options);
    sched::RecordingScheduler recorder(&pct, engine_seed);
    sched::Outcome recorded =
        schedtest::RunCorpus(binary, &recorder, engine_seed);
    nondefault_runs += recorder.schedule().decisions.empty() ? 0 : 1;
    for (int replays = 0; replays < 2; ++replays) {
      sched::ReplayScheduler replay(recorder.schedule());
      sched::Outcome replayed =
          schedtest::RunCorpus(binary, &replay, engine_seed);
      EXPECT_EQ(replayed.Key(), recorded.Key())
          << recorder.schedule().Serialize();
      EXPECT_EQ(replayed.state_digest, recorded.state_digest)
          << recorder.schedule().Serialize();
      EXPECT_EQ(replay.skipped_decisions(), 0);
    }
  }
  // The PCT runs must actually perturb the schedule, or this test proves
  // nothing beyond default-order determinism.
  EXPECT_GT(nondefault_runs, 0);
}

TEST(SchedReplayTest, ExploreFindsShrinksAndReplaysFenceBug) {
  uint64_t engine_seed = TestSeed(1);
  SCOPED_TRACE("POLYNIMA_SEED=" + std::to_string(engine_seed));
  const auto& fenced = CachedBuild("rle_flag", "fenced");
  const auto& nofence = CachedBuild("rle_flag", "nofence");

  sched::ExploreOptions options;  // default budget — the acceptance bar
  options.seed = engine_seed;
  sched::DiffReport report = sched::DiffExplore(
      schedtest::MakeRunFn(fenced, engine_seed),
      schedtest::MakeRunFn(nofence, engine_seed), engine_seed, options);

  ASSERT_TRUE(report.diverged) << report.message;
  // Fence removal lets RLE forward the first flag load: the interleaving
  // where the writer lands between the two loads (exit 1) is LOST, not new.
  EXPECT_TRUE(report.missing_in_optimized) << report.message;
  EXPECT_EQ(report.divergence_key, "exit=1") << report.message;
  EXPECT_TRUE(report.replay_deterministic) << report.message;
  EXPECT_LE(report.witness.decisions.size(),
            report.original_witness.decisions.size());

  // The shrunk repro string replays standalone on the fenced side.
  auto reparsed = sched::Schedule::Parse(report.witness.Serialize());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  sched::ReplayScheduler replay(*reparsed);
  sched::Outcome outcome = schedtest::RunCorpus(fenced, &replay, engine_seed);
  EXPECT_EQ(outcome.Key(), report.divergence_key) << report.message;
}

TEST(SchedReplayTest, ControlledDifferentialFlagsFenceStripping) {
  const auto& fenced = CachedBuild("dse_flag", "fenced");
  const auto& nofence = CachedBuild("dse_flag", "nofence");

  check::DifferentialOptions options;
  options.schedules = 48;
  auto result = check::RunScheduleDifferential(
      fenced.program, nofence.program, fenced.image, {}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->divergences, 0);
  ASSERT_FALSE(result->reports.empty());
  // Reports carry a parseable repro string.
  const std::string& report = result->reports.front();
  auto at = report.find("polysched/v1");
  ASSERT_NE(at, std::string::npos) << report;
  EXPECT_TRUE(sched::Schedule::Parse(report.substr(at)).ok()) << report;
}

TEST(SchedReplayTest, ControlledDifferentialPassesHonestBuild) {
  const auto& fenced = CachedBuild("rle_flag", "fenced");
  check::DifferentialOptions options;
  options.schedules = 32;
  auto result = check::RunScheduleDifferential(
      fenced.program, fenced.program, fenced.image, {}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->divergences, 0)
      << (result->reports.empty() ? "" : result->reports.front());
}

TEST(SchedReplayTest, CorpusEntriesReplayToRecordedOutcome) {
  std::filesystem::path dir(POLY_SCHEDULES_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  int entries = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    if (file.path().extension() != ".sched") {
      continue;
    }
    SCOPED_TRACE(file.path().filename().string());
    std::ifstream in(file.path());
    ASSERT_TRUE(in.good());
    std::stringstream buffer;
    buffer << in.rdbuf();
    auto entry = sched::CorpusEntry::Parse(buffer.str());
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    ++entries;

    const auto& binary = CachedBuild(entry->program, entry->variant);
    sched::ReplayScheduler first(entry->schedule);
    sched::Outcome a =
        schedtest::RunCorpus(binary, &first, entry->schedule.seed);
    EXPECT_EQ(a.Key(), entry->expect) << entry->schedule.Serialize();
    EXPECT_EQ(first.skipped_decisions(), 0);
    // Second replay: bit-identical final state, per the determinism bar.
    sched::ReplayScheduler second(entry->schedule);
    sched::Outcome b =
        schedtest::RunCorpus(binary, &second, entry->schedule.seed);
    EXPECT_EQ(b.Key(), a.Key());
    EXPECT_EQ(b.state_digest, a.state_digest);
  }
  // The corpus ships with entries; an empty directory means the test is
  // silently vacuous (e.g. a bad POLY_SCHEDULES_DIR).
  EXPECT_GE(entries, 3);
}

}  // namespace
}  // namespace polynima

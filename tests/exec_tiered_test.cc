// Cross-tier differential suite for the tiered execution backend (ctest
// label: exec).
//
// The acceptance bar is bit-identical observable behavior: for any program,
// schedule and seed, tier 1 (direct-threaded superinstruction bytecode with
// deopt) and tier 2 (native x86 re-emission of the same superinstruction
// stream, behind the same deopt guards) must produce the same exit code,
// output, step count, simulated wall time and final state digest as tier 0
// (the interpreter). These tests enforce that bar four ways:
//   - free-running and mixed-tier-threshold runs of single- and
//     multi-threaded programs, at every tier and across mid-run 0->1->2
//     promotion,
//   - recorded PCT schedules and the checked-in tests/schedules/*.sched
//     corpus replayed under tier 0, tier 1, tier 2 and mid-run tier-up
//     thresholds,
//   - one dedicated test per deopt guard reason (preempt, SMC write,
//     uncovered CFG edge) at each tier proving the guard fires and behavior
//     still matches the interpreter,
//   - hand-built programs that apply every IR operation to edge operands,
//     checked against instcombine's constant folds (src/ir/semantics.h), and
//     every value-computing intrinsic, checked against a reference written
//     out in this file.
//
// Tier 2 requires executable host mappings; on hosts where vm::CodeBuffer
// is unsupported the engine silently caps at tier 1, so the tier-2-specific
// telemetry assertions are skipped there (the identity assertions still
// hold either way).
#include <bit>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/cc/compiler.h"
#include "src/cfg/cfg.h"
#include "src/exec/engine.h"
#include "src/exec/tier2.h"
#include "src/ir/builder.h"
#include "src/ir/semantics.h"
#include "src/ir/verifier.h"
#include "src/lift/lifter.h"
#include "src/obs/report.h"
#include "src/opt/passes.h"
#include "src/sched/schedule.h"
#include "src/sched/scheduler.h"
#include "src/support/strings.h"
#include "src/support/testseed.h"
#include "src/vm/code_buffer.h"
#include "src/vm/vm.h"
#include "src/x86/registers.h"
#include "tests/sched_corpus.h"

#ifndef POLY_SCHEDULES_DIR
#error "POLY_SCHEDULES_DIR must point at the tests/schedules corpus"
#endif

namespace polynima::exec {
namespace {

struct Built {
  binary::Image image;
  lift::LiftedProgram program;
};

Built Build(const std::string& source, int opt = 2, bool optimize = true) {
  cc::CompileOptions options;
  options.name = "exec_tiered_test";
  options.opt_level = opt;
  auto image = cc::Compile(source, options);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  auto graph = cfg::RecoverStatic(*image);
  EXPECT_TRUE(graph.ok());
  auto program = lift::Lift(*image, *graph, {});
  EXPECT_TRUE(program.ok());
  if (optimize) {
    EXPECT_TRUE(opt::RunPipeline(*program->module).ok());
  }
  return {std::move(*image), std::move(*program)};
}

ExecResult RunBuilt(const Built& built, ExecOptions options = {}) {
  vm::ExternalLibrary library;
  Engine engine(built.program, built.image, &library, options);
  return engine.Run();
}

ExecOptions Tiered(int tier, uint64_t threshold = 0) {
  ExecOptions options;
  options.tier = tier;
  options.tier_threshold = threshold;
  options.record_state_digest = true;
  return options;
}

// True when the host can map executable code buffers, i.e. when --tier 2
// actually re-emits native code instead of silently capping at tier 1.
bool Tier2Active() { return vm::CodeBuffer::Supported(); }

// The full observable surface two tiers must agree on.
void ExpectSameRun(const ExecResult& t0, const ExecResult& t1,
                   const std::string& what) {
  EXPECT_EQ(t1.ok, t0.ok) << what;
  EXPECT_EQ(t1.exit_code, t0.exit_code) << what;
  EXPECT_EQ(t1.output, t0.output) << what;
  EXPECT_EQ(t1.fault_message, t0.fault_message) << what;
  EXPECT_EQ(t1.steps, t0.steps) << what;
  EXPECT_EQ(t1.wall_time, t0.wall_time) << what;
  EXPECT_EQ(t1.state_digest, t0.state_digest) << what;
  EXPECT_EQ(t1.miss.has_value(), t0.miss.has_value()) << what;
  if (t1.miss.has_value() && t0.miss.has_value()) {
    EXPECT_EQ(t1.miss->target, t0.miss->target) << what;
    EXPECT_EQ(t1.miss->transfer_address, t0.miss->transfer_address) << what;
  }
}

const char* kComputeSource = R"(
  extern long malloc(long n);
  int main() {
    int* a = (int*)malloc(4096);
    for (long i = 0; i < 1024; i++) a[i] = (int)(i * 7 + 3);
    long sum = 0;
    for (long r = 0; r < 12; r++) {
      for (long i = 0; i < 1024; i++) {
        if (a[i] & 1) sum += a[i]; else sum -= i;
      }
    }
    return (int)(sum & 0xff);
  })";

const char* kThreadedSource = R"(
  extern int pthread_create(long* tid, long attr, long (*fn)(long), long arg);
  extern int pthread_join(long tid, long* ret);
  long total = 0;
  long worker(long n) {
    long acc = 0;
    for (long i = 0; i < n; i++) acc += i * 3 + (i & 7);
    __atomic_fetch_add(&total, acc);
    return 0;
  }
  int main() {
    long tids[4];
    for (int i = 0; i < 4; i++) pthread_create(&tids[i], 0, worker, 200 + i);
    for (int i = 0; i < 4; i++) pthread_join(tids[i], 0);
    return (int)(total % 100000);
  })";

// Minimal shapes first: straight-line code, a phi-carried loop (exercises
// the edge-stub parallel copies), and direct calls (cross-frame return).
TEST(ExecTiered, StraightLineIdentical) {
  Built built = Build("int main() { return 42; }");
  ExecResult t0 = RunBuilt(built, Tiered(0));
  for (int tier : {1, 2}) {
    ExecResult tn = RunBuilt(built, Tiered(tier));
    ExpectSameRun(t0, tn, "straight line tier " + std::to_string(tier));
    EXPECT_EQ(tn.exit_code, 42);
  }
}

TEST(ExecTiered, PhiLoopIdentical) {
  Built built = Build(R"(
    int main() {
      long s = 0;
      for (long i = 0; i < 10; i++) s += i;
      return (int)s;
    })");
  ExecResult t0 = RunBuilt(built, Tiered(0));
  for (int tier : {1, 2}) {
    ExecResult tn = RunBuilt(built, Tiered(tier));
    ExpectSameRun(t0, tn, "phi loop tier " + std::to_string(tier));
    EXPECT_EQ(tn.exit_code, 45);
  }
}

TEST(ExecTiered, DirectCallsIdentical) {
  Built built = Build(R"(
    long f(long x) { return x * 2 + 1; }
    int main() { return (int)(f(3) + f(10)); })");
  ExecResult t0 = RunBuilt(built, Tiered(0));
  for (int tier : {1, 2}) {
    ExecResult tn = RunBuilt(built, Tiered(tier));
    ExpectSameRun(t0, tn, "direct calls tier " + std::to_string(tier));
    EXPECT_EQ(tn.exit_code, 28);
  }
}

TEST(ExecTiered, SingleThreadedIdenticalAcrossTiers) {
  Built built = Build(kComputeSource);
  ExecResult t0 = RunBuilt(built, Tiered(0));
  ExecResult t1 = RunBuilt(built, Tiered(1));
  ExecResult t2 = RunBuilt(built, Tiered(2));
  ASSERT_TRUE(t0.ok) << t0.fault_message;
  ExpectSameRun(t0, t1, "compute tier 1");
  ExpectSameRun(t0, t2, "compute tier 2");
  // Each tier must actually have carried the run, or this proves nothing.
  EXPECT_EQ(t0.tier1_translations, 0u);
  EXPECT_GT(t1.tier1_translations, 0u);
  EXPECT_GT(t1.tier1_instrs, t1.steps / 2) << "tier 1 barely used";
  if (Tier2Active()) {
    EXPECT_GT(t2.tier2_translations, 0u);
    EXPECT_GT(t2.tier2_instrs, t2.steps / 2) << "tier 2 barely used";
  }
}

TEST(ExecTiered, MultithreadedMinClockIdenticalAcrossTiers) {
  Built built = Build(kThreadedSource);
  for (uint64_t seed : {1ull, 7ull, 23ull, 12345ull}) {
    ExecOptions base0 = Tiered(0);
    base0.seed = seed;
    ExecResult t0 = RunBuilt(built, base0);
    ASSERT_TRUE(t0.ok) << t0.fault_message;
    for (int tier : {1, 2}) {
      ExecOptions base = Tiered(tier);
      base.seed = seed;
      ExecResult tn = RunBuilt(built, base);
      ExpectSameRun(t0, tn,
                    "seed " + std::to_string(seed) + " tier " +
                        std::to_string(tier));
      EXPECT_GT(tn.tier1_instrs + tn.tier2_instrs, 0u);
      if (tier == 2 && Tier2Active()) {
        EXPECT_GT(tn.tier2_instrs, 0u);
      }
    }
  }
}

TEST(ExecTiered, MixedTierUpMidRun) {
  // A mid-range threshold makes functions tier up only after the run has
  // interpreted them for a while: the transition itself must be invisible.
  Built built = Build(kThreadedSource);
  ExecResult t0 = RunBuilt(built, Tiered(0));
  for (int tier : {1, 2}) {
    for (uint64_t threshold : {1ull, 16ull, 200ull}) {
      ExecResult mixed = RunBuilt(built, Tiered(tier, threshold));
      ExpectSameRun(t0, mixed,
                    "tier " + std::to_string(tier) + " threshold " +
                        std::to_string(threshold));
      EXPECT_GT(mixed.tier1_translations, 0u)
          << "threshold " << threshold << " never tiered up";
      EXPECT_LT(mixed.tier1_instrs + mixed.tier2_instrs, mixed.steps)
          << "threshold " << threshold << " should leave a tier-0 warmup";
    }
    // A threshold beyond the whole run must behave as pure tier 0.
    ExecResult cold = RunBuilt(built, Tiered(tier, 1u << 30));
    ExpectSameRun(t0, cold, "cold threshold tier " + std::to_string(tier));
    EXPECT_EQ(cold.tier1_translations, 0u);
    EXPECT_EQ(cold.tier2_translations, 0u);
  }
}

TEST(ExecTiered, MidRunPromotionOneToTwo) {
  // Tier-2 re-emission fires at twice the tier-1 threshold, so a nonzero
  // threshold stages the run through all three tiers: interpret, then
  // direct-threaded bytecode, then native. Every 0->1 and 1->2 promotion
  // happens mid-run and must be invisible in the observable surface.
  if (!Tier2Active()) {
    GTEST_SKIP() << "host cannot map executable code buffers";
  }
  // Heat accrues per activation, so a function called in a loop climbs
  // through both thresholds: interpret, then tier-1, then native.
  Built built = Build(R"(
    long work(long x) {
      long s = 0;
      for (long i = 0; i < 50; i++) s += (x + i) * 3;
      return s;
    }
    int main() {
      long acc = 0;
      for (long i = 0; i < 300; i++) acc += work(i);
      return (int)(acc & 0xff);
    })");
  ExecResult t0 = RunBuilt(built, Tiered(0));
  ASSERT_TRUE(t0.ok) << t0.fault_message;
  bool staged = false;
  for (uint64_t threshold : {4ull, 32ull}) {
    ExecResult mixed = RunBuilt(built, Tiered(2, threshold));
    ExpectSameRun(t0, mixed, "promote threshold " + std::to_string(threshold));
    EXPECT_GT(mixed.tier1_translations, 0u);
    EXPECT_GT(mixed.tier2_translations, 0u)
        << "threshold " << threshold << " never reached tier 2";
    // At least one configuration must genuinely split the run between the
    // bytecode and native tiers (instructions retired in both).
    staged |= mixed.tier1_instrs > 0 && mixed.tier2_instrs > 0;
  }
  EXPECT_TRUE(staged) << "no run mixed tier-1 and tier-2 execution";
}

TEST(ExecTiered, RecordedPctSchedulesReplayIdenticalAcrossTiers) {
  uint64_t engine_seed = TestSeed(1);
  SCOPED_TRACE("POLYNIMA_SEED=" + std::to_string(engine_seed));
  const recomp::RecompiledBinary binary =
      schedtest::BuildCorpus("rle_flag", "fenced");

  int nondefault_runs = 0;
  int tier2_preempt_runs = 0;
  uint64_t preempt_deopts = 0;
  for (uint64_t s = 0; s < 6; ++s) {
    // Record under tier 0 — the semantic reference.
    sched::PctOptions pct_options;
    pct_options.expected_length = 256;
    sched::PctScheduler pct(engine_seed + s, pct_options);
    sched::RecordingScheduler recorder(&pct, engine_seed);
    sched::Outcome recorded =
        schedtest::RunCorpus(binary, &recorder, engine_seed);
    nondefault_runs += recorder.schedule().decisions.empty() ? 0 : 1;

    // Replay the exact recording under every tier configuration.
    for (int tier : {1, 2}) {
      for (uint64_t threshold : {0ull, 8ull}) {
        SCOPED_TRACE("pct " + std::to_string(s) + " tier " +
                     std::to_string(tier) + " threshold " +
                     std::to_string(threshold));
        ExecOptions base;
        base.tier = tier;
        base.tier_threshold = threshold;
        sched::ReplayScheduler replay(recorder.schedule());
        sched::Outcome replayed =
            schedtest::RunCorpus(binary, &replay, engine_seed, base);
        EXPECT_EQ(replayed.Key(), recorded.Key())
            << recorder.schedule().Serialize();
        EXPECT_EQ(replayed.state_digest, recorded.state_digest)
            << recorder.schedule().Serialize();
        EXPECT_EQ(replay.skipped_decisions(), 0);
      }
    }

    // Count preempt deopts at each eager tier to prove the guard carried
    // the controlled run rather than the tier silently staying off.
    for (int tier : {1, 2}) {
      sched::ReplayScheduler replay(recorder.schedule());
      exec::ExecOptions options;
      options.tier = tier;
      options.seed = engine_seed;
      options.scheduler = &replay;
      ExecResult r = binary.Run({}, options);
      preempt_deopts +=
          r.deopts_by_reason[static_cast<int>(DeoptReason::kPreempt)];
      if (tier == 2) {
        // Under a controlled scheduler native batches never run (kSingle
        // steps drive the tier-1 executor), but native code is installed
        // and the preempt guard must still fire on those frames.
        tier2_preempt_runs +=
            r.tier2_translations > 0 &&
                    r.deopts_by_reason[static_cast<int>(
                        DeoptReason::kPreempt)] > 0
                ? 1
                : 0;
      }
    }
  }
  EXPECT_GT(nondefault_runs, 0);
  EXPECT_GT(preempt_deopts, 0u);
  if (Tier2Active()) {
    // At least one recorded schedule must have preempted a thread mid-way
    // through a natively executing function.
    EXPECT_GT(tier2_preempt_runs, 0);
  }
}

TEST(ExecTiered, CorpusScheduleFilesIdenticalAcrossTiers) {
  std::filesystem::path dir(POLY_SCHEDULES_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<recomp::RecompiledBinary>>
      builds;
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

    auto key = std::make_pair(entry->program, entry->variant);
    auto it = builds.find(key);
    if (it == builds.end()) {
      it = builds
               .emplace(key, std::make_unique<recomp::RecompiledBinary>(
                                 schedtest::BuildCorpus(entry->program,
                                                        entry->variant)))
               .first;
    }
    const recomp::RecompiledBinary& binary = *it->second;

    sched::ReplayScheduler tier0(entry->schedule);
    sched::Outcome a =
        schedtest::RunCorpus(binary, &tier0, entry->schedule.seed);
    EXPECT_EQ(a.Key(), entry->expect) << entry->schedule.Serialize();

    // Each .sched entry replays identically under eager tier 1, eager
    // tier 2, and a mid-run tier-up threshold (mixed 0/1/2 execution).
    struct Config {
      int tier;
      uint64_t threshold;
    };
    for (Config config : {Config{1, 0}, Config{2, 0}, Config{2, 8}}) {
      SCOPED_TRACE("tier " + std::to_string(config.tier) + " threshold " +
                   std::to_string(config.threshold));
      ExecOptions base;
      base.tier = config.tier;
      base.tier_threshold = config.threshold;
      sched::ReplayScheduler tiered(entry->schedule);
      sched::Outcome b =
          schedtest::RunCorpus(binary, &tiered, entry->schedule.seed, base);
      EXPECT_EQ(b.Key(), a.Key()) << entry->schedule.Serialize();
      EXPECT_EQ(b.state_digest, a.state_digest)
          << entry->schedule.Serialize();
      EXPECT_EQ(tiered.skipped_decisions(), 0);
    }
  }
  EXPECT_GE(entries, 3);
}

TEST(ExecTiered, DeoptSmcWrite) {
  // A store into the image's executable range (code loads at
  // binary::kCodeBase) must transfer to the interpreter before executing,
  // and the run must end exactly as tier 0 ends it.
  Built built = Build(R"(
    int main() {
      long* p = (long*)0x400000;   // binary::kCodeBase
      *p = 42;
      return (int)*p;
    })");
  ExecResult t0 = RunBuilt(built, Tiered(0));
  EXPECT_EQ(t0.deopts, 0u);
  for (int tier : {1, 2}) {
    ExecResult tn = RunBuilt(built, Tiered(tier));
    ExpectSameRun(t0, tn, "smc write tier " + std::to_string(tier));
    EXPECT_GE(tn.deopts_by_reason[static_cast<int>(DeoptReason::kSmcWrite)],
              1u);
  }
}

TEST(ExecTiered, DeoptSmcWriteFromNativeCode) {
  // The SMC guard must fire from inside a tier-2 native function: the store
  // helper refuses the write, control exits native code through the deopt
  // path, and the interpreter resumes at the store — exactly as tier 1.
  if (!Tier2Active()) {
    GTEST_SKIP() << "host cannot map executable code buffers";
  }
  Built built = Build(R"(
    int main() {
      long sum = 0;
      for (long i = 0; i < 64; i++) sum += i;   // heat before the guard trips
      long* p = (long*)0x400000;   // binary::kCodeBase
      *p = sum;
      return (int)(*p & 0x7f);
    })");
  ExecResult t0 = RunBuilt(built, Tiered(0));
  ExecResult t2 = RunBuilt(built, Tiered(2));
  ExpectSameRun(t0, t2, "smc write from native");
  EXPECT_GT(t2.tier2_instrs, 0u) << "tier 2 never executed";
  EXPECT_GE(t2.deopts_by_reason[static_cast<int>(DeoptReason::kSmcWrite)], 1u);
}

TEST(ExecTiered, DeoptUncoveredEdge) {
  // An indirect call through a variable lifts to a dispatch switch whose
  // default edge is a cfmiss stub — uncovered by the translator. Taking it
  // at runtime (static CFG recovery does not know the callee here) must
  // deopt, and the surfaced control-flow miss must match tier 0's exactly.
  Built built = Build(R"(
    long add_one(long x) { return x + 1; }
    int main() {
      long (*p)(long) = add_one;
      return (int)p(41);
    })",
                      /*opt=*/0, /*optimize=*/false);
  ExecResult t0 = RunBuilt(built, Tiered(0));
  for (int tier : {1, 2}) {
    ExecResult tn = RunBuilt(built, Tiered(tier));
    ExpectSameRun(t0, tn, "uncovered edge tier " + std::to_string(tier));
    if (t0.miss.has_value()) {
      // The miss surfaced mid-function: the translated tier must have
      // reached it through the uncovered-edge guard.
      EXPECT_GE(
          tn.deopts_by_reason[static_cast<int>(DeoptReason::kUncoveredEdge)],
          1u);
    }
  }
}

TEST(ExecTiered, StepLimitIdenticalAcrossTiers) {
  Built built = Build(R"(
    int main() {
      long x = 1;
      while (x) { x = x * 2 + 1; }
      return 0;
    })");
  ExecOptions base0 = Tiered(0);
  base0.max_steps = 100000;
  ExecResult t0 = RunBuilt(built, base0);
  EXPECT_FALSE(t0.ok);
  EXPECT_NE(t0.fault_message.find("step limit"), std::string::npos);
  for (int tier : {1, 2}) {
    ExecOptions base = Tiered(tier);
    base.max_steps = 100000;
    ExecResult tn = RunBuilt(built, base);
    ExpectSameRun(t0, tn, "step limit tier " + std::to_string(tier));
  }
}

TEST(ExecTiered, NestedCallbacksThroughMemoizedDispatch) {
  // qsort's comparator re-enters lifted code through the dispatcher while a
  // translated frame is live below it, and the comparator itself calls
  // another lifted function — exercising the entry-PC table and cross-tier
  // call/return in both directions.
  Built built = Build(R"(
    extern void qsort(long* base, long n, long size, int (*c)(long*, long*));
    long keyof(long v) { return v % 10; }
    long data[6] = {31, 12, 53, 24, 45, 6};
    int cmp(long* a, long* b) {
      long ka = keyof(*a);
      long kb = keyof(*b);
      if (ka < kb) return -1;
      if (ka > kb) return 1;
      return 0;
    }
    int main() {
      qsort(data, 6, 8, cmp);
      return (int)(data[0] * 100 + data[5]);
    })");
  ExecResult t0 = RunBuilt(built, Tiered(0));
  ASSERT_TRUE(t0.ok) << t0.fault_message;
  EXPECT_EQ(t0.exit_code, 3106);
  for (int tier : {1, 2}) {
    ExecResult tn = RunBuilt(built, Tiered(tier));
    ExpectSameRun(t0, tn, "nested callbacks tier " + std::to_string(tier));
    EXPECT_GT(tn.tier1_instrs + tn.tier2_instrs, 0u);
  }
}

// ---------------------------------------------------------------------------
// Execution-tier telemetry (src/obs/tierprof.h, DESIGN.md §4h). The recorder
// is an observer in the strict sense: attaching it must leave the entire
// observable run surface — including the state digest — bit-identical, while
// the artifact it produces must validate and agree exactly with the engine's
// own tier counters.

int64_t TotalsField(const json::Value& doc, const char* name) {
  const json::Value* totals = doc.Find("totals");
  EXPECT_NE(totals, nullptr);
  const json::Value* field = totals->Find(name);
  EXPECT_NE(field, nullptr) << name;
  return field != nullptr ? field->as_int() : -1;
}

TEST(ExecTierProf, RecorderInvisibleAcrossTiers) {
  Built built = Build(kComputeSource);
  for (int tier : {0, 1, 2}) {
    ExecResult off = RunBuilt(built, Tiered(tier));
    obs::TierProf tierprof;
    ExecOptions options = Tiered(tier);
    options.obs.tierprof = &tierprof;
    ExecResult on = RunBuilt(built, options);
    ExpectSameRun(off, on, "tier-prof on, tier " + std::to_string(tier));
    if (tier >= 1) {
      EXPECT_GT(tierprof.events_recorded(), 0u);
    }
  }
}

TEST(ExecTierProf, RecorderInvisibleThreadedAndMidRunPromotion) {
  Built built = Build(kThreadedSource);
  for (uint64_t seed : {1ull, 23ull}) {
    for (uint64_t threshold : {0ull, 8ull}) {
      ExecOptions off_options = Tiered(2, threshold);
      off_options.seed = seed;
      ExecResult off = RunBuilt(built, off_options);
      obs::TierProf tierprof;
      ExecOptions on_options = off_options;
      on_options.obs.tierprof = &tierprof;
      ExecResult on = RunBuilt(built, on_options);
      ExpectSameRun(off, on,
                    "threaded seed " + std::to_string(seed) + " threshold " +
                        std::to_string(threshold));
    }
  }
}

TEST(ExecTierProf, RecorderInvisibleOnCorpusScheduleReplay) {
  // Every checked-in .sched replay must reach the same outcome and digest
  // with the recorder attached — controlled scheduling is the most
  // perturbation-sensitive mode (one extra RNG draw or reordered decision
  // shows up immediately as a digest mismatch).
  std::filesystem::path dir(POLY_SCHEDULES_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::map<std::pair<std::string, std::string>,
           std::unique_ptr<recomp::RecompiledBinary>>
      builds;
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

    auto key = std::make_pair(entry->program, entry->variant);
    auto it = builds.find(key);
    if (it == builds.end()) {
      it = builds
               .emplace(key, std::make_unique<recomp::RecompiledBinary>(
                                 schedtest::BuildCorpus(entry->program,
                                                        entry->variant)))
               .first;
    }
    const recomp::RecompiledBinary& binary = *it->second;

    // Mid-run promotion under tier 2 exercises every lifecycle hook.
    ExecOptions base;
    base.tier = 2;
    base.tier_threshold = 8;
    sched::ReplayScheduler plain(entry->schedule);
    sched::Outcome off =
        schedtest::RunCorpus(binary, &plain, entry->schedule.seed, base);
    EXPECT_EQ(off.Key(), entry->expect) << entry->schedule.Serialize();

    obs::TierProf tierprof;
    ExecOptions instrumented = base;
    instrumented.obs.tierprof = &tierprof;
    sched::ReplayScheduler replay(entry->schedule);
    sched::Outcome on = schedtest::RunCorpus(binary, &replay,
                                             entry->schedule.seed,
                                             instrumented);
    EXPECT_EQ(on.Key(), off.Key()) << entry->schedule.Serialize();
    EXPECT_EQ(on.state_digest, off.state_digest)
        << entry->schedule.Serialize();
    EXPECT_EQ(replay.skipped_decisions(), 0);
    EXPECT_TRUE(obs::ValidateTierProfJson(tierprof.ToJson()).ok());
  }
  EXPECT_GE(entries, 3);
}

TEST(ExecTierProf, ArtifactValidatesAndMatchesEngineCounters) {
  Built built = Build(kComputeSource);
  obs::TierProf tierprof;
  ExecOptions options = Tiered(2, 4);  // staged 0 -> 1 -> 2 promotion
  options.obs.tierprof = &tierprof;
  ExecResult r = RunBuilt(built, options);
  ASSERT_TRUE(r.ok) << r.fault_message;

  json::Value doc = tierprof.ToJson();
  Status valid = obs::ValidateTierProfJson(doc);
  ASSERT_TRUE(valid.ok()) << valid.ToString();

  // The artifact's accounting must agree exactly with the engine's own
  // exec.* counters — same events, independently tallied.
  EXPECT_EQ(TotalsField(doc, "tier1_translations"),
            static_cast<int64_t>(r.tier1_translations));
  EXPECT_EQ(TotalsField(doc, "tier2_translations"),
            static_cast<int64_t>(r.tier2_translations));
  EXPECT_EQ(TotalsField(doc, "deopts"), static_cast<int64_t>(r.deopts));
  EXPECT_GT(TotalsField(doc, "tier_ups"), 0);

  // Residency attribution: tier 1/2 steps must match the engine's
  // instruction counters exactly, and the three tiers together must cover
  // every step except dispatcher-boundary steps (thread entry and top-level
  // tail transfers retire no guest instruction inside any function).
  const json::Value* residency = doc.Find("totals")->Find("residency");
  ASSERT_NE(residency, nullptr);
  uint64_t res0 = residency->Find("tier0")->as_uint();
  uint64_t res1 = residency->Find("tier1")->as_uint();
  uint64_t res2 = residency->Find("tier2")->as_uint();
  EXPECT_EQ(res1, r.tier1_instrs);
  EXPECT_EQ(res2, r.tier2_instrs);
  EXPECT_LE(res0 + res1 + res2, r.steps);
  EXPECT_GT(res0 + res1 + res2, r.steps - 16) << "dispatch slack too large";

  // The artifact renders (greppable residency line included) and the
  // surrounding run report validates with the tierprof section inlined.
  std::string rendered = obs::RenderTierProf(doc, 10);
  EXPECT_NE(rendered.find("residency (steps retired):"), std::string::npos);
  if (Tier2Active()) {
    EXPECT_NE(rendered.find("tier2="), std::string::npos);
  }
}

TEST(ExecTierProf, DeoptForensicsRecordReasonAndSite) {
  // The SMC-write guard run from DeoptSmcWrite, instrumented: the artifact
  // must carry the per-reason histogram and at least one ring event tagged
  // smc_write at the resident tier.
  Built built = Build(R"(
    int main() {
      long* p = (long*)0x400000;   // binary::kCodeBase
      *p = 42;
      return (int)*p;
    })");
  obs::TierProf tierprof;
  ExecOptions options = Tiered(1);
  options.obs.tierprof = &tierprof;
  ExecResult r = RunBuilt(built, options);
  EXPECT_GE(r.deopts_by_reason[static_cast<int>(DeoptReason::kSmcWrite)], 1u);

  json::Value doc = tierprof.ToJson();
  ASSERT_TRUE(obs::ValidateTierProfJson(doc).ok());
  const json::Value* by_reason = doc.Find("totals")->Find("deopts_by_reason");
  ASSERT_NE(by_reason, nullptr);
  EXPECT_EQ(by_reason->Find("smc_write")->as_uint(),
            r.deopts_by_reason[static_cast<int>(DeoptReason::kSmcWrite)]);
  // Forensic ring: the deopt event survives with kind/reason intact.
  const json::Value* threads = doc.Find("threads");
  ASSERT_NE(threads, nullptr);
  bool found_deopt_event = false;
  for (const json::Value& thread : threads->as_array()) {
    for (const json::Value& ev : thread.Find("events")->as_array()) {
      if (ev.Find("kind")->as_string() == "deopt" &&
          ev.Find("reason")->as_string() == "smc_write") {
        found_deopt_event = true;
      }
    }
  }
  EXPECT_TRUE(found_deopt_event);
}

TEST(ExecTierProf, PerfMapRangesInsideInstalledCodeBuffers) {
  if (!Tier2Active()) {
    GTEST_SKIP() << "host cannot map executable code buffers";
  }
  Built built = Build(kComputeSource);
  obs::TierProf tierprof;
  ExecOptions options = Tiered(2);
  options.obs.tierprof = &tierprof;
  vm::ExternalLibrary library;
  Engine engine(built.program, built.image, &library, options);
  ExecResult r = engine.Run();
  ASSERT_TRUE(r.ok) << r.fault_message;
  ASSERT_GT(r.tier2_translations, 0u);

  const Tier2Backend* tier2 = engine.tier2_backend();
  ASSERT_NE(tier2, nullptr);
  const auto& mappings = tier2->buffer().mappings();
  ASSERT_FALSE(mappings.empty());
  ASSERT_FALSE(tierprof.installed().empty());

  // Every perf-map symbol (entry thunk + one per translated function) must
  // fall entirely inside one installed W^X mapping.
  for (const obs::TierProf::InstalledRange& range : tierprof.installed()) {
    EXPECT_GT(range.size, 0u) << range.symbol;
    bool inside = false;
    for (const vm::CodeBuffer::Mapping& m : mappings) {
      uint64_t lo = reinterpret_cast<uint64_t>(m.addr);
      if (range.addr >= lo && range.addr + range.size <= lo + m.length) {
        inside = true;
      }
    }
    EXPECT_TRUE(inside) << range.symbol << " outside every code mapping";
  }
  // One range per translation plus the shared entry thunk.
  EXPECT_EQ(tierprof.installed().size(), r.tier2_translations + 1);
  std::string text = tierprof.PerfMapText();
  EXPECT_NE(text.find("tier2:"), std::string::npos);
  EXPECT_NE(text.find("tier2:<entry-thunk>"), std::string::npos);
}

TEST(ExecTierProf, HelperCallCountsAttributedUnderTier2) {
  if (!Tier2Active()) {
    GTEST_SKIP() << "host cannot map executable code buffers";
  }
  // kComputeSource is load/store heavy: the out-of-line guest-memory
  // helpers must show up against the functions that ran natively.
  Built built = Build(kComputeSource);
  obs::TierProf tierprof;
  ExecOptions options = Tiered(2);
  options.obs.tierprof = &tierprof;
  ExecResult r = RunBuilt(built, options);
  ASSERT_TRUE(r.ok) << r.fault_message;
  ASSERT_GT(r.tier2_instrs, 0u);

  json::Value doc = tierprof.ToJson();
  ASSERT_TRUE(obs::ValidateTierProfJson(doc).ok());
  const json::Value* helpers = doc.Find("totals")->Find("helper_calls");
  ASSERT_NE(helpers, nullptr);
  const json::Value* reads = helpers->Find("mem_read");
  const json::Value* writes = helpers->Find("mem_write");
  ASSERT_NE(reads, nullptr);
  ASSERT_NE(writes, nullptr);
  EXPECT_GT(reads->as_uint(), 0u);
  EXPECT_GT(writes->as_uint(), 0u);
}


// ---------------------------------------------------------------------------
// IR semantics property (src/ir/semantics.h): on edge operands, tiers 0, 1
// and 2 and instcombine's constant folder compute every operation alike.
// The programs are built by hand so each operation reaches the executors
// exactly as written, with constant operands the folder can see.
// ---------------------------------------------------------------------------

constexpr uint64_t kEdgeOperands[] = {
    0, 1, 63, 64, 65, uint64_t{INT64_MAX}, uint64_t{1} << 63, ~uint64_t{0}};
constexpr ir::Op kBinaryOps[] = {
    ir::Op::kAdd, ir::Op::kSub,  ir::Op::kMul, ir::Op::kSDiv, ir::Op::kSRem,
    ir::Op::kUDiv, ir::Op::kURem, ir::Op::kAnd, ir::Op::kOr,  ir::Op::kXor,
    ir::Op::kShl, ir::Op::kLShr, ir::Op::kAShr};
constexpr ir::Pred kPreds[] = {
    ir::Pred::kEq,  ir::Pred::kNe,  ir::Pred::kSlt, ir::Pred::kSle,
    ir::Pred::kSgt, ir::Pred::kSge, ir::Pred::kUlt, ir::Pred::kUle,
    ir::Pred::kUgt, ir::Pred::kUge};
constexpr int kSExtWidths[] = {1, 8, 16, 32, 63, 64};
constexpr ir::RmwOp kRmwOps[] = {ir::RmwOp::kAdd, ir::RmwOp::kSub,
                                 ir::RmwOp::kAnd, ir::RmwOp::kOr,
                                 ir::RmwOp::kXor, ir::RmwOp::kXchg};
// What each RMW op stores, as the binop the folder evaluates. xchg stores
// its operand, so its entry is unused.
constexpr ir::Op kRmwBinops[] = {ir::Op::kAdd, ir::Op::kSub, ir::Op::kAnd,
                                 ir::Op::kOr,  ir::Op::kXor, ir::Op::kAdd};

// The pairs that must fault, written out independently of semantics.h:
// every divide by zero, and the signed INT64_MIN / -1 overflow.
bool Faults(ir::Op op, uint64_t a, uint64_t b) {
  bool div = op == ir::Op::kSDiv || op == ir::Op::kSRem ||
             op == ir::Op::kUDiv || op == ir::Op::kURem;
  bool is_signed = op == ir::Op::kSDiv || op == ir::Op::kSRem;
  return div && (b == 0 || (is_signed && a == uint64_t{1} << 63 &&
                            b == ~uint64_t{0}));
}

// The intrinsics that compute a value from their operands.
constexpr ir::Intrinsic kValueIntrinsics[] = {
    ir::Intrinsic::kParity,        ir::Intrinsic::kHelperPaddd,
    ir::Intrinsic::kHelperPsubd,   ir::Intrinsic::kHelperPmulld,
    ir::Intrinsic::kSimdPaddd,     ir::Intrinsic::kSimdPsubd,
    ir::Intrinsic::kSimdPmulld,    ir::Intrinsic::kHelperMulh,
    ir::Intrinsic::kHelperSdiv128, ir::Intrinsic::kHelperSrem128};

int Arity(ir::Intrinsic intrinsic) {
  switch (intrinsic) {
    case ir::Intrinsic::kParity:
      return 1;
    case ir::Intrinsic::kHelperSdiv128:
    case ir::Intrinsic::kHelperSrem128:
      return 3;
    default:
      return 2;
  }
}

// Two independent 32-bit lanes of `a` and `b`, combined by `f`.
uint64_t Lanes(uint64_t a, uint64_t b,
               const std::function<uint32_t(uint32_t, uint32_t)>& f) {
  auto lane = [&](int shift) {
    return uint64_t{f(static_cast<uint32_t>(a >> shift),
                      static_cast<uint32_t>(b >> shift))}
           << shift;
  };
  return lane(0) | lane(32);
}

// What `intrinsic` yields on operands (a, b, c), or nullopt where it must
// fault; written out independently of the engine. sdiv128/srem128 divide
// a:b by c by unsigned long division of the magnitudes.
std::optional<uint64_t> IntrinsicValue(ir::Intrinsic intrinsic, uint64_t a,
                                       uint64_t b, uint64_t c) {
  switch (intrinsic) {
    case ir::Intrinsic::kParity:
      return std::popcount(a & 0xff) % 2 == 0 ? 1 : 0;
    case ir::Intrinsic::kHelperPaddd:
    case ir::Intrinsic::kSimdPaddd:
      return Lanes(a, b, std::plus<uint32_t>());
    case ir::Intrinsic::kHelperPsubd:
    case ir::Intrinsic::kSimdPsubd:
      return Lanes(a, b, std::minus<uint32_t>());
    case ir::Intrinsic::kHelperPmulld:
    case ir::Intrinsic::kSimdPmulld:
      return Lanes(a, b, std::multiplies<uint32_t>());
    case ir::Intrinsic::kHelperMulh: {
      // The signed high half from the unsigned one.
      const auto full = static_cast<unsigned __int128>(a) * b;
      return static_cast<uint64_t>(full >> 64) -
             (static_cast<int64_t>(a) < 0 ? b : 0) -
             (static_cast<int64_t>(b) < 0 ? a : 0);
    }
    case ir::Intrinsic::kHelperSdiv128:
    case ir::Intrinsic::kHelperSrem128: {
      const bool negative_dividend = static_cast<int64_t>(a) < 0;
      const bool negative_quotient =
          negative_dividend != (static_cast<int64_t>(c) < 0);
      unsigned __int128 n = (static_cast<unsigned __int128>(a) << 64) | b;
      n = negative_dividend ? -n : n;
      const uint64_t d = static_cast<int64_t>(c) < 0 ? -c : c;
      if (d == 0) {
        return std::nullopt;
      }
      const unsigned __int128 q = n / d;
      // The quotient must fit in 64 bits: up to 2^63 when negative.
      if (q > (negative_quotient ? uint64_t{1} << 63 : uint64_t{INT64_MAX})) {
        return std::nullopt;
      }
      if (intrinsic == ir::Intrinsic::kHelperSdiv128) {
        const auto quotient = static_cast<uint64_t>(q);
        return negative_quotient ? -quotient : quotient;
      }
      const auto remainder = static_cast<uint64_t>(n % d);
      return negative_dividend ? -remainder : remainder;
    }
    default:
      ADD_FAILURE() << "no value: " << ir::InfoOf(intrinsic).name;
      return std::nullopt;
  }
}

struct SemCase {
  enum Kind { kBinary, kICmp, kSExt, kRmw, kIntrinsic } kind;
  int op;  // ir::Op, ir::Pred, sext width, index into kRmwOps or Intrinsic
  uint64_t a, b;
  uint64_t c = 0;  // an intrinsic's third operand
};

std::string Describe(const SemCase& c) {
  std::string what;
  switch (c.kind) {
    case SemCase::kBinary:
      what = ir::OpName(static_cast<ir::Op>(c.op));
      break;
    case SemCase::kICmp:
      what = StrCat("icmp ", ir::PredName(static_cast<ir::Pred>(c.op)));
      break;
    case SemCase::kSExt:
      what = StrCat("sext from ", c.op);
      break;
    case SemCase::kRmw:
      what = StrCat("atomicrmw ", kRmwOps[c.op] == ir::RmwOp::kXchg
                                      ? "xchg"
                                      : ir::OpName(kRmwBinops[c.op]));
      break;
    case SemCase::kIntrinsic:
      what = ir::InfoOf(static_cast<ir::Intrinsic>(c.op)).name;
      if (Arity(static_cast<ir::Intrinsic>(c.op)) == 3) {
        return StrCat(what, "(", static_cast<int64_t>(c.a), ", ",
                      static_cast<int64_t>(c.b), ", ",
                      static_cast<int64_t>(c.c), ")");
      }
      break;
  }
  return StrCat(what, "(", static_cast<int64_t>(c.a), ", ",
                static_cast<int64_t>(c.b), ")");
}

// Appends `c` to the builder's block and returns the values it yields. For
// the folder an atomicrmw becomes what it must leave behind: the old value,
// then the binop it applies (xchg: the operand).
std::vector<ir::Value*> EmitCase(ir::IRBuilder& b, const SemCase& c,
                                 bool for_folder) {
  switch (c.kind) {
    case SemCase::kBinary:
      return {b.Binary(static_cast<ir::Op>(c.op), b.Const(c.a), b.Const(c.b))};
    case SemCase::kICmp:
      return {b.ICmp(static_cast<ir::Pred>(c.op), b.Const(c.a), b.Const(c.b))};
    case SemCase::kSExt:
      return {b.SExt(b.Const(c.a), c.op)};
    case SemCase::kRmw: {
      const bool xchg = kRmwOps[c.op] == ir::RmwOp::kXchg;
      if (for_folder) {
        ir::Value* stored =
            xchg ? static_cast<ir::Value*>(b.Const(c.b))
                 : b.Binary(kRmwBinops[c.op], b.Const(c.a), b.Const(c.b));
        return {b.Const(c.a), stored};
      }
      ir::Value* cell = b.Const(static_cast<int64_t>(binary::kHeapBase));
      b.Store(8, cell, b.Const(c.a));
      ir::Value* old = b.AtomicRmw(kRmwOps[c.op], 8, cell, b.Const(c.b));
      return {old, b.Load(8, cell)};
    }
    case SemCase::kIntrinsic: {
      const auto intrinsic = static_cast<ir::Intrinsic>(c.op);
      std::vector<ir::Value*> args = {b.Const(c.a), b.Const(c.b),
                                      b.Const(c.c)};
      args.resize(static_cast<size_t>(Arity(intrinsic)));
      return {b.CallIntrinsic(intrinsic, args)};
    }
  }
  return {};
}

// A program whose entry prints every value `cases` yield, space-separated.
Built SemanticsProgram(const std::vector<SemCase>& cases) {
  Built built;
  lift::LiftedProgram& program = built.program;
  program.module = std::make_shared<ir::Module>();
  ir::Module& m = *program.module;
  for (int i = 0; i < x86::kNumGprs; ++i) {
    m.AddGlobal("vr_" + x86::RegName(static_cast<x86::Reg>(i), 8),
                /*is_thread_local=*/true, 0);
  }
  ir::Global* rdi = m.GetGlobal("vr_rdi");
  program.externals = {"print_i64", "print_char"};
  ir::Function* main_fn = m.AddFunction("main", 0, true);
  ir::IRBuilder b(&m);
  b.SetInsertBlock(main_fn->AddBlock("entry"));
  for (const SemCase& c : cases) {
    for (ir::Value* v : EmitCase(b, c, /*for_folder=*/false)) {
      b.GStore(rdi, v);
      b.CallIntrinsic(ir::Intrinsic::kExtCall, {b.Const(0)});
      b.GStore(rdi, b.Const(' '));
      b.CallIntrinsic(ir::Intrinsic::kExtCall, {b.Const(1)});
    }
  }
  b.GStore(m.GetGlobal("vr_rax"), b.Const(0));
  b.Ret(b.Const(static_cast<int64_t>(binary::kProgramExitMagic)));
  EXPECT_TRUE(ir::Verify(m).ok());
  program.functions_by_entry = {{0x1000, main_fn}};
  program.entry = 0x1000;
  return built;
}

// instcombine's fold of each value `cases` yield; an unfolded value (not a
// constant after the pass) reads as nullopt.
std::vector<std::optional<int64_t>> Folded(const std::vector<SemCase>& cases) {
  ir::Module m;
  ir::Global* sink = m.AddGlobal("sink", true, 0);
  ir::Function* f = m.AddFunction("fold", 0, false);
  ir::IRBuilder b(&m);
  b.SetInsertBlock(f->AddBlock("entry"));
  for (const SemCase& c : cases) {
    for (ir::Value* v : EmitCase(b, c, /*for_folder=*/true)) {
      b.GStore(sink, v);
    }
  }
  b.Ret();
  opt::InstCombine(*f, m);
  std::vector<std::optional<int64_t>> out;
  for (const auto& inst : f->entry()->insts()) {
    if (inst->op() == ir::Op::kGlobalStore) {
      const ir::Value* v = inst->operand(0);
      out.push_back(v->is_const()
                        ? std::optional<int64_t>(
                              static_cast<const ir::Constant*>(v)->value())
                        : std::nullopt);
    }
  }
  return out;
}

// Runs `built` at tiers 0, 1 and 2 (threshold 0: the entry is translated
// before its first instruction runs), expects tiers 1 and 2 to agree with
// tier 0, and returns the three results in tier order.
std::vector<ExecResult> RunAllTiers(const Built& built,
                                    const std::string& what) {
  std::vector<ExecResult> runs;
  for (int tier = 0; tier <= 2; ++tier) {
    runs.push_back(RunBuilt(built, Tiered(tier)));
    if (tier > 0) {
      ExpectSameRun(runs[0], runs[tier], StrCat(what, " at tier ", tier));
      EXPECT_EQ(runs[tier].tier1_translations, 1u) << what;
      EXPECT_EQ(runs[tier].tier2_translations,
                tier == 2 && Tier2Active() ? 1u : 0u)
          << what;
    }
  }
  return runs;
}

TEST(ExecSemantics, TiersAndFolderAgreeOnEdgeOperands) {
  std::vector<SemCase> cases;
  for (uint64_t a : kEdgeOperands) {
    for (uint64_t b : kEdgeOperands) {
      for (ir::Op op : kBinaryOps) {
        if (!Faults(op, a, b)) {
          cases.push_back({SemCase::kBinary, static_cast<int>(op), a, b});
        }
      }
      for (ir::Pred pred : kPreds) {
        cases.push_back({SemCase::kICmp, static_cast<int>(pred), a, b});
      }
      for (size_t i = 0; i < std::size(kRmwOps); ++i) {
        cases.push_back({SemCase::kRmw, static_cast<int>(i), a, b});
      }
    }
    for (int width : kSExtWidths) {
      cases.push_back({SemCase::kSExt, width, a, 0});
    }
  }
  const std::vector<std::optional<int64_t>> folded = Folded(cases);
  const std::vector<ExecResult> runs =
      RunAllTiers(SemanticsProgram(cases), "semantics program");
  for (int tier = 0; tier <= 2; ++tier) {
    ASSERT_TRUE(runs[tier].ok) << runs[tier].fault_message;
    std::vector<std::string> printed;
    std::istringstream in(runs[tier].output);
    for (std::string token; in >> token;) {
      printed.push_back(token);
    }
    ASSERT_EQ(printed.size(), folded.size()) << "tier " << tier;
    size_t k = 0, mismatches = 0;
    for (const SemCase& c : cases) {
      const size_t n = c.kind == SemCase::kRmw ? 2 : 1;
      for (size_t j = 0; j < n; ++j, ++k) {
        if (folded[k].has_value() && std::to_string(*folded[k]) == printed[k]) {
          continue;
        }
        if (++mismatches <= 5) {
          ADD_FAILURE() << "tier " << tier << ", " << Describe(c)
                        << " value " << j << ": executed " << printed[k]
                        << ", folded "
                        << (folded[k] ? std::to_string(*folded[k])
                                      : std::string("nothing"));
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << "tier " << tier;
  }
}

TEST(ExecSemantics, FaultingPairsFaultAlikeAndStayUnfolded) {
  int faulting = 0;
  for (ir::Op op : kBinaryOps) {
    for (uint64_t a : kEdgeOperands) {
      for (uint64_t b : kEdgeOperands) {
        if (!Faults(op, a, b)) {
          continue;
        }
        ++faulting;
        const std::vector<SemCase> one = {
            {SemCase::kBinary, static_cast<int>(op), a, b}};
        const std::string what = Describe(one[0]);
        ExecResult t0 = RunAllTiers(SemanticsProgram(one), what)[0];
        EXPECT_FALSE(t0.ok) << what;
        EXPECT_EQ(t0.fault_message, b == 0 ? ir::kDivByZeroMessage
                                           : ir::kDivOverflowMessage)
            << what;
        std::vector<std::optional<int64_t>> folded = Folded(one);
        ASSERT_EQ(folded.size(), 1u);
        EXPECT_FALSE(folded[0].has_value()) << what << " was folded";
      }
    }
  }
  // 4 divides by 8 zero divisors, plus sdiv and srem of INT64_MIN by -1.
  EXPECT_EQ(faulting, 34);
}

// Every value-computing intrinsic on edge operands (all triples for the
// 128-bit divides): the non-faulting cases in one program whose printed
// values must match IntrinsicValue at every tier, and each faulting case in a
// program of its own that must fault alike at every tier.
TEST(ExecSemantics, IntrinsicsMatchTheReferenceOnEdgeOperands) {
  std::vector<SemCase> cases;
  std::vector<SemCase> faulting;
  for (ir::Intrinsic intrinsic : kValueIntrinsics) {
    for (uint64_t a : kEdgeOperands) {
      for (uint64_t b : kEdgeOperands) {
        for (uint64_t c : kEdgeOperands) {
          if (Arity(intrinsic) < 3 && c != kEdgeOperands[0]) {
            break;  // one pass, c unused
          }
          SemCase one = {SemCase::kIntrinsic, static_cast<int>(intrinsic), a,
                         b, c};
          (IntrinsicValue(intrinsic, a, b, c) ? cases : faulting)
              .push_back(one);
        }
      }
    }
  }
  const std::vector<ExecResult> runs =
      RunAllTiers(SemanticsProgram(cases), "intrinsics program");
  ASSERT_TRUE(runs[0].ok) << runs[0].fault_message;
  std::istringstream in(runs[0].output);
  size_t mismatches = 0;
  for (const SemCase& c : cases) {
    std::string printed;
    in >> printed;
    const int64_t expected = static_cast<int64_t>(
        *IntrinsicValue(static_cast<ir::Intrinsic>(c.op), c.a, c.b, c.c));
    if (printed != std::to_string(expected) && ++mismatches <= 5) {
      ADD_FAILURE() << Describe(c) << ": executed " << printed
                    << ", expected " << expected;
    }
  }
  EXPECT_EQ(mismatches, 0u);

  for (const SemCase& c : faulting) {
    const std::string what = Describe(c);
    ExecResult t0 = RunAllTiers(SemanticsProgram({c}), what)[0];
    EXPECT_FALSE(t0.ok) << what;
    EXPECT_EQ(t0.fault_message, c.c == 0 ? ir::kDivByZeroMessage
                                         : ir::kDivOverflowMessage)
        << what;
  }
  // Per 128-bit divide: 64 zero divisors and 264 overflowing quotients.
  EXPECT_EQ(faulting.size(), 2u * (64 + 264));
}

// x86 idiv faults when the quotient overflows, so INT64_MIN / -1 and
// INT64_MIN % -1 fault in the VM. The lifted helpers must fault too, at
// every tier and opt level.
TEST(ExecSemantics, Int64MinByMinusOneFaultsLikeTheVm) {
  for (const char* op : {"/", "%"}) {
    const std::string source = StrCat(R"(
      extern void print_i64(long v);
      long divide(long a, long b) { return a )",
                                      op, R"( b; }
      int main() {
        long min = 1;
        min = min << 63;
        print_i64(divide(min, -1));
        return 0;
      }
    )");
    for (int opt : {0, 2}) {
      const std::string what = StrCat("INT64_MIN ", op, " -1 at -O", opt);
      Built built = Build(source, opt);
      vm::ExternalLibrary library;
      vm::RunResult original = vm::Vm(built.image, &library, {}).Run();
      EXPECT_FALSE(original.ok) << what;
      EXPECT_EQ(original.fault_message, "integer division overflow") << what;
      std::vector<ExecResult> runs;
      for (int tier = 0; tier <= 2; ++tier) {
        runs.push_back(RunBuilt(built, Tiered(tier)));
        EXPECT_FALSE(runs[tier].ok) << what << " at tier " << tier;
        EXPECT_EQ(runs[tier].fault_message, ir::kDivOverflowMessage)
            << what << " at tier " << tier;
        ExpectSameRun(runs[0], runs[tier], StrCat(what, " at tier ", tier));
      }
    }
  }
}

}  // namespace
}  // namespace polynima::exec

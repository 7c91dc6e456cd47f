#include "src/check/differential.h"

#include <algorithm>
#include <map>

#include "src/exec/engine.h"
#include "src/sched/explore.h"
#include "src/sched/scheduler.h"
#include "src/support/strings.h"
#include "src/vm/external.h"

namespace polynima::check {

namespace {

sched::Outcome RunControlledOnce(const lift::LiftedProgram& program,
                                 const binary::Image& image,
                                 const std::vector<std::vector<uint8_t>>& inputs,
                                 uint64_t seed, uint64_t max_steps,
                                 sched::Scheduler* scheduler) {
  vm::ExternalLibrary library;
  exec::ExecOptions options;
  options.seed = seed;
  options.max_steps = max_steps;
  options.scheduler = scheduler;
  exec::Engine engine(program, image, &library, options);
  engine.SetInputs(inputs);
  exec::ExecResult r = engine.Run();
  sched::Outcome outcome;
  outcome.ok = r.ok;
  outcome.exit_code = r.exit_code;
  outcome.output = r.output;
  outcome.fault_message = r.fault_message;
  outcome.state_digest = r.state_digest;
  return outcome;
}

// Runs `schedules` controlled schedules of one side: schedule 0 is the
// all-default deterministic order, schedule s > 0 a seeded PCT search. Every
// distinct outcome keeps the recorded Schedule that produced it.
sched::OutcomeSet EnumerateSide(const lift::LiftedProgram& program,
                                const binary::Image& image,
                                const std::vector<std::vector<uint8_t>>& inputs,
                                const DifferentialOptions& options) {
  sched::OutcomeSet set;
  sched::PctOptions pct_options;
  pct_options.depth = options.pct_depth;
  pct_options.expected_length = options.pct_length;
  for (int s = 0; s < options.schedules; ++s) {
    sched::PctScheduler pct(options.base_seed + static_cast<uint64_t>(s),
                            pct_options);
    sched::Scheduler* strategy = s == 0 ? nullptr : &pct;
    sched::RecordingScheduler recorder(strategy, options.base_seed);
    sched::Outcome outcome =
        RunControlledOnce(program, image, inputs, options.base_seed,
                          options.max_steps, &recorder);
    ++set.runs;
    std::string key = outcome.Key();
    if (set.outcomes.emplace(key, outcome).second) {
      set.witnesses.emplace(std::move(key), recorder.schedule());
    }
    if (s == 0) {
      // Calibrate the PCT change-point range to the default run's length
      // (options.pct_length only caps it): change points sampled far past
      // the run's end never fire, leaving every schedule near-default.
      pct_options.expected_length =
          std::min(pct_options.expected_length,
                   std::max<uint64_t>(2, recorder.points_seen()));
    }
  }
  return set;
}

}  // namespace

Expected<DifferentialResult> RunScheduleDifferential(
    const lift::LiftedProgram& reference, const lift::LiftedProgram& optimized,
    const binary::Image& image,
    const std::vector<std::vector<std::vector<uint8_t>>>& input_sets,
    const DifferentialOptions& options) {
  if (options.schedules <= 0) {
    return Status::InvalidArgument("differential: schedules must be >= 1");
  }
  DifferentialResult result;
  std::vector<std::vector<std::vector<uint8_t>>> sets = input_sets;
  if (sets.empty()) {
    sets.push_back({});
  }
  for (size_t set_index = 0; set_index < sets.size(); ++set_index) {
    const auto& inputs = sets[set_index];
    sched::OutcomeSet ref_set =
        EnumerateSide(reference, image, inputs, options);
    sched::OutcomeSet opt_set =
        EnumerateSide(optimized, image, inputs, options);
    result.runs += options.schedules;

    // Both directions: an optimized-only outcome is new behavior, a
    // reference-only outcome is behavior the optimized build lost.
    auto report_divergence = [&](const std::string& key, bool lost) {
      const lift::LiftedProgram& side = lost ? reference : optimized;
      const sched::OutcomeSet& side_set = lost ? ref_set : opt_set;
      sched::Schedule witness = side_set.witnesses.at(key);
      sched::Schedule shrunk = sched::Shrink(
          witness, [&](const sched::Schedule& candidate) {
            sched::ReplayScheduler replay(candidate);
            return RunControlledOnce(side, image, inputs, candidate.seed,
                                     options.max_steps, &replay)
                       .Key() == key;
          });
      ++result.divergences;
      result.reports.push_back(StrCat(
          "input set ", set_index, ": optimized build ",
          lost ? "LOST" : "introduced NEW", " outcome [", key,
          "] (reference ", ref_set.outcomes.size(), " outcome(s), optimized ",
          opt_set.outcomes.size(), " outcome(s) across ", options.schedules,
          " schedules/side); repro on ", lost ? "reference" : "optimized",
          " side: ", shrunk.Serialize()));
    };
    for (const auto& [key, outcome] : opt_set.outcomes) {
      if (ref_set.outcomes.count(key) == 0) {
        report_divergence(key, /*lost=*/false);
      }
    }
    for (const auto& [key, outcome] : ref_set.outcomes) {
      if (opt_set.outcomes.count(key) == 0) {
        report_divergence(key, /*lost=*/true);
      }
    }
  }
  return result;
}

}  // namespace polynima::check

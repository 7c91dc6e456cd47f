// Schedule-perturbing differential runner: the dynamic half of the TSO
// check. Executes the fully-fenced reference module and the optimized module
// over the same inputs under a family of thread schedules and diffs the
// observable results (exit status, exit code, program output). Fence elision
// is behaviour-preserving only if no schedule can tell the two modules
// apart; a divergence is a concrete witness of an unsound elision.
//
// The schedules come from the controlled scheduler (src/sched):
// schedule 0 is the deterministic all-default order and later schedules are
// seeded PCT searches, each recorded so every divergence report carries a
// shrunk `polysched/v1` repro string that replays bit-identically. The
// comparison is between the *sets* of outcomes each side can exhibit (in
// both directions), so benign races that merely reorder legal outcomes
// across the two builds do not raise false alarms.
#ifndef POLYNIMA_CHECK_DIFFERENTIAL_H_
#define POLYNIMA_CHECK_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/binary/image.h"
#include "src/lift/lifter.h"
#include "src/support/status.h"

namespace polynima::check {

struct DifferentialOptions {
  // Number of controlled schedules per side and input set: schedule 0 is
  // the default order, later ones are PCT searches seeded from base_seed.
  int schedules = 4;
  uint64_t base_seed = 1;
  // PCT shape for the controlled schedules (see sched::PctOptions).
  // pct_length caps the change-point range; the actual range is calibrated
  // to the consultation count of each side's default-schedule run.
  int pct_depth = 3;
  uint64_t pct_length = 4096;
  uint64_t max_steps = 4'000'000'000ull;
};

struct DifferentialResult {
  int runs = 0;         // schedule x input-set pairs executed on BOTH sides
  int divergences = 0;
  std::vector<std::string> reports;  // one human-readable line per divergence

  bool ok() const { return divergences == 0; }
};

// Runs `reference` (fully fenced) and `optimized` (elided/removed fences)
// side by side. Both must be lifted from the same image. Input sets follow
// the fenceopt convention: each element is one run's input files.
Expected<DifferentialResult> RunScheduleDifferential(
    const lift::LiftedProgram& reference, const lift::LiftedProgram& optimized,
    const binary::Image& image,
    const std::vector<std::vector<std::vector<uint8_t>>>& input_sets,
    const DifferentialOptions& options = {});

}  // namespace polynima::check

#endif  // POLYNIMA_CHECK_DIFFERENTIAL_H_

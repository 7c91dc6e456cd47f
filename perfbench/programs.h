// Workloads of the end-to-end benchmark: which registry programs each one
// recompiles, with which RecompileOptions and execution tier, plus the
// seeded set-up (guest compile, inputs, reference VM run) and one untraced
// op (Recompiler::Recompile, then RunAdditive, then the correctness check).
#ifndef POLYNIMA_PERFBENCH_PROGRAMS_H_
#define POLYNIMA_PERFBENCH_PROGRAMS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/binary/image.h"
#include "src/exec/engine.h"
#include "src/recomp/recompiler.h"
#include "src/vm/vm.h"
#include "src/workloads/workloads.h"

namespace polynima::perfbench {

// Known icf verdict for a cfg_sound program (sites proven / all sites).
struct IcfVerdict {
  std::string program;
  int proven = 0;
  int total = 0;
};

struct WorkloadSpec {
  std::string name;
  std::vector<std::string> programs;
  int scale = 0;  // registry input scale: 0 small, 1 medium, 2 large
  int tier = 0;   // highest execution tier of the run
  bool check_tso = false;
  bool analyze = false;
  bool cfg_sound = false;
  // Fig. 4's weak disassembler: no address-constant heuristic and no
  // .rodata pointer scan, so function-pointer targets surface as misses.
  bool weak_disassembler = false;
  std::vector<IcfVerdict> icf_verdicts;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindSpec(const std::string& name);

// Options of one op's Recompiler: the CLI defaults (one worker per core)
// plus the workload's switches.
recomp::RecompileOptions MakeRecompileOptions(const WorkloadSpec& spec);
exec::ExecOptions MakeExecOptions(const WorkloadSpec& spec, uint64_t seed);

// One program, set up: compiled image, seeded inputs, and the original
// binary's VM run on them (the reference output and cycle count).
struct Program {
  const workloads::Workload* workload = nullptr;
  binary::Image image;
  std::vector<std::vector<uint8_t>> inputs;
  vm::RunResult original;
};

binary::Image CompileProgram(const workloads::Workload& w);

vm::RunResult RunReference(const binary::Image& image,
                           const std::vector<std::vector<uint8_t>>& inputs,
                           uint64_t seed);

// Compiles every program of `spec`, draws its inputs from `seed` with the
// registry's sizes and shape (random bytes, or lower-case text with
// spaces) at the workload's scale, and VM-runs it. Aborts if a program is
// missing or its original run faults.
std::vector<Program> SetUp(const WorkloadSpec& spec, uint64_t seed);

// Why an op failed; empty when it passed.
std::string CheckOp(const WorkloadSpec& spec, const Program& program,
                    const recomp::RecompileStats& stats,
                    const exec::ExecResult& result);

struct OpResult {
  std::string failure;  // empty when the op passed every check
  uint64_t recompile_ns = 0;
  uint64_t run_ns = 0;
  uint64_t guest_instrs = 0;  // IR instructions the completed run retired
  double normalized = 0;      // recompiled over original simulated cycles
  int loops = 0;
  // ir::Print of the recompiled module (only when requested).
  std::string module_text;
};

OpResult RunOp(const WorkloadSpec& spec, const Program& program,
               uint64_t seed, bool keep_module_text = false);

uint64_t NowNs();

}  // namespace polynima::perfbench

#endif  // POLYNIMA_PERFBENCH_PROGRAMS_H_

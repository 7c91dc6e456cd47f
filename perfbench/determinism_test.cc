// Determinism test: two traced passes at one seed must report identical
// work counts, and two untraced passes identical normalized runtimes.
//
//   perfbench_determinism_test [workload...]   (default: every workload)
//
// Exits 0 when every workload agrees with itself and no op fails.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/programs.h"
#include "perfbench/traced.h"

namespace polynima::perfbench {
namespace {

constexpr uint64_t kSeed = 7;

const char* const kCounts[] = {
    "cfg.blocks",      "lift.ir_instrs", "opt.ir_instrs",
    "icf.proven_frac", "recomp.loops",   "exec.guest_instrs",
};

// Geomean normalized runtime of one untraced pass; fills `modules` with
// each program's recompiled module text.
double UntracedPass(const WorkloadSpec& spec,
                    const std::vector<Program>& programs,
                    std::vector<std::string>& modules, int& failures) {
  std::vector<double> normalized;
  modules.clear();
  for (const Program& p : programs) {
    OpResult op = RunOp(spec, p, kSeed, /*keep_module_text=*/true);
    if (!op.failure.empty()) {
      std::printf("  %s: %s\n", p.workload->name.c_str(), op.failure.c_str());
      ++failures;
    }
    normalized.push_back(op.normalized);
    modules.push_back(std::move(op.module_text));
  }
  return bench::Geomean(normalized);
}

TracedPass TracedOnce(const WorkloadSpec& spec,
                      const std::vector<Program>& programs,
                      const std::vector<std::string>& modules,
                      int& failures) {
  obs::TraceSink sink;
  TracedPass pass =
      RunTracedPass(spec, programs, kSeed, modules,
                    std::vector<uint64_t>(programs.size(), 1), sink);
  for (const TracedProgram& t : pass.programs) {
    if (!t.failure.empty()) {
      std::printf("  %s (traced): %s\n", t.name.c_str(), t.failure.c_str());
      ++failures;
    }
  }
  return pass;
}

bool CheckWorkload(const WorkloadSpec& spec) {
  std::printf("%s\n", spec.name.c_str());
  const std::vector<Program> programs = SetUp(spec, kSeed);
  int failures = 0;
  std::vector<std::string> modules;
  const double norm_a = UntracedPass(spec, programs, modules, failures);
  const double norm_b = UntracedPass(spec, programs, modules, failures);
  const TracedPass a = TracedOnce(spec, programs, modules, failures);
  const TracedPass b = TracedOnce(spec, programs, modules, failures);
  bool ok = failures == 0;
  for (const char* name : kCounts) {
    const double va = a.Value(name);
    const double vb = b.Value(name);
    std::printf("  %-20s %14.6f %14.6f %s\n", name, va, vb,
                va == vb ? "same" : "DIFFERS");
    ok = ok && va == vb;
  }
  std::printf("  %-20s %14.6f %14.6f %s\n", "normalized_runtime", norm_a,
              norm_b, norm_a == norm_b ? "same" : "DIFFERS");
  return ok && norm_a == norm_b;
}

}  // namespace
}  // namespace polynima::perfbench

int main(int argc, char** argv) {
  using polynima::perfbench::FindSpec;
  using polynima::perfbench::WorkloadSpec;
  std::vector<const WorkloadSpec*> specs;
  for (int i = 1; i < argc; ++i) {
    const WorkloadSpec* spec = FindSpec(argv[i]);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown workload '%s'\n", argv[i]);
      return 2;
    }
    specs.push_back(spec);
  }
  if (specs.empty()) {
    for (const WorkloadSpec& spec : polynima::perfbench::Workloads()) {
      specs.push_back(&spec);
    }
  }
  bool ok = true;
  for (const WorkloadSpec* spec : specs) {
    ok = polynima::perfbench::CheckWorkload(*spec) && ok;
  }
  std::printf("%s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// The traced pass: one op per program with every layer timed from the
// benchmark's own code. Recompiler::Recompile is replayed through the public
// stage entry points in its own order (cfg::RecoverStatic -> lift::Lift ->
// opt::RunPipeline -> analyze::AnalyzeProgram + fenceopt::ApplyStaticElision
// -> check::CheckModule; under cfg_sound a probe build, then
// analyze::AnalyzeIndirectControlFlow and the certified rebuild), and the
// replayed module must print byte-identical to the untraced Recompile's.
// The run is RecompiledBinary::Run; on additive workloads it is
// Recompiler::RunAdditive, whose rebuilds are read from RecompileStats.
// In-engine counts come from an attached obs::MetricsRegistry and
// obs::TierProf; the original binary's run is vm::Vm::Run.
//
// Spans go to an obs::TraceSink, one per call, with the layer (a src/
// module name, or "op" for a whole op) as category and the op id as arg.
// They nest on the one benchmark thread, so a span's parent is the
// innermost span whose interval contains it.
#ifndef POLYNIMA_PERFBENCH_TRACED_H_
#define POLYNIMA_PERFBENCH_TRACED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/programs.h"
#include "src/obs/trace.h"

namespace polynima::perfbench {

struct LayerMetric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string source;  // where the number was read
};

struct TracedProgram {
  std::string name;
  uint64_t op_ns = 0;         // the op span
  uint64_t recompile_ns = 0;  // the replayed stages
  int loops = 0;
  std::string failure;  // empty when the op passed every check
};

struct TracedPass {
  std::vector<LayerMetric> metrics;  // in report order
  std::vector<TracedProgram> programs;

  // The value of the metric called `name`; aborts if there is none.
  double Value(const std::string& name) const;
};

// `reference_modules[i]` is ir::Print of an untraced Recompile of
// programs[i]; `untraced_op_ns[i]` an untraced op of it taken just before.
TracedPass RunTracedPass(const WorkloadSpec& spec,
                         const std::vector<Program>& programs, uint64_t seed,
                         const std::vector<std::string>& reference_modules,
                         const std::vector<uint64_t>& untraced_op_ns,
                         obs::TraceSink& sink);

}  // namespace polynima::perfbench

#endif  // POLYNIMA_PERFBENCH_TRACED_H_

#include "perfbench/traced.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "src/analyze/analyze.h"
#include "src/analyze/icf.h"
#include "src/cfg/cfg.h"
#include "src/check/tso.h"
#include "src/check/witness.h"
#include "src/fenceopt/static_elide.h"
#include "src/ir/printer.h"
#include "src/lift/lifter.h"
#include "src/obs/metrics.h"
#include "src/obs/tierprof.h"
#include "src/opt/passes.h"
#include "src/support/check.h"

namespace polynima::perfbench {
namespace {

size_t CountInstrs(const ir::Module& m) {
  size_t n = 0;
  for (const auto& f : m.functions()) {
    for (const auto& b : f->blocks()) {
      n += b->insts().size();
    }
  }
  return n;
}

// Counts summed over the pass before they become metrics.
struct Totals {
  uint64_t cfg_blocks = 0;
  uint64_t lift_instrs = 0;
  uint64_t opt_in_instrs = 0;
  uint64_t opt_out_instrs = 0;
  uint64_t analyze_accesses = 0;
  uint64_t fences_elided = 0;
  uint64_t accesses_checked = 0;
  uint64_t icf_proven = 0;
  uint64_t icf_sites = 0;
  uint64_t loops = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t rebuild_ns = 0;
  uint64_t guest_instrs = 0;
  uint64_t tier2_instrs = 0;
  uint64_t deopts = 0;
  uint64_t translate_ns = 0;
  uint64_t helper_calls = 0;
  uint64_t vm_instrs = 0;
};

// One traced op: the replayed Recompile, then the run, all under one "op"
// span. Fills the stats CheckOp reads from the replayed stages.
class TracedOp {
 public:
  TracedOp(const WorkloadSpec& spec, const binary::Image& image, int op,
           obs::TraceSink& sink, Totals& totals)
      : image_(image),
        options_(MakeRecompileOptions(spec)),
        op_(op),
        sink_(sink),
        totals_(totals) {}

  // Recompiler::Recompile, stage by stage.
  Expected<recomp::RecompiledBinary> Recompile() {
    if (options_.cfg_sound) {
      options_.recover.landing_pad_entries = true;
    }
    recomp::RecompiledBinary out;
    out.image = image_;
    {
      obs::Span span(&sink_, "cfg", "cfg::RecoverStatic");
      span.Arg("op", op_);
      POLY_ASSIGN_OR_RETURN(out.graph,
                            cfg::RecoverStatic(image_, options_.recover));
    }
    totals_.cfg_blocks += out.graph.blocks.size();
    if (options_.cfg_sound) {
      POLY_ASSIGN_OR_RETURN(lift::LiftedProgram probe, Build(out.graph));
      obs::Span span(&sink_, "icf", "analyze::AnalyzeIndirectControlFlow");
      span.Arg("op", op_);
      analyze::IcfResult icf =
          analyze::AnalyzeIndirectControlFlow(probe, image_, out.graph);
      cert_ = analyze::MakeCfgCert(icf, image_);
      stats_.icf_sites_proven = icf.sites_proven;
      stats_.icf_sites_open = icf.sites_open;
      totals_.icf_proven += icf.sites_proven;
      totals_.icf_sites += icf.sites_total;
    }
    POLY_ASSIGN_OR_RETURN(out.program, Build(out.graph));
    return out;
  }

  const std::optional<check::CfgCert>& cert() const { return cert_; }
  const recomp::RecompileStats& stats() const { return stats_; }

 private:
  // Recompiler::Rebuild without the additive cache (a first build has
  // nothing to reuse).
  Expected<lift::LiftedProgram> Build(const cfg::ControlFlowGraph& graph) {
    lift::LiftedProgram program;
    {
      obs::Span span(&sink_, "lift", "lift::Lift");
      span.Arg("op", op_);
      lift::LiftOptions lift_options = options_.lift;
      lift_options.jobs = options_.jobs;
      if (cert_.has_value() && check::VerifyCfgCert(*cert_, image_)) {
        lift_options.cfg_cert = &*cert_;
      }
      POLY_ASSIGN_OR_RETURN(program,
                            lift::Lift(image_, graph, lift_options));
    }
    const size_t lifted = CountInstrs(*program.module);
    totals_.lift_instrs += lifted;
    if (options_.optimize) {
      obs::Span span(&sink_, "opt", "opt::RunPipeline");
      span.Arg("op", op_);
      opt::PipelineOptions pipeline = options_.pipeline;
      pipeline.jobs = options_.jobs;
      POLY_RETURN_IF_ERROR(opt::RunPipeline(*program.module, pipeline));
    }
    totals_.opt_in_instrs += lifted;
    totals_.opt_out_instrs += CountInstrs(*program.module);

    std::optional<check::StaticCert> static_cert;
    if (options_.analyze) {
      obs::Span span(&sink_, "analyze", "analyze::AnalyzeProgram");
      span.Arg("op", op_);
      analyze::AnalyzeOptions analyze_options;
      analyze_options.jobs = options_.jobs;
      analyze::AnalysisResult analysis =
          analyze::AnalyzeProgram(program, analyze_options);
      if (options_.lift.insert_fences && !options_.remove_fences) {
        fenceopt::ApplyStaticElision(*program.module, analysis);
      }
      static_cert = analyze::MakeStaticCert(analysis, image_);
      totals_.analyze_accesses += analysis.accesses;
      totals_.fences_elided += analysis.fences_elided;
    }
    if (options_.check_tso && options_.lift.insert_fences &&
        options_.lift.atomics == lift::LiftOptions::AtomicsMode::kBuiltin) {
      obs::Span span(&sink_, "check", "check::CheckModule");
      span.Arg("op", op_);
      check::TsoCheckOptions check_options;
      check_options.binary_key = check::BinaryKey(image_);
      if (static_cert.has_value()) {
        check_options.static_cert = &*static_cert;
        check_options.externals = &program.externals;
      }
      check::TsoCheckReport report =
          check::CheckModule(*program.module, check_options);
      totals_.accesses_checked += report.accesses_checked;
      stats_.tso_violations += report.violations.size();
    }
    return program;
  }

  const binary::Image& image_;
  recomp::RecompileOptions options_;
  const int op_;
  obs::TraceSink& sink_;
  Totals& totals_;
  std::optional<check::CfgCert> cert_;
  recomp::RecompileStats stats_;
};

// Runs one traced op for `program` and returns why it failed ("" if not).
std::string TraceProgram(const WorkloadSpec& spec, const Program& program,
                         int op, uint64_t seed,
                         const std::string& reference_module,
                         obs::TraceSink& sink, Totals& totals,
                         TracedProgram& traced) {
  binary::Image image;
  {
    obs::Span span(&sink, "cc", "cc::Compile");
    span.Arg("op", op);
    image = CompileProgram(*program.workload);
  }
  if (check::BinaryKey(image) != check::BinaryKey(program.image)) {
    return "guest compile is not deterministic";
  }
  // The weak disassembler's misses send the run into the additive loop,
  // which is reachable only through a Recompiler, whose cache must hold the
  // first build: an untraced Recompile primes it.
  std::optional<recomp::Recompiler> recompiler;
  if (spec.weak_disassembler) {
    recompiler.emplace(image, MakeRecompileOptions(spec));
    auto primed = recompiler->Recompile();
    if (!primed.ok()) {
      return "recompile failed: " + primed.status().ToString();
    }
  }

  obs::MetricsRegistry metrics;
  obs::TierProf tierprof;
  exec::ExecOptions exec_options = MakeExecOptions(spec, seed);
  exec_options.obs.metrics = &metrics;
  exec_options.obs.tierprof = &tierprof;

  TracedOp replay(spec, image, op, sink, totals);
  std::shared_ptr<ir::Module> replayed_module;
  exec::ExecResult result;
  recomp::RecompileStats stats;
  {
    const uint64_t start_ns = NowNs();
    obs::Span op_span(&sink, "op", program.workload->name);
    op_span.Arg("op", op);
    auto binary = replay.Recompile();
    if (!binary.ok()) {
      return "recompile failed: " + binary.status().ToString();
    }
    traced.recompile_ns = NowNs() - start_ns;
    replayed_module = binary->program.module;
    stats = replay.stats();
    if (replay.cert().has_value()) {
      const auto& covered = replay.cert()->covered_functions;
      exec_options.cfg_certified_entries.insert(covered.begin(),
                                                covered.end());
    }
    if (!spec.weak_disassembler) {
      obs::Span span(&sink, "exec", "RecompiledBinary::Run");
      span.Arg("op", op);
      result = binary->Run(program.inputs, exec_options);
    } else {
      obs::Span span(&sink, "exec", "Recompiler::RunAdditive");
      span.Arg("op", op);
      const recomp::RecompileStats before = recompiler->stats();
      auto run = recompiler->RunAdditive(*binary, program.inputs, exec_options);
      const recomp::RecompileStats& after = recompiler->stats();
      const uint64_t rebuild_ns =
          (after.lift_ns - before.lift_ns) + (after.opt_ns - before.opt_ns) +
          (after.analyze_ns - before.analyze_ns);
      // Measured inside the Recompiler: recorded as a span that ends now.
      obs::TraceEvent rebuild;
      rebuild.name = "Recompiler::Rebuild";
      rebuild.category = "recomp";
      rebuild.start_ns = sink.NowNs() - rebuild_ns;
      rebuild.duration_ns = rebuild_ns;
      rebuild.lane = obs::CurrentThreadLane();
      rebuild.args = {{"op", op}};
      sink.Record(std::move(rebuild));
      if (!run.ok()) {
        return "run failed: " + run.status().ToString();
      }
      result = std::move(*run);
      traced.loops = after.additive_rounds - before.additive_rounds;
      totals.loops += traced.loops;
      totals.cache_hits += after.cache_hits - before.cache_hits;
      totals.cache_misses += after.cache_misses - before.cache_misses;
      totals.rebuild_ns += rebuild_ns;
    }
    op_span.End();
    traced.op_ns = NowNs() - start_ns;
  }

  totals.guest_instrs += metrics.CounterValue(obs::Counter::kExecGuestInstrs);
  totals.tier2_instrs += metrics.CounterValue(obs::Counter::kExecTier2Instrs);
  totals.deopts += metrics.CounterValue(obs::Counter::kExecDeopts);
  for (const obs::TierProf::FnStats& fn : tierprof.functions()) {
    for (int tier = 1; tier < obs::TierProf::kNumTiers; ++tier) {
      totals.translate_ns += fn.translate_wall_ns[tier];
    }
    for (uint64_t calls : fn.helper_calls) {
      totals.helper_calls += calls;
    }
  }

  vm::RunResult original;
  {
    obs::Span span(&sink, "vm", "vm::Vm::Run");
    span.Arg("op", op);
    original = RunReference(image, program.inputs, seed);
  }
  totals.vm_instrs += original.instructions;
  if (!original.ok || original.output != program.original.output) {
    return "the original binary's VM run is not reproducible";
  }
  if (ir::Print(*replayed_module) != reference_module) {
    return "replayed stages printed a different module than Recompile";
  }
  return CheckOp(spec, program, stats, result);
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Self time per layer in ms: each span's duration minus that of the spans
// directly inside it. Every span is on the benchmark's one thread and spans
// nest, so a span's parent is the innermost earlier one still open.
std::map<std::string, double> SelfMsByLayer(const obs::TraceSink& sink) {
  struct Interval {
    std::string layer;
    double start_us = 0;
    double end_us = 0;
  };
  std::vector<Interval> spans;
  const json::Value trace = sink.ToJson();
  for (const json::Value& e : trace.Find("traceEvents")->as_array()) {
    if (e.Find("ph")->as_string() == "X") {
      const double start = e.Find("ts")->as_double();
      spans.push_back({e.Find("cat")->as_string(), start,
                       start + e.Find("dur")->as_double()});
    }
  }
  // Parents first: by start, then the longer span.
  std::sort(spans.begin(), spans.end(),
            [](const Interval& a, const Interval& b) {
              return a.start_us != b.start_us ? a.start_us < b.start_us
                                              : a.end_us > b.end_us;
            });
  std::map<std::string, double> self_ms;
  std::vector<const Interval*> open;
  for (const Interval& span : spans) {
    while (!open.empty() && open.back()->end_us <= span.start_us) {
      open.pop_back();
    }
    const double ms = (span.end_us - span.start_us) / 1e3;
    self_ms[span.layer] += ms;
    if (!open.empty()) {
      self_ms[open.back()->layer] -= ms;
    }
    open.push_back(&span);
  }
  return self_ms;
}

}  // namespace

double TracedPass::Value(const std::string& name) const {
  for (const LayerMetric& m : metrics) {
    if (m.name == name) {
      return m.value;
    }
  }
  POLY_CHECK(false) << "no layer metric " << name;
  return 0;
}

TracedPass RunTracedPass(const WorkloadSpec& spec,
                         const std::vector<Program>& programs, uint64_t seed,
                         const std::vector<std::string>& reference_modules,
                         const std::vector<uint64_t>& untraced_op_ns,
                         obs::TraceSink& sink) {
  TracedPass pass;
  Totals totals;
  uint64_t traced_ns = 0;
  uint64_t untraced_ns = 0;
  for (size_t i = 0; i < programs.size(); ++i) {
    TracedProgram traced;
    traced.name = programs[i].workload->name;
    traced.failure =
        TraceProgram(spec, programs[i], static_cast<int>(i), seed,
                     reference_modules[i], sink, totals, traced);
    traced_ns += traced.op_ns;
    untraced_ns += untraced_op_ns[i];
    pass.programs.push_back(std::move(traced));
  }

  std::map<std::string, double> self_ms = SelfMsByLayer(sink);
  auto ms = [&](const char* layer) { return self_ms[layer]; };
  auto set = [&](const char* name, double value, const char* unit,
                 const char* source) {
    pass.metrics.push_back({name, value, unit, source});
  };
  set("cfg.ms", ms("cfg"), "ms", "span cfg::RecoverStatic");
  set("cfg.blocks", totals.cfg_blocks, "count", "ControlFlowGraph::blocks");
  set("lift.ms", ms("lift"), "ms", "span lift::Lift");
  set("lift.ir_instrs", totals.lift_instrs, "count",
      "IR instructions lift::Lift emitted");
  set("opt.ms", ms("opt"), "ms", "span opt::RunPipeline");
  set("opt.ir_instrs", totals.opt_out_instrs, "count",
      "IR instructions after opt::RunPipeline");
  set("opt.removed_frac",
      1.0 - Ratio(totals.opt_out_instrs, totals.opt_in_instrs), "ratio",
      "1 - IR instructions out / in of opt::RunPipeline");
  set("analyze.ms", ms("analyze"), "ms",
      "span analyze::AnalyzeProgram + fenceopt::ApplyStaticElision");
  set("analyze.accesses", totals.analyze_accesses, "count",
      "AnalysisResult::accesses");
  set("analyze.fences_elided", totals.fences_elided, "count",
      "AnalysisResult::fences_elided");
  set("check.ms", ms("check"), "ms", "span check::CheckModule");
  set("check.accesses_checked", totals.accesses_checked, "count",
      "TsoCheckReport::accesses_checked");
  set("icf.ms", ms("icf"), "ms", "span analyze::AnalyzeIndirectControlFlow");
  set("icf.proven_frac", Ratio(totals.icf_proven, totals.icf_sites), "ratio",
      "IcfResult sites_proven / sites_total");
  set("recomp.loops", totals.loops, "count",
      "RecompileStats::additive_rounds");
  set("recomp.cache_hit_frac",
      Ratio(totals.cache_hits, totals.cache_hits + totals.cache_misses),
      "ratio", "RecompileStats cache_hits / (hits + misses) in RunAdditive");
  set("recomp.rebuild_ms", static_cast<double>(totals.rebuild_ns) / 1e6, "ms",
      "RecompileStats lift_ns + opt_ns + analyze_ns in RunAdditive");
  set("exec.ms", ms("exec"), "ms",
      "span RecompiledBinary::Run, or Recompiler::RunAdditive minus rebuilds");
  set("exec.guest_instrs", totals.guest_instrs, "count",
      "MetricsRegistry exec.guest_instrs");
  set("exec.tier2_frac", Ratio(totals.tier2_instrs, totals.guest_instrs),
      "ratio", "MetricsRegistry exec.tier2_instrs / exec.guest_instrs");
  set("exec.translate_ms", static_cast<double>(totals.translate_ns) / 1e6,
      "ms", "TierProf translate_wall_ns, tiers 1 and 2");
  set("exec.deopts", totals.deopts, "count", "MetricsRegistry exec.deopts");
  set("exec.helper_calls_per_kinstr",
      1000.0 * Ratio(totals.helper_calls, totals.guest_instrs), "1/kinstr",
      "TierProf helper_calls per 1000 exec.guest_instrs");
  set("vm.ms", ms("vm"), "ms", "span vm::Vm::Run");
  set("vm.guest_instrs", totals.vm_instrs, "count",
      "vm::RunResult::instructions");
  set("cc.ms", ms("cc"), "ms", "span cc::Compile");
  set("obs.trace_overhead_frac", Ratio(traced_ns, untraced_ns) - 1.0, "ratio",
      "traced op span / the last untraced op before it - 1");
  return pass;
}

}  // namespace polynima::perfbench

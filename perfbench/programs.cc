#include "perfbench/programs.h"

#include <algorithm>
#include <chrono>

#include "bench/bench_util.h"
#include "src/ir/printer.h"
#include "src/support/check.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/vm/code_buffer.h"

namespace polynima::perfbench {
namespace {

constexpr char kTextAlphabet[] = "abcdefghijklmnopqrstuvwxyz      ";

bool IsText(const std::vector<uint8_t>& bytes) {
  return !bytes.empty() &&
         std::all_of(bytes.begin(), bytes.end(), [](uint8_t b) {
           return b == ' ' || (b >= 'a' && b <= 'z');
         });
}

// FNV-1a of the program name: separates the input streams of programs
// that share a seed.
uint64_t NameHash(const std::string& name) {
  uint64_t h = 14695981039346656037ull;
  for (char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::vector<std::vector<uint8_t>> SeededInputs(const workloads::Workload& w,
                                               int scale, uint64_t seed) {
  std::vector<std::vector<uint8_t>> shapes = w.make_inputs(scale);
  std::vector<std::vector<uint8_t>> inputs;
  for (size_t i = 0; i < shapes.size(); ++i) {
    Rng rng(seed ^ NameHash(w.name) ^ (i * 0x9e3779b97f4a7c15ull));
    const bool text = IsText(shapes[i]);
    std::vector<uint8_t> bytes(shapes[i].size());
    for (uint8_t& b : bytes) {
      b = text ? static_cast<uint8_t>(kTextAlphabet[rng.NextBelow(32)])
               : static_cast<uint8_t>(rng.Next());
    }
    inputs.push_back(std::move(bytes));
  }
  return inputs;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* specs = [] {
    auto* list = new std::vector<WorkloadSpec>;

    WorkloadSpec spec_static;
    spec_static.name = "spec_static";
    spec_static.programs = {"bzip2_like", "gcc_like",   "mcf_like",
                            "gobmk_like", "hmmer_like", "sjeng_like",
                            "libquantum_like", "h264_like", "astar_like"};
    spec_static.scale = 0;
    spec_static.tier = 2;
    spec_static.check_tso = true;
    spec_static.analyze = true;
    list->push_back(spec_static);

    WorkloadSpec phoenix;
    phoenix.name = "phoenix_t2";
    phoenix.programs = {"histogram", "kmeans", "linear_regression",
                        "matrix_multiply", "pca", "string_match",
                        "word_count"};
    phoenix.scale = 1;
    phoenix.tier = 2;
    list->push_back(phoenix);

    WorkloadSpec indirect;
    indirect.name = "indirect_sound";
    indirect.programs = {"fnptr_dispatch", "switchboard"};
    indirect.scale = 1;
    indirect.tier = 2;
    indirect.cfg_sound = true;
    // switchboard's audit hook lives in writable .data, so it stays open.
    indirect.icf_verdicts = {{"fnptr_dispatch", 3, 3}, {"switchboard", 2, 3}};
    list->push_back(indirect);

    WorkloadSpec additive;
    additive.name = "spec_additive";
    additive.programs = {"gcc_like", "gobmk_like", "sjeng_like", "h264_like"};
    additive.scale = 0;
    additive.tier = 0;
    additive.weak_disassembler = true;
    list->push_back(additive);
    return list;
  }();
  return *specs;
}

const WorkloadSpec* FindSpec(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

recomp::RecompileOptions MakeRecompileOptions(const WorkloadSpec& spec) {
  recomp::RecompileOptions options;
  options.jobs = 0;
  options.check_tso = spec.check_tso;
  options.analyze = spec.analyze;
  options.cfg_sound = spec.cfg_sound;
  if (spec.weak_disassembler) {
    options.recover.address_constant_heuristic = false;
    options.recover.rodata_pointer_scan = false;
  }
  return options;
}

exec::ExecOptions MakeExecOptions(const WorkloadSpec& spec, uint64_t seed) {
  exec::ExecOptions options;
  options.seed = seed;
  options.tier = spec.tier;
  return options;
}

binary::Image CompileProgram(const workloads::Workload& w) {
  if (!w.landing_pads) {
    return bench::CompileWorkload(w, w.default_opt);
  }
  cc::CompileOptions options;
  options.name = w.name;
  options.opt_level = w.default_opt;
  options.landing_pads = true;
  auto image = cc::Compile(w.source, options);
  POLY_CHECK(image.ok()) << w.name << ": " << image.status().ToString();
  return std::move(*image);
}

vm::RunResult RunReference(const binary::Image& image,
                           const std::vector<std::vector<uint8_t>>& inputs,
                           uint64_t seed) {
  vm::ExternalLibrary library;
  vm::VmOptions options;
  options.seed = seed;
  vm::Vm virtual_machine(image, &library, options);
  virtual_machine.SetInputs(inputs);
  return virtual_machine.Run();
}

std::vector<Program> SetUp(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<Program> programs;
  for (const std::string& name : spec.programs) {
    const workloads::Workload* w = workloads::FindWorkload(name);
    POLY_CHECK(w != nullptr) << "unknown program " << name;
    Program p;
    p.workload = w;
    p.image = CompileProgram(*w);
    p.inputs = SeededInputs(*w, spec.scale, seed);
    p.original = RunReference(p.image, p.inputs, seed);
    POLY_CHECK(p.original.ok) << name << ": " << p.original.fault_message;
    programs.push_back(std::move(p));
  }
  return programs;
}

std::string CheckOp(const WorkloadSpec& spec, const Program& program,
                    const recomp::RecompileStats& stats,
                    const exec::ExecResult& result) {
  if (!result.ok) {
    return "run failed: " + result.fault_message;
  }
  if (result.output != program.original.output) {
    return "output differs from the original binary's VM run";
  }
  if (stats.tso_violations != 0) {
    return StrCat("TSO check reported ", stats.tso_violations, " violations");
  }
  for (const IcfVerdict& v : spec.icf_verdicts) {
    if (v.program == program.workload->name &&
        (stats.icf_sites_proven != v.proven ||
         stats.icf_sites_proven + stats.icf_sites_open != v.total)) {
      return StrCat("icf verdict ", stats.icf_sites_proven, "/",
                    stats.icf_sites_proven + stats.icf_sites_open,
                    " proven, expected ", v.proven, "/", v.total);
    }
  }
  if (spec.tier == 2 && vm::CodeBuffer::Supported() &&
      result.tier2_instrs == 0) {
    return "tier-2 run retired no tier-2 instructions";
  }
  return "";
}

OpResult RunOp(const WorkloadSpec& spec, const Program& program,
               uint64_t seed, bool keep_module_text) {
  OpResult op;
  recomp::Recompiler recompiler(program.image, MakeRecompileOptions(spec));
  const uint64_t t0 = NowNs();
  auto binary = recompiler.Recompile();
  const uint64_t t1 = NowNs();
  if (!binary.ok()) {
    op.failure = "recompile failed: " + binary.status().ToString();
    return op;
  }
  if (keep_module_text) {
    op.module_text = ir::Print(*binary->program.module);
  }
  exec::ExecOptions exec_options = MakeExecOptions(spec, seed);
  if (recompiler.options().cfg_cert.has_value()) {
    const auto& covered = recompiler.options().cfg_cert->covered_functions;
    exec_options.cfg_certified_entries.insert(covered.begin(), covered.end());
  }
  const uint64_t t2 = NowNs();
  auto result = recompiler.RunAdditive(*binary, program.inputs, exec_options);
  const uint64_t t3 = NowNs();
  if (!result.ok()) {
    op.failure = "run failed: " + result.status().ToString();
    return op;
  }
  op.recompile_ns = t1 - t0;
  op.run_ns = t3 - t2;
  op.guest_instrs = result->steps;
  op.normalized = bench::Normalized(*result, program.original);
  op.loops = recompiler.stats().additive_rounds;
  op.failure = CheckOp(spec, program, recompiler.stats(), *result);
  return op;
}

}  // namespace polynima::perfbench

// RQ1 (§4.1): retrofitting a mitigation for CVE-2023-24042 into a LightFTP
// binary — without source code.
//
// The bug: the session context (and its FileName field) is shared across
// handler threads. A LIST command records a path and spawns a blocked
// handler; a USER command overwrites FileName with an unchecked value; when
// the data connection opens, the handler lists the overwritten path —
// directory traversal.
//
// The mitigation mirrors the paper's LLVM pass: an IR transformation that
// reroutes the binary's stat/opendir external calls through guard wrappers
// which record the path argument at stat time and compare it at opendir
// time; a mismatch is the exploit signature and the operation is denied.
// The pass + runtime below are ~70 lines, like the paper's.
//
// Build & run:  ./build/examples/lightftp_cve
#include <cstdio>
#include <string>

#include "src/cc/compiler.h"
#include "src/exec/engine.h"
#include "src/ir/semantics.h"
#include "src/recomp/recompiler.h"
#include "src/vm/vm.h"
#include "src/workloads/workloads.h"

using namespace polynima;

namespace {

// --- the "compiler pass": reroute ext_call slots through guard externals ---
int ReriteExternalCalls(lift::LiftedProgram& program,
                        const std::string& from_name,
                        const std::string& to_name) {
  int64_t from_slot = -1;
  for (size_t i = 0; i < program.externals.size(); ++i) {
    if (program.externals[i] == from_name) {
      from_slot = static_cast<int64_t>(i);
    }
  }
  if (from_slot < 0) {
    return 0;
  }
  program.externals.push_back(to_name);
  int64_t to_slot = static_cast<int64_t>(program.externals.size() - 1);

  int rewritten = 0;
  for (auto& fn : program.module->functions()) {
    for (auto& block : fn->blocks()) {
      for (auto& inst : block->insts()) {
        if (!ir::CallsIntrinsic(*inst, ir::Intrinsic::kExtCall)) {
          continue;
        }
        auto* slot = static_cast<ir::Constant*>(inst->operand(0));
        if (slot->value() == from_slot) {
          inst->SetOperand(0, program.module->GetConstant(to_slot));
          ++rewritten;
        }
      }
    }
  }
  return rewritten;
}

// --- the "runtime component": guard handlers linked into the output ---
struct GuardState {
  std::string last_stat_path;
  int alerts = 0;
};

void RegisterGuards(vm::ExternalLibrary& library, GuardState* state) {
  library.Register("guarded_stat", [state, &library](vm::GuestContext& ctx) {
    state->last_stat_path = ctx.memory().ReadCString(ctx.GetArg(0));
    return library.Call("stat_path", ctx);
  });
  library.Register("guarded_opendir",
                   [state, &library](vm::GuestContext& ctx) {
    std::string path = ctx.memory().ReadCString(ctx.GetArg(0));
    if (path != state->last_stat_path) {
      // Exploit signature: the handler is about to open a path that was
      // never validated by the preceding stat.
      ++state->alerts;
      std::printf("  [guard] DENIED opendir(\"%s\"): LIST validated \"%s\"\n",
                  path.c_str(), state->last_stat_path.c_str());
      ctx.SetResult(0);  // deny: behave as "no such directory"
      ctx.AddCost(50);
      return vm::ExtResult::Done();
    }
    return library.Call("opendir_path", ctx);
  });
}

exec::ExecResult RunPatched(const recomp::RecompiledBinary& binary,
                            const std::string& commands, GuardState* state) {
  const std::string fs("pub\0data\0/etc/passwd\0", 21);
  std::vector<std::vector<uint8_t>> inputs = {
      std::vector<uint8_t>(commands.begin(), commands.end()),
      std::vector<uint8_t>(fs.begin(), fs.end())};
  vm::ExternalLibrary library;
  RegisterGuards(library, state);
  exec::Engine engine(binary.program, binary.image, &library, {});
  engine.SetInputs(inputs);
  return engine.Run();
}

}  // namespace

int main() {
  const workloads::Workload* w = workloads::FindWorkload("lightftp");
  cc::CompileOptions options;
  options.name = "lightftp";
  options.opt_level = 2;
  auto image = cc::Compile(w->source, options);
  if (!image.ok()) {
    std::printf("compile failed: %s\n", image.status().ToString().c_str());
    return 1;
  }

  // Demonstrate the vulnerability on the ORIGINAL binary first.
  const std::string exploit = "LIST pub\nUSER /etc/passwd\nCONNECT\nQUIT\n";
  const std::string benign = "LIST pub\nCONNECT\nQUIT\n";
  {
    const std::string fs("pub\0data\0/etc/passwd\0", 21);
    std::vector<std::vector<uint8_t>> inputs = {
        std::vector<uint8_t>(exploit.begin(), exploit.end()),
        std::vector<uint8_t>(fs.begin(), fs.end())};
    vm::ExternalLibrary library;
    vm::Vm virtual_machine(*image, &library, {});
    virtual_machine.SetInputs(inputs);
    vm::RunResult r = virtual_machine.Run();
    std::printf("original binary under exploit:\n%s", r.output.c_str());
    bool leaked = r.output.find("150 LIST /etc/passwd") != std::string::npos;
    std::printf("  -> directory traversal %s\n\n",
                leaked ? "SUCCEEDED (vulnerable)" : "failed");
  }

  // Recompile and apply the mitigation pass.
  recomp::Recompiler recompiler(*image, {});
  auto binary = recompiler.Recompile();
  if (!binary.ok()) {
    std::printf("recompile failed: %s\n", binary.status().ToString().c_str());
    return 1;
  }
  int n1 = ReriteExternalCalls(binary->program, "stat_path", "guarded_stat");
  int n2 = ReriteExternalCalls(binary->program, "opendir_path",
                               "guarded_opendir");
  std::printf("mitigation pass: rerouted %d stat and %d opendir call sites\n",
              n1, n2);

  GuardState state;
  std::printf("\npatched binary, benign session:\n");
  exec::ExecResult ok_run = RunPatched(*binary, benign, &state);
  std::printf("%s", ok_run.output.c_str());

  std::printf("\npatched binary, exploit session:\n");
  exec::ExecResult bad_run = RunPatched(*binary, exploit, &state);
  std::printf("%s", bad_run.output.c_str());

  bool blocked =
      bad_run.output.find("150 LIST /etc/passwd") == std::string::npos &&
      state.alerts > 0;
  std::printf("\nresult: benign session served normally; exploit %s "
              "(%d alert%s)\n",
              blocked ? "BLOCKED" : "NOT BLOCKED", state.alerts,
              state.alerts == 1 ? "" : "s");
  return blocked ? 0 : 1;
}

// The Polynima lifter: translates recovered machine code to IR.
//
// Conventions (consumed by src/exec):
//  - One IR function per recovered guest function, named fn_<hex>. Functions
//    take no arguments and return the next guest PC after their `ret`
//    ("return-PC convention"): direct calls compare the returned PC against
//    the expected return address and bubble unexpected values up to the
//    dispatcher, which re-dispatches or reports a control-flow miss.
//  - Virtual CPU state lives in globals: vr_<reg> (16 GPRs), fl_<flag>
//    (cf/pf/zf/sf/of), xmm<i>_lo / xmm<i>_hi. With
//    LiftOptions::thread_local_state (the Polynima behaviour, §3.3.2) these
//    are thread_local; without it they are shared — reproducing the
//    documented McSema/Rev.Ng failure on multithreaded binaries.
//  - vr_rsp points into a per-thread *emulated stack* allocated by the
//    execution engine inside the guest stack region.
//  - Indirect transfers become switches over known targets; the default arm
//    calls the `cfmiss` intrinsic (additive lifting hook, §3.2).
//  - External calls become `ext_call(slot)` intrinsics; the engine marshals
//    virtual registers to/from the shared external library.
//  - Fences: acquire after every non-stack-local guest load, release before
//    every non-stack-local guest store (Lasagne's strategy, §3.3.4).
//    Stack-locality = address derived from vr_rsp (or the frame pointer when
//    the function establishes one with `mov rbp, rsp`).
//
// The engine intrinsics it emits are the ir::Intrinsic enumerators; each
// one's name and properties are in kIntrinsics (src/ir/semantics.h).
#ifndef POLYNIMA_LIFT_LIFTER_H_
#define POLYNIMA_LIFT_LIFTER_H_

#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/binary/image.h"
#include "src/cfg/cfg.h"
#include "src/check/witness.h"
#include "src/ir/ir.h"
#include "src/obs/report.h"
#include "src/support/status.h"

namespace polynima::lift {

struct LiftOptions {
  // Insert Lasagne-style acquire/release fences for guest memory accesses.
  bool insert_fences = true;
  // Elide fences for accesses derived from the emulated stack pointer.
  bool elide_stack_local_fences = true;

  enum class AtomicsMode {
    kBuiltin,          // map to IR atomics (Listing 2 — Polynima)
    kNaiveGlobalLock,  // decompose under one global spinlock (Listing 1)
    kPlain,            // non-atomic load/op/store (documented baseline bug)
  };
  AtomicsMode atomics = AtomicsMode::kBuiltin;

  // thread_local virtual state + per-thread emulated stacks (§3.3.2).
  // Disabled models the single-global-array emulated stack of prior work.
  bool thread_local_state = true;

  // First-class SIMD translation (the paper's §5.3 future work): lift packed
  // integer instructions to native SIMD IR intrinsics instead of
  // QEMU-helper-style scalar emulation calls, recovering near-native packed
  // throughput.
  bool first_class_simd = false;

  // Conservative callback handling (§3.3.3): every lifted function is a
  // potential external entry point and must be preserved. When false, only
  // `observed_callbacks` (from the dynamic callback analysis) and the image
  // entry stay external; the rest become eligible for inlining.
  bool mark_all_external = true;
  std::set<std::string> observed_callbacks;

  // Worker threads for the per-function lift phase (0 = one per hardware
  // thread). Function bodies are lifted concurrently; the emitted module is
  // byte-identical for every value because each function's IR depends only
  // on its own CFG, never on worker scheduling.
  int jobs = 1;

  // Sound indirect-control-flow certificate (--cfg-sound), already verified
  // against the image by the caller (check::VerifyCfgCert). At each proven
  // site whose certified targets are all emitted switch arms, the cfmiss
  // stub in the default block is replaced by a covered dispatcher-fallback
  // block (Ret target) — statically infeasible when the proof holds, so the
  // executed schedule is bit-identical, but the block is no longer
  // "uncovered" and tiers 1/2 drop their uncovered-edge deopt guard. The
  // switch arms themselves are untouched (translation costs stay equal).
  // Must outlive the Lift call.
  const check::CfgCert* cfg_cert = nullptr;

  // Function entries that are declared but whose bodies the caller provides
  // after Lift returns (the additive-lifting cache clones previously lifted
  // IR into them). Must outlive the Lift call.
  const std::set<uint64_t>* skip_bodies = nullptr;

  // Observability sinks (all nullable; see src/obs). With a trace sink, each
  // lifted function body becomes one "lift"-category span on its worker's
  // lane; with metrics, the lifter reports the lift.* counters and every
  // fence insert/elide decision under fenceopt.*.
  obs::Session obs;
};

struct LiftedProgram {
  // Shared so the additive-lifting cache (src/recomp) can keep functions from
  // a superseded round alive until nothing references them.
  std::shared_ptr<ir::Module> module;
  // Trampoline table: guest entry address -> lifted function.
  std::map<uint64_t, ir::Function*> functions_by_entry;
  // Guest entry point of the program.
  uint64_t entry = 0;
  // External slot -> name (copied from the image).
  std::vector<std::string> externals;
};

Expected<LiftedProgram> Lift(const binary::Image& image,
                             const cfg::ControlFlowGraph& graph,
                             const LiftOptions& options = {});

}  // namespace polynima::lift

#endif  // POLYNIMA_LIFT_LIFTER_H_

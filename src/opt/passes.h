// Optimization passes over lifted IR (the LLVM pass-pipeline stand-in).
//
// The passes encode exactly the interactions the paper's evaluation depends
// on:
//  - Dead-flag elimination + DCE remove the eagerly-lifted EFLAGS updates
//    that no branch consumes (flags are not live across calls/returns —
//    no ABI preserves them).
//  - Register promotion rewrites thread-local virtual-state accesses into
//    SSA values (phis across blocks), flushing around calls; this is what
//    makes loop indices SSA values the spinloop analysis can reason about.
//  - Redundant-load elimination and dead-store elimination on guest memory
//    treat fences, atomics and calls as barriers, following the C++11
//    acquire/release rules: an acquire fence pins later loads, a release
//    fence pins earlier stores. Removing superfluous fences (the §3.4
//    optimization) therefore re-enables these optimizations.
//  - The inliner only touches functions that are not external entry points;
//    the callback analysis (§3.3.3) shrinks that set, unlocking inlining.
#ifndef POLYNIMA_OPT_PASSES_H_
#define POLYNIMA_OPT_PASSES_H_

#include <map>
#include <vector>

#include "src/ir/ir.h"
#include "src/obs/report.h"
#include "src/support/status.h"

namespace polynima::opt {

// --- analysis helpers ---

// Predecessor map for a function.
std::map<ir::BasicBlock*, std::vector<ir::BasicBlock*>> Predecessors(
    ir::Function& f);
// Reverse post-order over reachable blocks.
std::vector<ir::BasicBlock*> ReversePostOrder(ir::Function& f);

// --- passes (return true if anything changed) ---

bool SimplifyCfg(ir::Function& f);
bool PromoteGlobals(ir::Function& f);       // thread-local globals -> SSA
bool DeadCodeElim(ir::Function& f);
bool InstCombine(ir::Function& f, ir::Module& m);
bool LocalCse(ir::Function& f);  // per-block value numbering of pure ops
bool MemOpt(ir::Function& f);               // fence-aware RLE + DSE
bool DeadFlagElim(ir::Function& f);         // cross-block flag-store liveness
// Inlines small callees that are not external entries. Returns number of
// call sites inlined.
int InlineFunctions(ir::Module& m, int max_callee_blocks = 24);
// Deletes every fence (run only after the §3.4 analysis proves it safe).
int RemoveFences(ir::Module& m);

struct PipelineOptions {
  bool inline_functions = false;  // only valid after callback analysis
  int iterations = 3;
  // Worker threads for the per-function pass loop (0 = one per hardware
  // thread). Module-level passes (inlining, verification) stay serial.
  int jobs = 1;
  // Observability sinks (all nullable; see src/obs): "opt"-category spans
  // per function on the worker lanes, a "verify" span for the module check,
  // and the opt.* counters/histograms.
  obs::Session obs;
};

// Runs the per-function pass loop (SimplifyCfg, PromoteGlobals, then
// iterated LocalCse/InstCombine/MemOpt/DeadFlagElim/DCE/SimplifyCfg) on one
// function. Touches no module state other than the constant pool, which is
// internally synchronized — safe to run concurrently for distinct functions.
void OptimizeFunction(ir::Function& f, ir::Module& m,
                      const PipelineOptions& options);

// Standard pipeline: (inline), then OptimizeFunction on every function in
// declaration order across options.jobs workers. Verifies the module
// afterwards.
Status RunPipeline(ir::Module& m, const PipelineOptions& options = {});

// Like RunPipeline but only optimizes `functions` (used by the additive
// cache to skip functions whose optimized IR was cloned from the previous
// round). Inlining, if enabled, still runs over the whole module first.
Status RunPipelineOnFunctions(ir::Module& m,
                              const std::vector<ir::Function*>& functions,
                              const PipelineOptions& options = {});

}  // namespace polynima::opt

#endif  // POLYNIMA_OPT_PASSES_H_

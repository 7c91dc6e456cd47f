// Execution-backend interface for the tiered engine (DESIGN.md §4f).
//
// The engine core (src/exec/engine.h) owns threads, scheduling loops, guest
// memory and the dispatcher; *how* the current frame's instructions execute
// is a Backend:
//
//   tier 0  InterpreterBackend (src/exec/interp.cc) — walks the lifted IR
//           instruction by instruction. Always available; the semantic
//           reference every other tier must be bit-identical to.
//   tier 1  Tier1Backend (src/exec/tier1.{h,cc}) — translates hot functions
//           into direct-threaded bytecode with fused superinstructions and
//           executes that. Guarded: self-modifying-code stores, uncovered
//           CFG edges and controlled-scheduler preemption boundaries
//           deoptimize back to tier 0 mid-function.
//
// Frames carry their own tier (Frame::translated), so a thread's call stack
// may mix tiers freely — a cold callee interprets under a hot translated
// caller and vice versa. Deoptimization is cheap by construction: tier 1
// keeps the interpreter's per-frame value array as its register file, so a
// transfer is a (block, iterator) reposition, never a state rebuild.
//
// A future native re-encoding tier (src/x86 emitting host code) slots in as
// one more Backend implementation behind the same Frame/deopt contract.
#ifndef POLYNIMA_EXEC_BACKEND_H_
#define POLYNIMA_EXEC_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/ir/ir.h"
#include "src/ir/semantics.h"
#include "src/sched/scheduler.h"
#include "src/support/rng.h"

namespace polynima::exec {

class Engine;
struct Translation;  // tier-1 bytecode unit (src/exec/tier1.h)
struct NativeCode;   // tier-2 native re-emission (src/exec/tier2.h)

// Why a tier-1 frame transferred back to the interpreter.
enum class DeoptReason : int {
  // A controlled scheduler is attached and the next operation is a
  // guest-visible preemption point: the interpreter executes every visible
  // operation so the decision-point sequence is bit-identical to tier 0.
  kPreempt = 0,
  // A translated store targets an executable image range (self-modifying
  // code): the write must not retire under a translation it could
  // invalidate.
  kSmcWrite,
  // A branch took an edge into a block the translator did not cover
  // (control-flow miss stubs, traps — the additive-lifting frontier).
  kUncoveredEdge,
  kNumReasons,
};
const char* DeoptReasonName(DeoptReason reason);

// How much work one Backend::Step call may perform.
enum class StepMode : uint8_t {
  // Exactly one guest operation: the controlled scheduler classifies and
  // consults before every step, so the backend must not run ahead.
  kSingle,
  // Batch thread-private work, stopping before guest-visible operations so
  // the min-clock loop interleaves visible ops at the same clock values as
  // tier 0 (multi-threaded min-clock runs).
  kBatch,
  // Batch without visibility stops (single live thread, or nested execution
  // inside an external call where the scheduler is already committed).
  kBatchFree,
};

// Per-function facts the engine resolves once at construction (and the
// tier-1 translation, attached when the function crosses the hot
// threshold). Frames keep a pointer so the per-call and per-instruction hot
// paths never re-resolve maps.
struct FuncInfo {
  ir::Function* fn = nullptr;
  int num_slots = 0;
  // 1 at the id of each instruction whose result feeds only memory-operand
  // addresses: a native backend folds base+index*scale+disp into the
  // addressing mode, so it costs nothing.
  std::vector<uint8_t> fold_by_id;
  // Block entries + calls observed while interpreting — the hot-function
  // selector (mirrors the obs::GuestProfile entry counts when a profile
  // sink is attached, but works unattached).
  uint64_t heat = 0;
  bool translation_failed = false;
  std::shared_ptr<Translation> translation;
  // Tier-2 native re-emission of `translation` (promoted by continued heat
  // once the bytecode tier is in place; see src/exec/tier2.h).
  std::shared_ptr<NativeCode> native;
  bool native_failed = false;
  // Tier-telemetry scratch (obs::TierProf attached only; dead otherwise).
  // The hot paths bump these plain counters inline and the engine folds
  // them into the sink once at session end, so residency attribution costs
  // one array increment per retired batch. Array sizes mirror
  // obs::TierProf::{kNumTiers,kNumHelpers} (static_assert in engine.cc).
  static constexpr uint32_t kNoTierProfId = 0xffffffffu;
  uint32_t tp_id = kNoTierProfId;  // interned TierProf function id
  uint64_t tp_steps[3] = {};       // guest steps retired per tier
  uint64_t tp_helpers[5] = {};     // tier-2 out-of-line helper calls
};

// One lifted-function activation. `values` is the register file both tiers
// share: slot i holds IR instruction id i's result; tier-1 frames extend it
// with the translation's constant pool and phi scratch slots.
struct Frame {
  FuncInfo* info = nullptr;
  std::vector<uint64_t> values;
  ir::BasicBlock* block = nullptr;
  ir::BasicBlock::InstList::const_iterator it;
  ir::BasicBlock* prev_block = nullptr;
  // Frames pushed by the dispatcher/CallGuest do not propagate their
  // return value into the frame below.
  bool dispatch_root = false;
  // True while this frame executes tier-1 bytecode at `tpc`; false while
  // the interpreter drives (block, it). Deopt flips this mid-function.
  bool translated = false;
  // True while this frame executes tier-2 native code (implies `translated`:
  // both tiers share the TInst stream, and `tpc` is always the resume
  // position at batch boundaries). Deopt clears both flags.
  bool native = false;
  uint32_t tpc = 0;
  // Guest-profile site of the current block (valid only while profiling;
  // cached so the per-instruction hook is an array increment).
  uint32_t profile_site = 0;
};

struct Thread {
  int id = 0;
  uint64_t clock = 0;
  bool finished = false;
  uint64_t retval = 0;
  std::vector<Frame> stack;
  // Valid when stack is empty: guest PC awaiting dispatch.
  uint64_t pending_pc = 0;
  uint64_t exit_magic = 0;
  std::vector<uint64_t> tls;
  uint64_t estack_low = 0, estack_high = 0;
  // Return PC observed by the most recent top-level return.
  uint64_t last_toplevel_pc = 0;
  // Controlled scheduling only: the thread's last step was a blocking
  // retry (kBlock external, busy global lock); it leaves the candidate
  // set until some thread performs a state-changing visible operation.
  bool blocked = false;
  // Consecutive non-mutating visible steps (spinloop detector).
  int spin_streak = 0;
  // Cost-jitter stream. Per-thread (seeded from run seed + id) so a tier-1
  // batch that runs a private stretch without yielding consumes exactly the
  // draws tier 0 would have, in the same order — with a shared stream, any
  // change in cross-thread interleaving of private work would desynchronize
  // every thread's clock.
  Rng jitter_rng{1};
};

// Classification of a thread's next operation for the controlled scheduler.
struct NextOp {
  bool visible = false;     // preemption point: consult the scheduler
  bool mutates = false;     // state-changing: wakes blocked threads
  bool yield_hint = false;  // pause intrinsic: deprioritize immediately
  sched::PointKind kind = sched::PointKind::kDispatch;
};

// The scheduler's view of a call to an intrinsic of class `sched`.
inline NextOp IntrinsicNextOp(ir::SchedClass sched) {
  const bool visible = sched != ir::SchedClass::kNone;
  return {visible, sched == ir::SchedClass::kExternal,
          sched == ir::SchedClass::kYield,
          visible ? sched::PointKind::kExternal : sched::PointKind::kDispatch};
}

class Backend {
 public:
  virtual ~Backend() = default;
  virtual const char* name() const = 0;
  // Executes guest work on t's top frame per `mode`. Returns false when the
  // run must stop (fault, miss, exit). Every call executes at least one
  // guest instruction, so the scheduling loops always make progress.
  virtual bool Step(Thread& t, StepMode mode) = 0;
};

}  // namespace polynima::exec

#endif  // POLYNIMA_EXEC_BACKEND_H_

// Execution engine for lifted programs: the recompiled binary's runtime.
//
// Runs the lifted IR under the same deterministic min-clock scheduler as the
// x86 VM, against the same external library and the same guest address space
// (the original image stays mapped at its load address — paper §3.1 — so
// jump tables and global data resolve). Each thread owns:
//   - a slot array for thread_local IR globals (virtual CPU state),
//   - an emulated stack carved from the guest stack region (vr_rsp points
//     into it),
//   - a native call stack of lifted-function frames.
//
// Execution is tiered (DESIGN.md §4f, src/exec/backend.h): the engine owns
// the threads, scheduling loops and dispatcher, and delegates instruction
// execution to a Backend per frame — tier 0 interprets the IR, tier 1 runs
// direct-threaded superinstruction bytecode for hot functions and deopts
// back to tier 0 at guard points. Both tiers share the per-frame value
// array, so results, schedules, and state digests are bit-identical.
//
// The dispatcher implements the trampoline/callback-wrapper mechanism
// (§3.3.3): any guest PC that reaches the top level is mapped to its lifted
// function; entering through the dispatcher charges the marshaling cost the
// paper attributes to callback handling. Control-flow misses (the `cfmiss`
// intrinsic) terminate the run and are reported for the additive-lifting
// loop.
//
// Performance is measured in simulated cycles via IrCostModel; normalized
// runtime = engine wall_time / VM wall_time for the same workload.
#ifndef POLYNIMA_EXEC_ENGINE_H_
#define POLYNIMA_EXEC_ENGINE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/binary/image.h"
#include "src/exec/backend.h"
#include "src/ir/ir.h"
#include "src/lift/lifter.h"
#include "src/obs/report.h"
#include "src/sched/scheduler.h"
#include "src/support/rng.h"
#include "src/vm/external.h"
#include "src/vm/guest_context.h"
#include "src/vm/memory.h"

namespace polynima::exec {

class InterpreterBackend;
class Tier1Backend;
class Tier2Backend;

struct ExecOptions {
  uint64_t seed = 1;
  bool cost_jitter = true;
  uint64_t max_steps = 4'000'000'000ull;
  // Controlled scheduling (src/sched): when set, the min-clock scheduler is
  // replaced by an explicit decision loop — the current thread runs through
  // thread-private operations, and every guest-visible preemption point
  // (shared load/store, atomic, fence, external call, dispatcher boundary)
  // consults the Scheduler. Runs become a pure function of (seed, decision
  // log), which is what record/replay, PCT search and schedule shrinking
  // build on. Not owned.
  sched::Scheduler* scheduler = nullptr;
  // Highest execution tier: 0 = interpret everything, 1 = translate hot
  // functions to superinstruction bytecode (DESIGN.md §4f), 2 = additionally
  // re-emit hot tier-1 streams as native x86 (DESIGN.md §4g; silently capped
  // at 1 on hosts without executable mappings). Results are bit-identical
  // across tiers; higher tiers only change host-side speed.
  int tier = 0;
  // Block-entry count at which a function becomes hot enough to translate.
  // 0 with tier >= 1 means translate eagerly on first entry. Tier-2
  // promotion uses twice this threshold (staged 0 -> 1 -> 2 tier-up).
  uint64_t tier_threshold = 0;
  // Compute ExecResult::state_digest (implied by `scheduler`).
  bool record_state_digest = false;
  // Record per-instruction memory access classification (stack-local vs
  // shared) for the fence-optimization dynamic analysis (§3.4.2). Forces
  // tier 0: the record is keyed by IR instruction identity.
  bool record_accesses = false;
  // Record which lifted functions are entered from external code (thread
  // entries, callbacks) for the callback-wrapper removal analysis (§3.3.3).
  bool record_callbacks = false;
  // Guest entries of functions a sealed CfgCert declared fully covered
  // (every indirect site proven, no other uncovered blocks). An
  // uncovered-edge deopt inside one of these is a broken certificate claim:
  // it additionally bumps exec.deopt_uncovered_certified, which the
  // `report --validate` cross-check requires to be zero.
  std::set<uint64_t> cfg_certified_entries;
  // Observability sinks (all nullable; see src/obs). With `obs.profile` set,
  // every basic-block entry and every fence/atomic site is attributed to a
  // per-block profile site (the `polynima report` hot-block and
  // fence-density tables); the exec.* counters summarize the run. The hot
  // path stays a null check + array increment — and when neither metrics
  // nor profile sink is attached, dispatch selects an instruction loop
  // compiled without any of those checks.
  obs::Session obs;
};

// Simulated-cycle costs for executing recompiled code.
struct IrCostModel {
  uint64_t alu = 1;
  uint64_t global_access = 1;  // virtual-state (thread-local) slots
  uint64_t mem_access = 2;     // guest memory
  uint64_t fence = 3;
  uint64_t atomic = 14;    // lock-prefixed RMW: bus lock + 2 accesses, as native
  uint64_t branch = 1;
  uint64_t call = 2;
  uint64_t ret = 1;
  uint64_t helper = 10;        // QEMU-style helper invocation overhead
  uint64_t ext_marshal = 8;    // virtual-state <-> external-call marshal
  uint64_t dispatch_entry = 150;  // callback-wrapper entry: full register
                                  // marshal + emulated-stack argument copy
  uint64_t phi = 0;
};

struct MissInfo {
  uint64_t transfer_address = 0;  // 0 when the miss surfaced at the dispatcher
  uint64_t target = 0;
};

struct AccessRecord {
  bool stack_local = false;
  bool shared = false;
  // Distinct guest addresses observed at this site (bounded; overflow makes
  // alias queries conservative).
  std::set<uint64_t> addresses;
  bool overflow = false;

  bool MayAliasAddresses(const AccessRecord& other) const {
    if (overflow || other.overflow) {
      return true;
    }
    for (uint64_t a : addresses) {
      if (other.addresses.count(a) != 0) {
        return true;
      }
    }
    return false;
  }
};

struct ExecResult {
  bool ok = false;
  int64_t exit_code = 0;
  std::string fault_message;
  std::optional<MissInfo> miss;
  uint64_t wall_time = 0;
  uint64_t steps = 0;
  // FNV digest of the final guest state (memory pages, shared globals,
  // per-thread TLS and return values, output, exit code); only computed
  // under ExecOptions::record_state_digest or a controlled scheduler.
  // Comparable between runs of the same binary only.
  uint64_t state_digest = 0;
  std::string output;
  std::map<const ir::Instruction*, AccessRecord> accesses;
  std::set<std::string> observed_callbacks;
  // Tiered-execution telemetry (zero in pure tier-0 runs).
  uint64_t tier1_translations = 0;
  uint64_t tier1_instrs = 0;  // guest instructions retired by tier-1 code
  uint64_t tier2_translations = 0;
  uint64_t tier2_instrs = 0;  // guest instructions retired by native code
  uint64_t deopts = 0;
  uint64_t deopts_by_reason[static_cast<int>(DeoptReason::kNumReasons)] = {};
};

class Engine : public vm::GuestContext {
 public:
  Engine(const lift::LiftedProgram& program, const binary::Image& image,
         vm::ExternalLibrary* library, ExecOptions options);
  ~Engine() override;

  void SetInputs(std::vector<std::vector<uint8_t>> inputs) {
    inputs_ = std::move(inputs);
  }
  void set_costs(const IrCostModel& costs) { costs_ = costs; }

  ExecResult Run();

  // Native-tier backend, or null when tier 2 is off / unsupported on this
  // host. Exposed so tests can check perf-map ranges against the installed
  // code-buffer mappings.
  const Tier2Backend* tier2_backend() const { return tier2_.get(); }

  // --- GuestContext ---
  uint64_t GetArg(int index) override;
  void SetResult(uint64_t value) override;
  vm::Memory& memory() override { return memory_; }
  int SpawnThread(uint64_t entry, uint64_t arg0, uint64_t arg1) override;
  bool ThreadFinished(int tid, uint64_t* retval) override;
  int current_thread() override { return current_; }
  uint64_t CallGuest(uint64_t entry, std::span<const uint64_t> args) override;
  void AddCost(uint64_t cycles) override;
  uint64_t now() override;
  Rng& rng() override { return rng_; }
  std::string& output() override { return output_; }
  const std::vector<std::vector<uint8_t>>& inputs() override { return inputs_; }
  void RequestExit(int64_t code) override;

 private:
  friend class InterpreterBackend;
  friend class Tier1Backend;
  friend class Tier2Backend;

  Thread& CreateThread(uint64_t entry_pc, uint64_t arg0, uint64_t arg1,
                       uint64_t exit_magic);
  // One scheduling step: dispatch a pending PC or delegate the top frame to
  // its tier's backend under `mode`.
  bool Step(Thread& t, StepMode mode);
  bool StepInstruction(Thread& t);  // execute one IR instruction (tier 0)
  template <bool kObs>
  bool StepInstructionImpl(Thread& t);
  bool DispatchPending(Thread& t);
  void PushFrame(Thread& t, FuncInfo* info, bool dispatch_root);
  // Tier-up check: translate `info` when hot and OSR-enter the frame's
  // current block if a translation covers it; promote tier-1 frames to
  // native code once heat doubles the threshold.
  void MaybeTierUp(Frame& f);

  NextOp ClassifyNextOp(const Thread& t) const;
  // Block the thread's top frame currently executes, tier-agnostic
  // (Frame::block is stale while a frame runs tier-1 bytecode).
  ir::BasicBlock* CurrentBlock(const Thread& t) const;
  void RunMinClockLoop();
  void RunControlledLoop();
  uint64_t StateDigest();

  uint64_t Eval(const Frame& f, const ir::Value* v) const;
  uint64_t& GlobalSlot(Thread& t, const ir::Global* g);
  void EnterBlock(Frame& f, ir::BasicBlock* target);
  bool HandleIntrinsic(Thread& t, size_t frame_index,
                       const ir::Instruction& inst);

  void Fault(std::string message);
  void RecordAccess(const ir::Instruction* inst, Thread& t, uint64_t addr);
  uint32_t ProfileSite(const ir::Function* fn, const ir::BasicBlock* block);
  // Lazily interns `info` into the attached TierProf sink (tierprof_ only).
  uint32_t TierProfId(FuncInfo* info);

  // Resolves fn to its eagerly-built FuncInfo (never fails for module
  // functions).
  FuncInfo* InfoFor(const ir::Function* fn) const;

  const lift::LiftedProgram& program_;
  const binary::Image& image_;
  vm::ExternalLibrary* library_;
  ExecOptions options_;
  IrCostModel costs_;
  vm::Memory memory_;
  Rng rng_;

  std::vector<std::unique_ptr<Thread>> threads_;
  int current_ = 0;

  std::vector<uint64_t> shared_globals_;
  // Cached slots for argument/result registers.
  int vr_slot_[16] = {0};
  bool vr_tls_ = true;

  std::vector<std::vector<uint8_t>> inputs_;
  std::string output_;

  int global_lock_owner_ = -1;  // naive-atomics global spinlock
  // Set by blocking intrinsics: the current instruction is retried on the
  // thread's next turn instead of advancing.
  bool retry_pending_ = false;
  // Sticky per-step echo of retry_pending_ for the controlled loop (which
  // runs after StepInstruction has already consumed the flag).
  bool last_step_retried_ = false;

  // Per-function facts, built once at construction: value-slot counts,
  // addressing-fold sets, entry-PC and Function* lookup tables. The per-call
  // hot paths (dispatch, kCall, CallGuest) index these instead of
  // re-resolving maps keyed by lazily-discovered functions.
  std::vector<std::unique_ptr<FuncInfo>> func_infos_;
  std::unordered_map<uint64_t, FuncInfo*> entry_table_;
  std::unordered_map<const ir::Function*, FuncInfo*> by_fn_;

  // Execution tiers. tier1_ exists only when enabled by options.
  std::unique_ptr<InterpreterBackend> interp_;
  std::unique_ptr<Tier1Backend> tier1_;
  std::unique_ptr<Tier2Backend> tier2_;
  bool tier1_enabled_ = false;
  bool tier2_enabled_ = false;
  uint64_t tier_threshold_ = 0;
  uint64_t tier2_threshold_ = 0;
  // True when no metrics/profile/tierprof sink is attached: instruction
  // loops run the template specialization with every obs check compiled out.
  bool obs_attached_ = false;
  // Cached options_.obs.tierprof: the tier-telemetry hooks (lifecycle
  // events, residency scratch, helper counts) key off this one pointer.
  obs::TierProf* tierprof_ = nullptr;
  // Tier telemetry.
  uint64_t tier1_translations_ = 0;
  uint64_t tier1_instrs_ = 0;
  uint64_t tier2_translations_ = 0;
  uint64_t tier2_instrs_ = 0;
  uint64_t deopt_counts_[static_cast<int>(DeoptReason::kNumReasons)] = {};

  bool exited_ = false;
  int64_t exit_code_ = 0;
  bool faulted_ = false;
  std::string fault_message_;
  std::optional<MissInfo> miss_;
  uint64_t steps_ = 0;

  std::map<const ir::Instruction*, AccessRecord> accesses_;
  std::set<std::string> observed_callbacks_;

  // Lazily registered guest-profile sites (profiling runs only).
  std::map<const ir::BasicBlock*, uint32_t> profile_sites_;
};

}  // namespace polynima::exec

#endif  // POLYNIMA_EXEC_ENGINE_H_

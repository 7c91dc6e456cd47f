#include "src/exec/engine.h"

#include <algorithm>
#include <chrono>

#include "src/exec/interp.h"
#include "src/exec/tier1.h"
#include "src/exec/tier2.h"
#include "src/support/strings.h"
#include "src/vm/code_buffer.h"
#include "src/x86/registers.h"

namespace polynima::exec {

namespace x86 = ::polynima::x86;

using binary::kCallbackReturnMagic;
using binary::kProgramExitMagic;
using binary::kThreadExitMagic;
using ir::BasicBlock;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::Op;
using ir::Value;

namespace {

constexpr uint64_t kThreadStackSize = 1 << 20;

// Candidates: add/sub/shl-by-small-constant. Iteratively remove any whose
// user is not a memory-address position or another surviving candidate.
// Fold members are all value-producing, so their ids are in [0, num_slots).
void ComputeFold(FuncInfo* info) {
  std::vector<uint8_t>& fold = info->fold_by_id;
  fold.assign(static_cast<size_t>(info->num_slots), 0);
  auto folded = [&](const Instruction* inst) {
    return inst->id >= 0 && fold[static_cast<size_t>(inst->id)] != 0;
  };
  std::vector<const Instruction*> candidates;
  for (const auto& block : info->fn->blocks()) {
    for (const auto& inst : block->insts()) {
      bool candidate =
          inst->op() == Op::kAdd || inst->op() == Op::kSub ||
          (inst->op() == Op::kShl && inst->operand(1)->is_const() &&
           static_cast<const ir::Constant*>(inst->operand(1))->value() <= 3);
      if (candidate && !inst->users().empty()) {
        fold[static_cast<size_t>(inst->id)] = 1;
        candidates.push_back(inst.get());
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Instruction* inst : candidates) {
      if (!folded(inst)) {
        continue;
      }
      for (const Instruction* user : inst->users()) {
        bool address_use =
            ((user->op() == Op::kLoad || user->op() == Op::kStore) &&
             user->operand(0) == inst) ||
            folded(user);
        if (!address_use) {
          fold[static_cast<size_t>(inst->id)] = 0;
          changed = true;
          break;
        }
      }
    }
  }
}

}  // namespace

Engine::Engine(const lift::LiftedProgram& program, const binary::Image& image,
               vm::ExternalLibrary* library, ExecOptions options)
    : program_(program),
      image_(image),
      library_(library),
      options_(options),
      rng_(options.seed) {
  for (const binary::Segment& seg : image_.segments) {
    memory_.MapSegment(seg.address, seg.bytes, seg.Writable());
    if (seg.executable) {
      // Feeds the tier-1 self-modifying-code store guard.
      memory_.MarkExecutable(seg.address, seg.address + seg.bytes.size());
    }
  }
  memory_.AllowRegion(binary::kHeapBase, binary::kHeapLimit, true);
  memory_.AllowRegion(binary::kStackRegionBase, binary::kStackRegionLimit,
                      true);

  shared_globals_.assign(
      static_cast<size_t>(program_.module->num_global_slots()), 0);
  // Cache virtual-register slots for marshaling.
  for (int i = 0; i < x86::kNumGprs; ++i) {
    Global* g = program_.module->GetGlobal(
        "vr_" + x86::RegName(static_cast<x86::Reg>(i), 8));
    POLY_CHECK(g != nullptr);
    vr_slot_[i] = g->slot();
    vr_tls_ = g->is_thread_local();
  }

  // Per-function facts, resolved once: the dispatch/call hot paths index
  // these tables instead of renumbering and re-resolving maps per call.
  for (const auto& fn : program_.module->functions()) {
    auto info = std::make_unique<FuncInfo>();
    info->fn = fn.get();
    info->num_slots = fn->Renumber();
    ComputeFold(info.get());
    by_fn_[fn.get()] = info.get();
    func_infos_.push_back(std::move(info));
  }
  for (const auto& [pc, fn] : program_.functions_by_entry) {
    entry_table_[pc] = by_fn_.at(fn);
  }

  // Attach the obs sinks before the backends: Tier2Backend's constructor
  // installs the entry thunk and records it into the tierprof code map.
  tierprof_ = options_.obs.tierprof;
  obs_attached_ = options_.obs.metrics != nullptr ||
                  options_.obs.profile != nullptr || tierprof_ != nullptr;

  interp_ = std::make_unique<InterpreterBackend>(*this);
  tier1_ = std::make_unique<Tier1Backend>(*this);
  // record_accesses keys its output by IR instruction identity, which
  // forces pure tier-0 execution.
  tier1_enabled_ = options_.tier >= 1 && !options_.record_accesses;
  tier_threshold_ = options_.tier_threshold;
  // Tier 2 re-emits tier-1 streams as native code, so it inherits tier 1's
  // gating and additionally requires executable mappings on this host.
  tier2_enabled_ = tier1_enabled_ && options_.tier >= 2 &&
                   vm::CodeBuffer::Supported();
  if (tier2_enabled_) {
    tier2_ = std::make_unique<Tier2Backend>(*this);
    tier2_enabled_ = tier2_->ready();
  }
  // Staged promotion: a function crosses into tier 1 at the threshold and
  // into native code at twice that heat (eager at threshold 0).
  tier2_threshold_ = tier_threshold_ * 2;
}

Engine::~Engine() = default;

FuncInfo* Engine::InfoFor(const Function* fn) const {
  auto it = by_fn_.find(fn);
  POLY_CHECK(it != by_fn_.end()) << "unregistered function @" << fn->name();
  return it->second;
}

uint64_t& Engine::GlobalSlot(Thread& t, const Global* g) {
  if (g->is_thread_local()) {
    return t.tls[static_cast<size_t>(g->slot())];
  }
  return shared_globals_[static_cast<size_t>(g->slot())];
}

Thread& Engine::CreateThread(uint64_t entry_pc, uint64_t arg0, uint64_t arg1,
                             uint64_t exit_magic) {
  auto thread = std::make_unique<Thread>();
  thread->id = static_cast<int>(threads_.size());
  thread->tls.assign(
      static_cast<size_t>(program_.module->num_global_slots()), 0);
  // Per-thread jitter stream (see backend.h): a deterministic function of
  // (run seed, thread id), identical across execution tiers.
  thread->jitter_rng = Rng(
      options_.seed ^
      (0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(thread->id) + 1)));
  uint64_t low = binary::kStackRegionBase +
                 static_cast<uint64_t>(thread->id) * kThreadStackSize;
  POLY_CHECK_LT(low + kThreadStackSize, binary::kStackRegionLimit);
  thread->estack_low = low;
  thread->estack_high = low + kThreadStackSize;
  uint64_t sp = thread->estack_high - 8;
  memory_.Write(sp, 8, exit_magic);

  auto vr = [&](int reg) -> uint64_t& {
    if (vr_tls_) {
      return thread->tls[static_cast<size_t>(vr_slot_[reg])];
    }
    return shared_globals_[static_cast<size_t>(vr_slot_[reg])];
  };
  vr(static_cast<int>(x86::Reg::kRsp)) = sp;
  vr(static_cast<int>(x86::Reg::kRdi)) = arg0;
  vr(static_cast<int>(x86::Reg::kRsi)) = arg1;

  thread->pending_pc = entry_pc;
  thread->exit_magic = exit_magic;
  threads_.push_back(std::move(thread));
  if (options_.scheduler != nullptr) {
    options_.scheduler->OnSpawn(threads_.back()->id);
  }
  return *threads_.back();
}

void Engine::Fault(std::string message) {
  if (!faulted_) {
    faulted_ = true;
    fault_message_ = std::move(message);
    options_.obs.Add(obs::Counter::kExecFaults);
  }
}

void Engine::RecordAccess(const Instruction* inst, Thread& t, uint64_t addr) {
  if (!options_.record_accesses) {
    return;
  }
  AccessRecord& rec = accesses_[inst];
  if (addr >= t.estack_low && addr < t.estack_high) {
    rec.stack_local = true;
  } else {
    rec.shared = true;
  }
  if (rec.addresses.size() < 4096) {
    rec.addresses.insert(addr);
  } else {
    rec.overflow = true;
  }
}

uint32_t Engine::ProfileSite(const Function* fn, const BasicBlock* block) {
  auto it = profile_sites_.find(block);
  if (it == profile_sites_.end()) {
    uint32_t site = options_.obs.profile->RegisterSite(
        fn->name(), block->name(), block->guest_address);
    it = profile_sites_.emplace(block, site).first;
  }
  return it->second;
}

// The obs sink mirrors the exec deopt-reason enum (obs is a leaf library);
// keep the raw values in lock-step so the engine can pass them through.
static_assert(static_cast<int>(DeoptReason::kPreempt) ==
              obs::TierProf::kDeoptPreempt);
static_assert(static_cast<int>(DeoptReason::kSmcWrite) ==
              obs::TierProf::kDeoptSmcWrite);
static_assert(static_cast<int>(DeoptReason::kUncoveredEdge) ==
              obs::TierProf::kDeoptUncoveredEdge);
static_assert(static_cast<int>(DeoptReason::kNumReasons) ==
              obs::TierProf::kNumDeoptReasons);
// FuncInfo's inline telemetry scratch is sized to the sink's taxonomy.
static_assert(sizeof(FuncInfo::tp_steps) / sizeof(uint64_t) ==
              obs::TierProf::kNumTiers);
static_assert(sizeof(FuncInfo::tp_helpers) / sizeof(uint64_t) ==
              obs::TierProf::kNumHelpers);

uint32_t Engine::TierProfId(FuncInfo* info) {
  if (info->tp_id == FuncInfo::kNoTierProfId) {
    const BasicBlock* entry = info->fn->entry();
    info->tp_id = tierprof_->InternFunction(
        info->fn->name(), entry != nullptr ? entry->guest_address : 0);
  }
  return info->tp_id;
}

uint64_t Engine::Eval(const Frame& f, const Value* v) const {
  switch (v->kind()) {
    case Value::Kind::kConstant:
      return static_cast<uint64_t>(static_cast<const ir::Constant*>(v)->value());
    case Value::Kind::kInstruction: {
      const auto* inst = static_cast<const Instruction*>(v);
      POLY_CHECK_GE(inst->id, 0);
      return f.values[static_cast<size_t>(inst->id)];
    }
    default:
      POLY_UNREACHABLE("bad operand kind");
  }
}

void Engine::PushFrame(Thread& t, FuncInfo* info, bool dispatch_root) {
  Frame frame;
  frame.info = info;
  frame.values.assign(static_cast<size_t>(info->num_slots), 0);
  frame.block = info->fn->entry();
  frame.it = frame.block->insts().begin();
  frame.dispatch_root = dispatch_root;
  if (options_.obs.profile != nullptr) {
    frame.profile_site = ProfileSite(info->fn, frame.block);
    options_.obs.profile->AddEntry(frame.profile_site);
  }
  t.stack.push_back(std::move(frame));
  MaybeTierUp(t.stack.back());
}

void Engine::MaybeTierUp(Frame& f) {
  if (!tier1_enabled_ || f.native) {
    return;
  }
  FuncInfo* info = f.info;
  if (!f.translated) {
    if (info->translation == nullptr) {
      if (info->translation_failed) {
        return;
      }
      if (++info->heat < tier_threshold_) {
        return;  // not hot yet (threshold 0 translates on first entry)
      }
      // Translation wall time is host-side observation only: the clock is
      // read when the sink is attached and feeds nothing the guest sees.
      uint64_t wall_ns = 0;
      bool translated;
      if (tierprof_ != nullptr) {
        auto t0 = std::chrono::steady_clock::now();
        translated = tier1_->Translate(info);
        wall_ns = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
      } else {
        translated = tier1_->Translate(info);
      }
      if (!translated) {
        return;
      }
      ++tier1_translations_;
      options_.obs.Add(obs::Counter::kExecTier1Translations);
      if (tierprof_ != nullptr) {
        uint32_t id = TierProfId(info);
        tierprof_->RecordTranslation(current_, id, 1,
                                     info->translation->code.size(), wall_ns,
                                     steps_);
        tierprof_->RecordTierUp(current_, id, 1, info->heat, steps_);
      }
    }
    // On-stack replacement at the current block's bytecode head. The head is
    // post-phi, and this runs only at block/function entry with phis already
    // materialized. Uncovered current block: stay in tier 0 for now.
    auto it = info->translation->block_heads.find(f.block);
    if (it == info->translation->block_heads.end()) {
      return;
    }
    // A mid-function promotion (any non-entry block, including re-entry
    // after a deopt) is an OSR; plain activations enter at the entry block
    // and are residency, not events.
    if (tierprof_ != nullptr && f.block != info->fn->entry()) {
      tierprof_->RecordOsrEntry(current_, TierProfId(info), 1,
                                f.block->guest_address, steps_);
    }
    f.translated = true;
    f.tpc = it->second;
    Tier1Backend::EnsureTier1Values(f);
  }
  // Native promotion. Heat keeps counting past the tier-1 threshold — once
  // per activation/OSR boundary and once per exhausted tier-1 batch quantum
  // (Engine::Step re-dispatch), so both call-heavy functions and one long
  // activation eventually cross tier2_threshold_. Tier-1-only configs never
  // reach this point with tier2_enabled_, so their heat stops at
  // translation exactly as before.
  if (!tier2_enabled_ || info->native_failed) {
    return;
  }
  if (info->native == nullptr) {
    if (++info->heat < tier2_threshold_) {
      return;
    }
    uint64_t wall_ns = 0;
    bool emitted;
    if (tierprof_ != nullptr) {
      auto t0 = std::chrono::steady_clock::now();
      emitted = tier2_->Translate(info);
      wall_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    } else {
      emitted = tier2_->Translate(info);
    }
    if (!emitted) {
      return;
    }
    ++tier2_translations_;
    options_.obs.Add(obs::Counter::kExecTier2Translations);
    if (tierprof_ != nullptr) {
      uint32_t id = TierProfId(info);
      tierprof_->RecordTranslation(current_, id, 2, info->native->code_size,
                                   wall_ns, steps_);
      tierprof_->RecordTierUp(current_, id, 2, info->heat, steps_);
      // The frame that crossed the threshold continues mid-function in
      // native code: an OSR into tier 2 unless it resumes at the entry
      // block's bytecode head (a fresh activation). Frame::block is stale
      // for translated frames, so test the resume pc.
      auto entry_head =
          info->translation->block_heads.find(info->fn->entry());
      if (entry_head == info->translation->block_heads.end() ||
          f.tpc != entry_head->second) {
        const auto& code = info->translation->code;
        uint64_t resume_pc = f.tpc < code.size() && code[f.tpc].block != nullptr
                                 ? code[f.tpc].block->guest_address
                                 : 0;
        tierprof_->RecordOsrEntry(current_, id, 2, resume_pc, steps_);
      }
    }
  }
  f.native = true;
}

void Engine::EnterBlock(Frame& f, BasicBlock* target) {
  // Two-phase phi evaluation (parallel copy semantics).
  BasicBlock* from = f.block;
  std::vector<std::pair<const Instruction*, uint64_t>> phi_values;
  for (const auto& inst : target->insts()) {
    if (inst->op() != Op::kPhi) {
      break;
    }
    int idx = -1;
    for (size_t i = 0; i < inst->phi_blocks.size(); ++i) {
      if (inst->phi_blocks[i] == from) {
        idx = static_cast<int>(i);
        break;
      }
    }
    POLY_CHECK_GE(idx, 0) << "phi missing incoming block";
    phi_values.push_back({inst.get(), Eval(f, inst->operand(idx))});
  }
  for (const auto& [phi, value] : phi_values) {
    f.values[static_cast<size_t>(phi->id)] = value;
  }
  f.prev_block = from;
  f.block = target;
  f.it = target->insts().begin();
  // Skip the phi prefix (already materialized).
  while (f.it != target->insts().end() && (*f.it)->op() == Op::kPhi) {
    ++f.it;
  }
  if (options_.obs.profile != nullptr) {
    f.profile_site = ProfileSite(f.info->fn, target);
    options_.obs.profile->AddEntry(f.profile_site);
  }
  MaybeTierUp(f);
}

bool Engine::DispatchPending(Thread& t) {
  uint64_t pc = t.pending_pc;
  if (pc == kThreadExitMagic || pc == kProgramExitMagic ||
      pc == t.exit_magic) {
    auto vr = [&](int reg) -> uint64_t {
      if (vr_tls_) {
        return t.tls[static_cast<size_t>(vr_slot_[reg])];
      }
      return shared_globals_[static_cast<size_t>(vr_slot_[reg])];
    };
    uint64_t rax = vr(static_cast<int>(x86::Reg::kRax));
    if (pc == kProgramExitMagic) {
      RequestExit(static_cast<int32_t>(rax));
      t.finished = true;
    } else {
      t.finished = true;
      t.retval = rax;
    }
    return true;
  }
  auto it = entry_table_.find(pc);
  if (it == entry_table_.end()) {
    miss_ = MissInfo{0, pc};
    Fault(StrCat("control flow miss at dispatcher: ", HexString(pc)));
    return false;
  }
  if (options_.record_callbacks) {
    observed_callbacks_.insert(it->second->fn->name());
  }
  PushFrame(t, it->second, /*dispatch_root=*/true);
  t.clock += costs_.dispatch_entry;
  options_.obs.Add(obs::Counter::kExecDispatches);
  return true;
}

bool Engine::Step(Thread& t, StepMode mode) {
  if (t.stack.empty()) {
    return DispatchPending(t);
  }
  Frame& f = t.stack.back();
  // A hot tier-1 frame inside one long activation never re-crosses an
  // activation boundary, so batch re-dispatch is the second place heat can
  // accrue and the frame can enter native code: every tpc has a tier-2
  // entry point, making any batch boundary a valid OSR site.
  if (tier2_enabled_ && f.translated && !f.native &&
      mode != StepMode::kSingle) {
    MaybeTierUp(f);
  }
  // Native frames batch through tier 2; controlled (kSingle) steps drive
  // the same TInst stream through the tier-1 executor so decision points
  // stay bit-identical.
  if (f.native && mode != StepMode::kSingle) {
    return tier2_->Step(t, mode);
  }
  if (f.translated) {
    return tier1_->Step(t, mode);
  }
  return interp_->Step(t, mode);
}

void Engine::RunMinClockLoop() {
  while (!exited_ && !faulted_) {
    Thread* best = nullptr;
    int live = 0;
    for (auto& t : threads_) {
      if (t->finished) {
        continue;
      }
      ++live;
      if (best == nullptr || t->clock < best->clock) {
        best = t.get();
      }
    }
    if (best == nullptr) {
      break;
    }
    current_ = best->id;
    // With several live threads tier-1 batches must stop before visible
    // operations so those interleave at the same clocks as tier 0; a sole
    // survivor has nobody to observe it and runs free.
    StepMode mode = live > 1 ? StepMode::kBatch : StepMode::kBatchFree;
    if (!Step(*best, mode)) {
      break;
    }
    if (memory_.faulted()) {
      Fault(StrCat("memory access violation at ",
                   HexString(memory_.fault_address())));
      break;
    }
    if (++steps_ > options_.max_steps) {
      Fault("step limit exceeded in lifted code");
      break;
    }
  }
}

NextOp Engine::ClassifyNextOp(const Thread& t) const {
  NextOp op;
  if (t.stack.empty()) {
    // Dispatcher boundary: thread entry, exit (join-state change), or a
    // top-level tail transfer.
    op.visible = true;
    op.mutates = true;
    op.kind = sched::PointKind::kDispatch;
    return op;
  }
  const Frame& f = t.stack.back();
  if (f.translated) {
    return tier1_->Classify(t, f);
  }
  const Instruction& inst = **f.it;
  switch (inst.op()) {
    case Op::kLoad:
    case Op::kStore: {
      // Operands of the next instruction are already materialized, so the
      // address can be evaluated without side effects.
      uint64_t addr = Eval(f, inst.operand(0));
      if (addr >= t.estack_low && addr < t.estack_high) {
        return op;  // emulated-stack access: thread-private
      }
      op.visible = true;
      op.mutates = inst.op() == Op::kStore;
      op.kind = inst.op() == Op::kStore ? sched::PointKind::kStore
                                        : sched::PointKind::kLoad;
      return op;
    }
    case Op::kAtomicRmw:
    case Op::kCmpXchg:
      op.visible = true;
      op.mutates = true;
      op.kind = sched::PointKind::kAtomic;
      return op;
    case Op::kFence:
      op.visible = true;
      op.kind = sched::PointKind::kFence;
      return op;
    case Op::kGlobalLoad:
    case Op::kGlobalStore:
      if (inst.global->is_thread_local()) {
        return op;  // virtual CPU state: thread-private
      }
      op.visible = true;
      op.mutates = inst.op() == Op::kGlobalStore;
      op.kind = inst.op() == Op::kGlobalStore ? sched::PointKind::kStore
                                              : sched::PointKind::kLoad;
      return op;
    case Op::kCall:
      if (inst.callee != nullptr) {
        return op;  // lifted-to-lifted call: no external visibility
      }
      return IntrinsicNextOp(ir::InfoOf(inst.intrinsic).sched);
    default:
      return op;
  }
}

BasicBlock* Engine::CurrentBlock(const Thread& t) const {
  if (t.stack.empty()) {
    return nullptr;
  }
  const Frame& f = t.stack.back();
  return f.translated ? tier1_->CurrentBlock(f) : f.block;
}

void Engine::RunControlledLoop() {
  // A thread that spends this many consecutive visible steps without a
  // state-changing operation is treated as spinning and reported to the
  // strategy via OnYield (PCT demotes it, avoiding guest-spinloop livelock).
  constexpr int kSpinYieldStreak = 64;
  sched::Scheduler& scheduler = *options_.scheduler;
  uint64_t decision_index = 0;
  int last = 0;
  while (!exited_ && !faulted_) {
    std::vector<int> runnable, unfinished;
    for (auto& t : threads_) {
      if (t->finished) {
        continue;
      }
      unfinished.push_back(t->id);
      if (!t->blocked) {
        runnable.push_back(t->id);
      }
    }
    if (unfinished.empty()) {
      break;
    }
    if (runnable.empty()) {
      // Every live thread is blocked: either a guest deadlock (the step
      // limit will surface it) or an external whose wake condition our
      // conservative tracking missed. Let all of them retry.
      for (auto& t : threads_) {
        t->blocked = false;
      }
      runnable = unfinished;
    }

    int pick;
    bool last_runnable = std::find(runnable.begin(), runnable.end(), last) !=
                         runnable.end();
    if (last_runnable &&
        !ClassifyNextOp(*threads_[static_cast<size_t>(last)]).visible) {
      // Thread-private operation: the current thread keeps running without
      // a decision point (other threads cannot observe the difference).
      pick = last;
    } else if (runnable.size() == 1) {
      pick = runnable.front();
    } else {
      sched::PointKind kind =
          last_runnable
              ? ClassifyNextOp(*threads_[static_cast<size_t>(last)]).kind
              : sched::PointKind::kDispatch;
      // Guest address of the block the current thread is stopped in — lets
      // hint-driven strategies (sched::HintedScheduler) recognize statically
      // reported racing accesses.
      uint64_t guest_address = 0;
      if (last_runnable) {
        const BasicBlock* b =
            CurrentBlock(*threads_[static_cast<size_t>(last)]);
        if (b != nullptr) {
          guest_address = b->guest_address;
        }
      }
      pick = scheduler.Pick({decision_index++, last, kind, guest_address},
                            runnable);
      POLY_CHECK(std::find(runnable.begin(), runnable.end(), pick) !=
                 runnable.end())
          << "scheduler picked non-runnable thread " << pick;
    }

    Thread& t = *threads_[static_cast<size_t>(pick)];
    NextOp next = ClassifyNextOp(t);
    current_ = pick;
    last_step_retried_ = false;
    if (!Step(t, StepMode::kSingle)) {
      break;
    }
    last = pick;
    if (memory_.faulted()) {
      Fault(StrCat("memory access violation at ",
                   HexString(memory_.fault_address())));
      break;
    }
    if (++steps_ > options_.max_steps) {
      Fault("step limit exceeded in lifted code");
      break;
    }
    if (last_step_retried_) {
      // Blocking retry: park the thread until global state changes.
      t.blocked = true;
      t.spin_streak = 0;
      continue;
    }
    if (!next.visible) {
      continue;
    }
    if (next.mutates) {
      t.spin_streak = 0;
      for (auto& other : threads_) {
        other->blocked = false;
      }
    } else if (next.yield_hint || ++t.spin_streak >= kSpinYieldStreak) {
      t.spin_streak = 0;
      scheduler.OnYield(t.id);
    }
  }
}

uint64_t Engine::StateDigest() {
  uint64_t h = memory_.Digest();
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (i * 8)) & 0xff)) * 1099511628211ull;
    }
  };
  for (uint64_t v : shared_globals_) {
    mix(v);
  }
  for (const auto& t : threads_) {
    mix(static_cast<uint64_t>(t->finished));
    mix(t->retval);
    for (uint64_t v : t->tls) {
      mix(v);
    }
  }
  for (char c : output_) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  mix(static_cast<uint64_t>(exit_code_));
  mix(static_cast<uint64_t>(faulted_));
  return h;
}

ExecResult Engine::Run() {
  POLY_CHECK(threads_.empty()) << "Run() may only be called once";
  CreateThread(program_.entry, 0, 0, kProgramExitMagic);

  obs::Span span(options_.obs.trace, "exec", "run");
  if (options_.scheduler != nullptr) {
    RunControlledLoop();
  } else {
    RunMinClockLoop();
  }
  options_.obs.Add(obs::Counter::kExecGuestInstrs, steps_);
  if (tier1_instrs_ > 0) {
    options_.obs.Add(obs::Counter::kExecTier1Instrs, tier1_instrs_);
  }
  if (tier2_instrs_ > 0) {
    options_.obs.Add(obs::Counter::kExecTier2Instrs, tier2_instrs_);
  }
  if (tierprof_ != nullptr) {
    // Fold the inline per-function scratch (residency steps, tier-2 helper
    // calls) into the sink — deferred to session end so the hot paths never
    // call into obs.
    for (const auto& owned : func_infos_) {
      FuncInfo* info = owned.get();
      bool any = info->tp_id != FuncInfo::kNoTierProfId;
      for (uint64_t s : info->tp_steps) {
        any |= s != 0;
      }
      for (uint64_t h : info->tp_helpers) {
        any |= h != 0;
      }
      if (!any) {
        continue;
      }
      uint32_t id = TierProfId(info);
      for (int tier = 0; tier < obs::TierProf::kNumTiers; ++tier) {
        if (info->tp_steps[tier] != 0) {
          tierprof_->AddResidency(id, tier, info->tp_steps[tier]);
        }
      }
      for (uint8_t h = 0; h < obs::TierProf::kNumHelpers; ++h) {
        if (info->tp_helpers[h] != 0) {
          tierprof_->AddHelperCalls(id, h, info->tp_helpers[h]);
        }
      }
    }
  }
  span.Arg("steps", static_cast<int64_t>(steps_));
  span.End();

  ExecResult result;
  result.ok = !faulted_;
  result.exit_code = exit_code_;
  result.fault_message = fault_message_;
  result.miss = miss_;
  result.steps = steps_;
  result.output = output_;
  result.accesses = accesses_;
  result.observed_callbacks = observed_callbacks_;
  result.tier1_translations = tier1_translations_;
  result.tier1_instrs = tier1_instrs_;
  result.tier2_translations = tier2_translations_;
  result.tier2_instrs = tier2_instrs_;
  for (int i = 0; i < static_cast<int>(DeoptReason::kNumReasons); ++i) {
    result.deopts_by_reason[i] = deopt_counts_[i];
    result.deopts += deopt_counts_[i];
  }
  for (const auto& t : threads_) {
    result.wall_time = std::max(result.wall_time, t->clock);
  }
  if (options_.scheduler != nullptr || options_.record_state_digest) {
    result.state_digest = StateDigest();
  }
  return result;
}

// ---------------------------------------------------------------------------
// GuestContext
// ---------------------------------------------------------------------------

uint64_t Engine::GetArg(int index) {
  static const x86::Reg kArgRegs[6] = {x86::Reg::kRdi, x86::Reg::kRsi,
                                       x86::Reg::kRdx, x86::Reg::kRcx,
                                       x86::Reg::kR8,  x86::Reg::kR9};
  POLY_CHECK_LT(index, 6);
  Thread& t = *threads_[static_cast<size_t>(current_)];
  int slot = vr_slot_[static_cast<int>(kArgRegs[index])];
  return vr_tls_ ? t.tls[static_cast<size_t>(slot)]
                 : shared_globals_[static_cast<size_t>(slot)];
}

void Engine::SetResult(uint64_t value) {
  Thread& t = *threads_[static_cast<size_t>(current_)];
  int slot = vr_slot_[static_cast<int>(x86::Reg::kRax)];
  (vr_tls_ ? t.tls[static_cast<size_t>(slot)]
           : shared_globals_[static_cast<size_t>(slot)]) = value;
}

int Engine::SpawnThread(uint64_t entry, uint64_t arg0, uint64_t arg1) {
  uint64_t parent_clock = threads_[static_cast<size_t>(current_)]->clock;
  Thread& t = CreateThread(entry, arg0, arg1, kThreadExitMagic);
  t.clock = parent_clock + 100;
  return t.id;
}

bool Engine::ThreadFinished(int tid, uint64_t* retval) {
  if (tid < 0 || static_cast<size_t>(tid) >= threads_.size()) {
    return false;
  }
  Thread& t = *threads_[static_cast<size_t>(tid)];
  if (!t.finished) {
    return false;
  }
  if (retval != nullptr) {
    *retval = t.retval;
  }
  Thread& cur = *threads_[static_cast<size_t>(current_)];
  cur.clock = std::max(cur.clock, t.clock);
  return true;
}

uint64_t Engine::CallGuest(uint64_t entry, std::span<const uint64_t> args) {
  Thread& t = *threads_[static_cast<size_t>(current_)];
  static const x86::Reg kArgRegs[6] = {x86::Reg::kRdi, x86::Reg::kRsi,
                                       x86::Reg::kRdx, x86::Reg::kRcx,
                                       x86::Reg::kR8,  x86::Reg::kR9};
  POLY_CHECK_LE(args.size(), 6u);
  auto vr = [&](int reg) -> uint64_t& {
    int slot = vr_slot_[reg];
    return vr_tls_ ? t.tls[static_cast<size_t>(slot)]
                   : shared_globals_[static_cast<size_t>(slot)];
  };
  for (size_t i = 0; i < args.size(); ++i) {
    vr(static_cast<int>(kArgRegs[i])) = args[i];
  }
  // Push the callback-return sentinel on the emulated stack.
  uint64_t& sp = vr(static_cast<int>(x86::Reg::kRsp));
  sp -= 8;
  memory_.Write(sp, 8, kCallbackReturnMagic);

  size_t base_depth = t.stack.size();
  uint64_t pc = entry;
  while (!faulted_ && !exited_) {
    auto it = entry_table_.find(pc);
    if (it == entry_table_.end()) {
      miss_ = MissInfo{0, pc};
      Fault(StrCat("control flow miss in callback: ", HexString(pc)));
      break;
    }
    if (options_.record_callbacks) {
      observed_callbacks_.insert(it->second->fn->name());
    }
    PushFrame(t, it->second, /*dispatch_root=*/true);
    t.clock += costs_.dispatch_entry;
    // Run until this dispatch-root frame returns. The scheduler is already
    // committed to this external call, so nested execution runs free.
    while (t.stack.size() > base_depth && !faulted_ && !exited_) {
      if (!Step(t, StepMode::kBatchFree)) {
        break;
      }
      if (++steps_ > options_.max_steps) {
        Fault("step limit exceeded in callback");
        break;
      }
    }
    if (faulted_ || exited_) {
      break;
    }
    pc = t.last_toplevel_pc;
    if (pc == kCallbackReturnMagic) {
      break;  // callback completed
    }
    // Tail transfer: re-dispatch.
  }
  return vr(static_cast<int>(x86::Reg::kRax));
}

void Engine::AddCost(uint64_t cycles) {
  threads_[static_cast<size_t>(current_)]->clock += cycles;
}

uint64_t Engine::now() {
  return threads_[static_cast<size_t>(current_)]->clock;
}

void Engine::RequestExit(int64_t code) {
  exited_ = true;
  exit_code_ = code;
}

}  // namespace polynima::exec

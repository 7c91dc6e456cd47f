#include "src/lift/lifter.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "src/ir/builder.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/x86/decoder.h"
#include "src/x86/printer.h"

namespace polynima::lift {

using binary::Image;
using cfg::BlockInfo;
using cfg::ControlFlowGraph;
using cfg::FunctionInfo;
using cfg::TermKind;
using ir::BasicBlock;
using ir::FenceOrder;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::Intrinsic;
using ir::IRBuilder;
using ir::Pred;
using ir::RmwOp;
using ir::Value;
using x86::Cond;
using x86::Inst;
using x86::MemRef;
using x86::Mnemonic;
using x86::Operand;
using x86::Reg;

namespace {

enum FlagIndex { kCf = 0, kPf = 1, kZf = 2, kSf = 3, kOf = 4 };

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Module-level state built serially before function bodies are lifted.
// During the parallel body phase this is read-only, with one exception: the
// module's constant pool, which synchronizes internally.
struct SharedState {
  const Image& image;
  const ControlFlowGraph& graph;
  const LiftOptions& options;
  ir::Module* module;

  Global* vr[x86::kNumGprs] = {};
  Global* fl[x86::kNumFlags] = {};
  Global* xmm_lo[x86::kNumXmms] = {};
  Global* xmm_hi[x86::kNumXmms] = {};

  std::map<uint64_t, Function*> functions_by_entry = {};
};

void CreateGlobals(SharedState& s) {
  bool tls = s.options.thread_local_state;
  for (int i = 0; i < x86::kNumGprs; ++i) {
    s.vr[i] = s.module->AddGlobal(
        "vr_" + x86::RegName(static_cast<Reg>(i), 8), tls);
  }
  static const char* const kFlagNames[] = {"cf", "pf", "zf", "sf", "of"};
  for (int i = 0; i < x86::kNumFlags; ++i) {
    s.fl[i] = s.module->AddGlobal(StrCat("fl_", kFlagNames[i]), tls);
  }
  for (int i = 0; i < x86::kNumXmms; ++i) {
    s.xmm_lo[i] = s.module->AddGlobal(StrCat("xmm", i, "_lo"), tls);
    s.xmm_hi[i] = s.module->AddGlobal(StrCat("xmm", i, "_hi"), tls);
  }
}

// Lifts one guest function's body. One instance per function; instances run
// concurrently on the thread pool, so everything mutable is per-function
// (synthetic-block counters included — block names must not depend on which
// functions were lifted before this one, or on worker scheduling).
class FunctionLifter {
 public:
  explicit FunctionLifter(SharedState& s) : s_(s), b_(s.module) {}

  Status Lift(const FunctionInfo& fn_info) {
    Status st = LiftFunction(fn_info);
    if (st.ok() && s_.options.obs.metrics != nullptr) {
      const obs::Session& obs = s_.options.obs;
      obs.Add(obs::Counter::kFenceoptFencesInserted, fences_considered_);
      obs.Add(obs::Counter::kFenceoptFencesElided, fences_elided_);
      obs.Add(obs::Counter::kFenceoptFencesRetained, fences_retained_);
      obs.Add(obs::Counter::kFenceoptWitnessStack, fences_elided_);
    }
    return st;
  }

 private:
  // ---- small value helpers ----

  Value* C(int64_t v) { return b_.Const(v); }

  Value* Mask(Value* v, int size) {
    if (size >= 8) {
      return v;
    }
    return b_.And(v, C(static_cast<int64_t>((uint64_t{1} << (size * 8)) - 1)));
  }

  Value* ReadReg(Reg r, int size) {
    return Mask(b_.GLoad(s_.vr[static_cast<int>(r)]), size);
  }

  void WriteReg(Reg r, int size, Value* v) {
    Global* g = s_.vr[static_cast<int>(r)];
    switch (size) {
      case 8:
        b_.GStore(g, v);
        return;
      case 4:
        b_.GStore(g, Mask(v, 4));  // 32-bit writes zero the upper half
        return;
      default: {
        // 1/2-byte writes merge into the existing value.
        int64_t keep = ~static_cast<int64_t>((uint64_t{1} << (size * 8)) - 1);
        Value* old = b_.GLoad(g);
        Value* merged = b_.Or(b_.And(old, C(keep)), Mask(v, size));
        b_.GStore(g, merged);
        return;
      }
    }
  }

  Value* EffAddr(const MemRef& mem, const Inst& inst) {
    if (mem.rip_relative) {
      return C(static_cast<int64_t>(inst.Next()) + mem.disp);
    }
    Value* addr = C(mem.disp);
    if (mem.base != Reg::kNone) {
      addr = b_.Add(addr, b_.GLoad(s_.vr[static_cast<int>(mem.base)]));
    }
    if (mem.index != Reg::kNone) {
      Value* idx = b_.GLoad(s_.vr[static_cast<int>(mem.index)]);
      if (mem.scale != 1) {
        int shift = mem.scale == 2 ? 1 : mem.scale == 4 ? 2 : 3;
        idx = b_.Shl(idx, C(shift));
      }
      addr = b_.Add(addr, idx);
    }
    return addr;
  }

  // Stack-locality (§3.3.4): an access is stack-local when its base register
  // currently holds a value derived from the emulated stack pointer.
  // Provenance is tracked per block: rsp (and the frame pointer) seed the
  // set; mov/lea/add-const/sub-const propagate it; balanced push/pop pairs
  // carry it through the emulated stack (which is thread-private, so this is
  // sound); any other write clears it.
  bool IsStackLocal(const MemRef& mem) const {
    return mem.base != Reg::kNone && stack_regs_.count(mem.base) != 0;
  }

  void ResetStackTracking() {
    stack_regs_.clear();
    stack_regs_.insert(Reg::kRsp);
    if (rbp_is_frame_) {
      stack_regs_.insert(Reg::kRbp);
    }
    push_taint_.clear();
  }

  void UpdateStackTracking(const Inst& inst) {
    auto tainted = [&](Reg r) { return stack_regs_.count(r) != 0; };
    auto set = [&](Reg r, bool v) {
      // The stack pointer (and an established frame pointer) stay derived.
      if (r == Reg::kRsp || (rbp_is_frame_ && r == Reg::kRbp)) {
        return;
      }
      if (v) {
        stack_regs_.insert(r);
      } else {
        stack_regs_.erase(r);
      }
    };
    const Operand& dst = inst.ops[0];
    switch (inst.mnemonic) {
      case Mnemonic::kMov:
        if (dst.is_reg() && inst.size == 8) {
          set(dst.reg, inst.ops[1].is_reg() && tainted(inst.ops[1].reg));
        } else if (dst.is_reg()) {
          set(dst.reg, false);
        }
        return;
      case Mnemonic::kLea:
        if (dst.is_reg()) {
          set(dst.reg, inst.ops[1].mem.base != Reg::kNone &&
                           tainted(inst.ops[1].mem.base) &&
                           inst.size == 8);
        }
        return;
      case Mnemonic::kAdd:
      case Mnemonic::kSub:
        if (dst.is_reg() && !inst.ops[1].is_imm()) {
          set(dst.reg, false);
        }
        return;  // add/sub reg, imm preserves derivation
      case Mnemonic::kPush:
        push_taint_.push_back(dst.is_reg() && tainted(dst.reg));
        return;
      case Mnemonic::kPop: {
        bool t = false;
        if (!push_taint_.empty()) {
          t = push_taint_.back();
          push_taint_.pop_back();
        }
        if (dst.is_reg()) {
          set(dst.reg, t);
        }
        return;
      }
      case Mnemonic::kCmp:
      case Mnemonic::kTest:
      case Mnemonic::kNop:
      case Mnemonic::kPause:
      case Mnemonic::kEndbr64:
        return;  // no register writes
      default:
        if (inst.num_ops > 0 && dst.is_reg()) {
          set(dst.reg, false);
        }
        // xadd/cmpxchg also write their second (register) operand.
        if ((inst.mnemonic == Mnemonic::kXadd ||
             inst.mnemonic == Mnemonic::kCmpxchg ||
             inst.mnemonic == Mnemonic::kXchg) &&
            inst.num_ops > 1 && inst.ops[1].is_reg()) {
          set(inst.ops[1].reg, false);
        }
        if (inst.mnemonic == Mnemonic::kIdiv ||
            inst.mnemonic == Mnemonic::kCqo) {
          set(Reg::kRax, false);
          set(Reg::kRdx, false);
        }
        return;
    }
  }

  // Fence-decision accounting (fenceopt.* metrics): every candidate site is
  // decided exactly one way, so considered == elided + retained by
  // construction. All elisions today carry a stack-local witness.
  void CountFenceRetained() {
    ++fences_considered_;
    ++fences_retained_;
  }
  void CountFenceElided() {
    ++fences_considered_;
    ++fences_elided_;
  }

  Value* LoadMem(Value* addr, int size, bool stack_local) {
    ir::Instruction* load = b_.Load(size, addr);
    if (s_.options.insert_fences &&
        !(stack_local && s_.options.elide_stack_local_fences)) {
      b_.Fence(FenceOrder::kAcquire);
      CountFenceRetained();
    } else if (s_.options.insert_fences && stack_local) {
      // Record WHY the acquire fence was elided so the TSO checker can
      // re-derive the claim from the IR alone.
      load->fence_witness = ir::FenceWitness::kStackLocal;
      CountFenceElided();
    }
    return load;
  }

  void StoreMem(Value* addr, int size, Value* v, bool stack_local) {
    if (s_.options.insert_fences &&
        !(stack_local && s_.options.elide_stack_local_fences)) {
      b_.Fence(FenceOrder::kRelease);
      CountFenceRetained();
    }
    ir::Instruction* store = b_.Store(size, addr, Mask(v, size));
    if (s_.options.insert_fences && stack_local &&
        s_.options.elide_stack_local_fences) {
      store->fence_witness = ir::FenceWitness::kStackLocal;
      CountFenceElided();
    }
  }

  Value* ReadOperand(const Inst& inst, int idx, int size) {
    const Operand& op = inst.ops[idx];
    switch (op.kind) {
      case Operand::Kind::kReg:
        return ReadReg(op.reg, size);
      case Operand::Kind::kImm:
        return Mask(C(op.imm), size);
      case Operand::Kind::kMem:
        return LoadMem(EffAddr(op.mem, inst), size, IsStackLocal(op.mem));
      default:
        POLY_UNREACHABLE("bad read operand");
    }
  }

  void WriteOperand(const Inst& inst, int idx, int size, Value* v) {
    const Operand& op = inst.ops[idx];
    if (op.is_reg()) {
      WriteReg(op.reg, size, v);
      return;
    }
    POLY_CHECK(op.is_mem());
    StoreMem(EffAddr(op.mem, inst), size, v, IsStackLocal(op.mem));
  }

  // ---- flags ----

  Value* SignBitOf(Value* v, int size) {
    return b_.And(b_.LShr(v, C(size * 8 - 1)), C(1));
  }

  void SetFlag(FlagIndex f, Value* v) { b_.GStore(s_.fl[f], v); }
  Value* GetFlag(FlagIndex f) { return b_.GLoad(s_.fl[f]); }

  void SetZSP(Value* res_masked, int size) {
    SetFlag(kZf, b_.ICmp(Pred::kEq, res_masked, C(0)));
    SetFlag(kSf, SignBitOf(res_masked, size));
    SetFlag(kPf, b_.CallIntrinsic(Intrinsic::kParity, {res_masked}));
  }

  // a, b, res must already be masked to `size`.
  void SetAddFlags(Value* a, Value* bb, Value* res, int size) {
    SetFlag(kCf, b_.ICmp(Pred::kUlt, res, a));
    Value* t = b_.And(b_.Xor(a, res), b_.Xor(bb, res));
    SetFlag(kOf, SignBitOf(t, size));
    SetZSP(res, size);
  }

  void SetSubFlags(Value* a, Value* bb, Value* res, int size) {
    SetFlag(kCf, b_.ICmp(Pred::kUlt, a, bb));
    Value* t = b_.And(b_.Xor(a, bb), b_.Xor(a, res));
    SetFlag(kOf, SignBitOf(t, size));
    SetZSP(res, size);
  }

  void SetLogicFlags(Value* res, int size) {
    SetFlag(kCf, C(0));
    SetFlag(kOf, C(0));
    SetZSP(res, size);
  }

  Value* Not1(Value* v) { return b_.Xor(v, C(1)); }

  Value* CondValue(Cond cond) {
    switch (cond) {
      case Cond::kO:
        return GetFlag(kOf);
      case Cond::kNo:
        return Not1(GetFlag(kOf));
      case Cond::kB:
        return GetFlag(kCf);
      case Cond::kAe:
        return Not1(GetFlag(kCf));
      case Cond::kE:
        return GetFlag(kZf);
      case Cond::kNe:
        return Not1(GetFlag(kZf));
      case Cond::kBe:
        return b_.Or(GetFlag(kCf), GetFlag(kZf));
      case Cond::kA:
        return Not1(b_.Or(GetFlag(kCf), GetFlag(kZf)));
      case Cond::kS:
        return GetFlag(kSf);
      case Cond::kNs:
        return Not1(GetFlag(kSf));
      case Cond::kP:
        return GetFlag(kPf);
      case Cond::kNp:
        return Not1(GetFlag(kPf));
      case Cond::kL:
        return b_.Xor(GetFlag(kSf), GetFlag(kOf));
      case Cond::kGe:
        return Not1(b_.Xor(GetFlag(kSf), GetFlag(kOf)));
      case Cond::kLe:
        return b_.Or(GetFlag(kZf), b_.Xor(GetFlag(kSf), GetFlag(kOf)));
      case Cond::kG:
        return Not1(b_.Or(GetFlag(kZf), b_.Xor(GetFlag(kSf), GetFlag(kOf))));
      case Cond::kNone:
        break;
    }
    POLY_UNREACHABLE("bad cond");
  }

  Value* SExtVal(Value* v, int size) {
    return size >= 8 ? v : b_.SExt(v, size * 8);
  }

  // ---- function lifting ----

  Status LiftFunction(const FunctionInfo& fn_info) {
    cur_fn_ = s_.functions_by_entry.at(fn_info.entry);
    blocks_.clear();

    // Detect a frame pointer: `mov rbp, rsp` within the first few
    // instructions of the entry block, before any other rbp write.
    rbp_is_frame_ = DetectFramePointer(fn_info.entry);
    cur_fn_->frame_pointer = rbp_is_frame_;

    // Create IR blocks (entry first).
    std::vector<uint64_t> starts(fn_info.block_starts.begin(),
                                 fn_info.block_starts.end());
    auto entry_it = std::find(starts.begin(), starts.end(), fn_info.entry);
    if (entry_it != starts.end()) {
      std::iter_swap(starts.begin(), entry_it);
    } else {
      starts.insert(starts.begin(), fn_info.entry);
    }
    for (uint64_t start : starts) {
      BasicBlock* block =
          cur_fn_->AddBlock(StrCat("bb_", HexString(start).substr(2)));
      block->guest_address = start;
      blocks_[start] = block;
    }

    for (uint64_t start : starts) {
      auto it = s_.graph.blocks.find(start);
      b_.SetInsertBlock(blocks_[start]);
      if (it == s_.graph.blocks.end()) {
        // Unknown block (CFG hole): runtime miss.
        EmitCfMiss(C(static_cast<int64_t>(start)), start);
        continue;
      }
      POLY_RETURN_IF_ERROR(LiftBlock(it->second));
    }
    return Status::Ok();
  }

  bool DetectFramePointer(uint64_t entry) {
    uint64_t addr = entry;
    for (int i = 0; i < 8; ++i) {
      std::vector<uint8_t> bytes = s_.image.ReadBytes(addr, 16);
      auto inst = x86::Decode(bytes, addr);
      if (!inst.ok()) {
        return false;
      }
      if (inst->mnemonic == Mnemonic::kMov && inst->ops[0].is_reg() &&
          inst->ops[0].reg == Reg::kRbp && inst->ops[1].is_reg() &&
          inst->ops[1].reg == Reg::kRsp) {
        return true;
      }
      // Any other write to rbp disqualifies it (push rbp is fine).
      if (inst->num_ops > 0 && inst->ops[0].is_reg() &&
          inst->ops[0].reg == Reg::kRbp &&
          inst->mnemonic != Mnemonic::kPush) {
        return false;
      }
      if (inst->IsTerminator() || inst->IsCall()) {
        return false;
      }
      addr = inst->Next();
    }
    return false;
  }

  void EmitCfMiss(Value* target, uint64_t transfer_address) {
    b_.CallIntrinsic(Intrinsic::kCfmiss,
                     {target, C(static_cast<int64_t>(transfer_address))});
    b_.Unreachable();
  }

  // True when a verified CfgCert proves the indirect site at
  // `binfo.term_address` complete AND every certified target is an emitted
  // switch arm here — lifted function for a call, indirect_targets member
  // for a jump. Only then may the default arm drop its cfmiss stub: any
  // certified target missing an arm would otherwise fall through to the
  // (now miss-free) default and lose its additive-lifting hook.
  bool CertProvesSite(const BlockInfo& binfo, bool is_call) const {
    const check::CfgCert* cert = s_.options.cfg_cert;
    if (cert == nullptr) {
      return false;
    }
    for (const check::CfgCert::Site& site : cert->sites) {
      if (site.transfer_address != binfo.term_address ||
          site.is_call != is_call) {
        continue;
      }
      for (uint64_t t : site.targets) {
        if (binfo.indirect_targets.count(t) == 0) {
          return false;
        }
        if (is_call &&
            s_.functions_by_entry.find(t) == s_.functions_by_entry.end()) {
          return false;
        }
      }
      return !site.targets.empty();
    }
    return false;
  }

  // Default arm of an indirect-transfer switch: a cfmiss stub (dynamic
  // additive-lifting hook), or — at a certificate-proven site — a covered
  // dispatcher fallback that re-dispatches `target` through the engine.
  // The fallback is statically infeasible when the proof holds, so replay
  // digests and step counts are unchanged; but the block contains no
  // cfmiss/unreachable, so the tier compilers translate it without an
  // uncovered-edge guard.
  void EmitIndirectDefault(const BlockInfo& binfo, bool is_call,
                           Value* target) {
    if (CertProvesSite(binfo, is_call)) {
      b_.Ret(target);
      return;
    }
    EmitCfMiss(target, binfo.term_address);
  }

  Status LiftBlock(const BlockInfo& binfo) {
    // Lift straight-line instructions; the terminator (if any) is handled
    // separately because its successor structure comes from the CFG.
    ResetStackTracking();
    uint64_t addr = binfo.start;
    const Inst* term_inst = nullptr;
    x86::Inst term_storage;
    while (addr < binfo.end) {
      std::vector<uint8_t> bytes = s_.image.ReadBytes(addr, 16);
      auto inst_or = x86::Decode(bytes, addr);
      if (!inst_or.ok()) {
        b_.CallIntrinsic(Intrinsic::kTrap, {C(static_cast<int64_t>(addr))});
        b_.Unreachable();
        return Status::Ok();
      }
      const Inst& inst = *inst_or;
      bool is_term = addr == binfo.term_address &&
                     binfo.term != TermKind::kFallthrough;
      if (is_term) {
        term_storage = inst;
        term_inst = &term_storage;
        break;
      }
      POLY_RETURN_IF_ERROR(LiftInst(inst));
      UpdateStackTracking(inst);
      addr = inst.Next();
    }
    LiftTerminator(binfo, term_inst);
    return Status::Ok();
  }

  // Branch target inside the current function, or nullptr.
  BasicBlock* LocalBlock(uint64_t addr) {
    auto it = blocks_.find(addr);
    return it == blocks_.end() ? nullptr : it->second;
  }

  void BranchTo(uint64_t target) {
    if (BasicBlock* block = LocalBlock(target)) {
      b_.Br(block);
    } else {
      // Target outside this function: return to the dispatcher.
      b_.Ret(C(static_cast<int64_t>(target)));
    }
  }

  // Emits the push-return-address + call + return-PC check sequence for a
  // call to lifted function `callee` returning to `fallthrough`.
  void EmitGuestCall(Function* callee, uint64_t fallthrough) {
    // push return address onto the emulated stack
    Value* sp = b_.GLoad(s_.vr[static_cast<int>(Reg::kRsp)]);
    Value* new_sp = b_.Sub(sp, C(8));
    b_.GStore(s_.vr[static_cast<int>(Reg::kRsp)], new_sp);
    // Return-address slot: emulated-stack traffic, thread-private, never
    // fenced — witnessed so the TSO checker can re-verify the claim.
    b_.Store(8, new_sp, C(static_cast<int64_t>(fallthrough)))->fence_witness =
        ir::FenceWitness::kStackLocal;
    if (s_.options.insert_fences) {
      CountFenceElided();
    }

    Value* next = b_.Call(callee, {});
    Value* ok = b_.ICmp(Pred::kEq, next, C(static_cast<int64_t>(fallthrough)));
    BasicBlock* bubble = cur_fn_->AddBlock(
        StrCat("bubble_", HexString(fallthrough).substr(2), "_",
               bubble_counter_++));
    BasicBlock* cont = LocalBlock(fallthrough);
    if (cont == nullptr) {
      // Fallthrough block missing: bubble unconditionally.
      b_.Br(bubble);
    } else {
      b_.CondBr(ok, cont, bubble);
    }
    BasicBlock* saved = b_.block();
    b_.SetInsertBlock(bubble);
    b_.Ret(next);
    b_.SetInsertBlock(saved);
  }

  void LiftTerminator(const BlockInfo& binfo, const Inst* term) {
    switch (binfo.term) {
      case TermKind::kFallthrough:
        BranchTo(binfo.fallthrough);
        return;

      case TermKind::kJump:
        BranchTo(binfo.direct_target);
        return;

      case TermKind::kCondJump: {
        POLY_CHECK(term != nullptr);
        Value* cond = CondValue(term->cond);
        BasicBlock* t = LocalBlock(binfo.direct_target);
        BasicBlock* f = LocalBlock(binfo.fallthrough);
        if (t != nullptr && f != nullptr) {
          b_.CondBr(cond, t, f);
          return;
        }
        // One side is nonlocal: branch through stubs.
        BasicBlock* tstub = t;
        if (tstub == nullptr) {
          tstub = cur_fn_->AddBlock(StrCat("stub_", bubble_counter_++));
        }
        BasicBlock* fstub = f;
        if (fstub == nullptr) {
          fstub = cur_fn_->AddBlock(StrCat("stub_", bubble_counter_++));
        }
        b_.CondBr(cond, tstub, fstub);
        BasicBlock* saved = b_.block();
        if (t == nullptr) {
          b_.SetInsertBlock(tstub);
          b_.Ret(C(static_cast<int64_t>(binfo.direct_target)));
        }
        if (f == nullptr) {
          b_.SetInsertBlock(fstub);
          b_.Ret(C(static_cast<int64_t>(binfo.fallthrough)));
        }
        b_.SetInsertBlock(saved);
        return;
      }

      case TermKind::kCall: {
        auto it = s_.functions_by_entry.find(binfo.direct_target);
        if (it == s_.functions_by_entry.end()) {
          EmitCfMiss(C(static_cast<int64_t>(binfo.direct_target)),
                     binfo.term_address);
          return;
        }
        EmitGuestCall(it->second, binfo.fallthrough);
        return;
      }

      case TermKind::kExternalCall: {
        b_.CallIntrinsic(Intrinsic::kExtCall,
                         {C(static_cast<int64_t>(binfo.external_slot))});
        BranchTo(binfo.fallthrough);
        return;
      }

      case TermKind::kIndirectCall: {
        POLY_CHECK(term != nullptr);
        Value* target = ReadOperand(*term, 0, 8);
        // Push the return address (the hardware pushes after computing the
        // target operand).
        Value* sp = b_.GLoad(s_.vr[static_cast<int>(Reg::kRsp)]);
        Value* new_sp = b_.Sub(sp, C(8));
        b_.GStore(s_.vr[static_cast<int>(Reg::kRsp)], new_sp);
        b_.Store(8, new_sp, C(static_cast<int64_t>(binfo.fallthrough)))
            ->fence_witness = ir::FenceWitness::kStackLocal;
        if (s_.options.insert_fences) {
          CountFenceElided();
        }

        BasicBlock* miss_block =
            cur_fn_->AddBlock(StrCat("miss_", bubble_counter_++));
        Instruction* sw = b_.Switch(target, miss_block);
        BasicBlock* switch_block = b_.block();
        for (uint64_t t : binfo.indirect_targets) {
          auto fit = s_.functions_by_entry.find(t);
          if (fit == s_.functions_by_entry.end()) {
            continue;
          }
          BasicBlock* case_block = cur_fn_->AddBlock(
              StrCat("icall_", HexString(t).substr(2), "_", bubble_counter_++));
          IRBuilder::AddCase(sw, static_cast<int64_t>(t), case_block);
          b_.SetInsertBlock(case_block);
          // The push already happened; emit call + check only.
          Value* next = b_.Call(fit->second, {});
          Value* ok = b_.ICmp(Pred::kEq, next,
                              C(static_cast<int64_t>(binfo.fallthrough)));
          BasicBlock* bubble =
              cur_fn_->AddBlock(StrCat("bubble_", bubble_counter_++));
          BasicBlock* cont = LocalBlock(binfo.fallthrough);
          if (cont != nullptr) {
            b_.CondBr(ok, cont, bubble);
          } else {
            b_.Br(bubble);
          }
          b_.SetInsertBlock(bubble);
          b_.Ret(next);
        }
        b_.SetInsertBlock(miss_block);
        EmitIndirectDefault(binfo, /*is_call=*/true, target);
        b_.SetInsertBlock(switch_block);
        return;
      }

      case TermKind::kIndirectJump: {
        POLY_CHECK(term != nullptr);
        Value* target = ReadOperand(*term, 0, 8);
        BasicBlock* miss_block =
            cur_fn_->AddBlock(StrCat("miss_", bubble_counter_++));
        Instruction* sw = b_.Switch(target, miss_block);
        for (uint64_t t : binfo.indirect_targets) {
          BasicBlock* dest = LocalBlock(t);
          if (dest == nullptr) {
            // Tail transfer out of this function: return to dispatcher.
            dest = cur_fn_->AddBlock(
                StrCat("tail_", HexString(t).substr(2), "_", bubble_counter_++));
            BasicBlock* saved = b_.block();
            b_.SetInsertBlock(dest);
            b_.Ret(C(static_cast<int64_t>(t)));
            b_.SetInsertBlock(saved);
          }
          IRBuilder::AddCase(sw, static_cast<int64_t>(t), dest);
        }
        BasicBlock* saved = b_.block();
        b_.SetInsertBlock(miss_block);
        EmitIndirectDefault(binfo, /*is_call=*/false, target);
        b_.SetInsertBlock(saved);
        return;
      }

      case TermKind::kRet: {
        Value* sp = b_.GLoad(s_.vr[static_cast<int>(Reg::kRsp)]);
        ir::Instruction* ra = b_.Load(8, sp);
        ra->fence_witness = ir::FenceWitness::kStackLocal;
        if (s_.options.insert_fences) {
          CountFenceElided();
        }
        b_.GStore(s_.vr[static_cast<int>(Reg::kRsp)], b_.Add(sp, C(8)));
        b_.Ret(ra);
        return;
      }

      case TermKind::kTrap:
        b_.CallIntrinsic(Intrinsic::kTrap,
                         {C(static_cast<int64_t>(binfo.term_address))});
        b_.Unreachable();
        return;
    }
  }

  // ---- straight-line instruction translation ----

  Status LiftInst(const Inst& inst) {
    const int size = inst.size;
    switch (inst.mnemonic) {
      case Mnemonic::kNop:
      case Mnemonic::kEndbr64:  // landing-pad marker: architecturally a nop
        return Status::Ok();
      case Mnemonic::kPause:
        b_.CallIntrinsic(Intrinsic::kPause, {});
        return Status::Ok();

      case Mnemonic::kMov: {
        Value* v = ReadOperand(inst, 1, size);
        WriteOperand(inst, 0, size, v);
        return Status::Ok();
      }
      case Mnemonic::kMovzx: {
        Value* v = ReadOperand(inst, 1, inst.src_size);
        WriteOperand(inst, 0, size, v);
        return Status::Ok();
      }
      case Mnemonic::kMovsx: {
        Value* v = ReadOperand(inst, 1, inst.src_size);
        WriteOperand(inst, 0, size, SExtVal(v, inst.src_size));
        return Status::Ok();
      }
      case Mnemonic::kLea: {
        WriteOperand(inst, 0, size, EffAddr(inst.ops[1].mem, inst));
        return Status::Ok();
      }

      case Mnemonic::kAdd:
      case Mnemonic::kSub:
      case Mnemonic::kAnd:
      case Mnemonic::kOr:
      case Mnemonic::kXor: {
        if (inst.lock && inst.ops[0].is_mem()) {
          return LiftLockedRmw(inst);
        }
        Value* a = ReadOperand(inst, 0, size);
        Value* bb = ReadOperand(inst, 1, size);
        Value* res = nullptr;
        switch (inst.mnemonic) {
          case Mnemonic::kAdd:
            res = Mask(b_.Add(a, bb), size);
            SetAddFlags(a, bb, res, size);
            break;
          case Mnemonic::kSub:
            res = Mask(b_.Sub(a, bb), size);
            SetSubFlags(a, bb, res, size);
            break;
          case Mnemonic::kAnd:
            res = b_.And(a, bb);
            SetLogicFlags(res, size);
            break;
          case Mnemonic::kOr:
            res = b_.Or(a, bb);
            SetLogicFlags(res, size);
            break;
          default:
            res = b_.Xor(a, bb);
            SetLogicFlags(res, size);
            break;
        }
        WriteOperand(inst, 0, size, res);
        return Status::Ok();
      }

      case Mnemonic::kCmp: {
        Value* a = ReadOperand(inst, 0, size);
        Value* bb = ReadOperand(inst, 1, size);
        SetSubFlags(a, bb, Mask(b_.Sub(a, bb), size), size);
        return Status::Ok();
      }
      case Mnemonic::kTest: {
        Value* a = ReadOperand(inst, 0, size);
        Value* bb = ReadOperand(inst, 1, size);
        SetLogicFlags(b_.And(a, bb), size);
        return Status::Ok();
      }

      case Mnemonic::kInc:
      case Mnemonic::kDec: {
        if (inst.lock && inst.ops[0].is_mem()) {
          return LiftLockedRmw(inst);
        }
        Value* a = ReadOperand(inst, 0, size);
        Value* one = C(1);
        Value* saved_cf = GetFlag(kCf);
        Value* res;
        if (inst.mnemonic == Mnemonic::kInc) {
          res = Mask(b_.Add(a, one), size);
          SetAddFlags(a, one, res, size);
        } else {
          res = Mask(b_.Sub(a, one), size);
          SetSubFlags(a, one, res, size);
        }
        SetFlag(kCf, saved_cf);  // inc/dec preserve CF
        WriteOperand(inst, 0, size, res);
        return Status::Ok();
      }

      case Mnemonic::kNeg: {
        Value* a = ReadOperand(inst, 0, size);
        Value* res = Mask(b_.Sub(C(0), a), size);
        SetSubFlags(C(0), a, res, size);
        SetFlag(kCf, b_.ICmp(Pred::kNe, a, C(0)));
        WriteOperand(inst, 0, size, res);
        return Status::Ok();
      }
      case Mnemonic::kNot: {
        Value* a = ReadOperand(inst, 0, size);
        WriteOperand(inst, 0, size, Mask(b_.Xor(a, C(-1)), size));
        return Status::Ok();
      }

      case Mnemonic::kImul: {
        Value* a;
        Value* bb;
        if (inst.num_ops == 3) {
          a = ReadOperand(inst, 1, size);
          bb = ReadOperand(inst, 2, size);
        } else {
          a = ReadOperand(inst, 0, size);
          bb = ReadOperand(inst, 1, size);
        }
        Value* res;
        Value* ovf;
        if (size < 8) {
          Value* full = b_.Mul(SExtVal(a, size), SExtVal(bb, size));
          res = Mask(full, size);
          ovf = b_.ICmp(Pred::kNe, full, SExtVal(res, size));
        } else {
          res = b_.Mul(a, bb);
          Value* hi = b_.CallIntrinsic(Intrinsic::kHelperMulh, {a, bb});
          ovf = b_.ICmp(Pred::kNe, hi, b_.AShr(res, C(63)));
        }
        SetFlag(kCf, ovf);
        SetFlag(kOf, ovf);
        SetZSP(res, size);
        WriteOperand(inst, 0, size, res);
        return Status::Ok();
      }

      case Mnemonic::kIdiv: {
        Value* divisor = SExtVal(ReadOperand(inst, 0, size), size);
        if (size == 8) {
          Value* hi = ReadReg(Reg::kRdx, 8);
          Value* lo = ReadReg(Reg::kRax, 8);
          Value* q =
              b_.CallIntrinsic(Intrinsic::kHelperSdiv128, {hi, lo, divisor});
          Value* r =
              b_.CallIntrinsic(Intrinsic::kHelperSrem128, {hi, lo, divisor});
          WriteReg(Reg::kRax, 8, q);
          WriteReg(Reg::kRdx, 8, r);
        } else {
          Value* hi = ReadReg(Reg::kRdx, 4);
          Value* lo = ReadReg(Reg::kRax, 4);
          Value* dividend = b_.Or(b_.Shl(hi, C(32)), lo);
          Value* q = b_.Binary(ir::Op::kSDiv, dividend, divisor);
          Value* r = b_.Binary(ir::Op::kSRem, dividend, divisor);
          WriteReg(Reg::kRax, 4, q);
          WriteReg(Reg::kRdx, 4, r);
        }
        return Status::Ok();
      }

      case Mnemonic::kCqo: {
        if (size == 8) {
          WriteReg(Reg::kRdx, 8, b_.AShr(ReadReg(Reg::kRax, 8), C(63)));
        } else {
          Value* sext = b_.AShr(SExtVal(ReadReg(Reg::kRax, 4), 4), C(31));
          WriteReg(Reg::kRdx, 4, sext);
        }
        return Status::Ok();
      }

      case Mnemonic::kShl:
      case Mnemonic::kShr:
      case Mnemonic::kSar: {
        Value* a = ReadOperand(inst, 0, size);
        Value* raw = ReadOperand(inst, 1, 1);
        Value* cnt = b_.And(raw, C(size == 8 ? 63 : 31));
        Value* is_zero = b_.ICmp(Pred::kEq, cnt, C(0));
        const int bits = size * 8;
        Value* res;
        Value* cf;
        if (inst.mnemonic == Mnemonic::kShl) {
          res = Mask(b_.Shl(a, cnt), size);
          cf = b_.And(b_.LShr(a, b_.Sub(C(bits), cnt)), C(1));
        } else if (inst.mnemonic == Mnemonic::kShr) {
          res = b_.LShr(a, cnt);
          cf = b_.And(b_.LShr(a, b_.Sub(cnt, C(1))), C(1));
        } else {
          Value* sa = SExtVal(a, size);
          res = Mask(b_.AShr(sa, cnt), size);
          cf = b_.And(b_.LShr(sa, b_.Sub(cnt, C(1))), C(1));
        }
        // count==0 leaves the destination and every flag unchanged.
        Value* final_res = b_.Select(is_zero, a, res);
        SetFlag(kCf, b_.Select(is_zero, GetFlag(kCf), cf));
        SetFlag(kZf, b_.Select(is_zero, GetFlag(kZf),
                               b_.ICmp(Pred::kEq, res, C(0))));
        SetFlag(kSf, b_.Select(is_zero, GetFlag(kSf), SignBitOf(res, size)));
        SetFlag(kPf, b_.Select(is_zero, GetFlag(kPf),
                               b_.CallIntrinsic(Intrinsic::kParity, {res})));
        SetFlag(kOf, b_.Select(is_zero, GetFlag(kOf), C(0)));
        WriteOperand(inst, 0, size, final_res);
        return Status::Ok();
      }

      case Mnemonic::kPush: {
        Value* v = ReadOperand(inst, 0, 8);
        Value* sp = b_.GLoad(s_.vr[static_cast<int>(Reg::kRsp)]);
        Value* new_sp = b_.Sub(sp, C(8));
        b_.GStore(s_.vr[static_cast<int>(Reg::kRsp)], new_sp);
        // Emulated-stack traffic: stack-local by construction.
        if (s_.options.insert_fences && !s_.options.elide_stack_local_fences) {
          b_.Fence(FenceOrder::kRelease);
          CountFenceRetained();
        }
        ir::Instruction* push_store = b_.Store(8, new_sp, v);
        if (s_.options.insert_fences && s_.options.elide_stack_local_fences) {
          push_store->fence_witness = ir::FenceWitness::kStackLocal;
          CountFenceElided();
        }
        return Status::Ok();
      }
      case Mnemonic::kPop: {
        Value* sp = b_.GLoad(s_.vr[static_cast<int>(Reg::kRsp)]);
        ir::Instruction* pop_load = b_.Load(8, sp);
        Value* v = pop_load;
        if (s_.options.insert_fences && !s_.options.elide_stack_local_fences) {
          b_.Fence(FenceOrder::kAcquire);
          CountFenceRetained();
        } else if (s_.options.insert_fences) {
          pop_load->fence_witness = ir::FenceWitness::kStackLocal;
          CountFenceElided();
        }
        b_.GStore(s_.vr[static_cast<int>(Reg::kRsp)], b_.Add(sp, C(8)));
        WriteOperand(inst, 0, 8, v);
        return Status::Ok();
      }

      case Mnemonic::kXchg: {
        if (inst.ops[0].is_mem()) {
          // Implicitly locked.
          return LiftXchgMem(inst);
        }
        Value* a = ReadOperand(inst, 0, size);
        Value* bb = ReadOperand(inst, 1, size);
        WriteOperand(inst, 0, size, bb);
        WriteOperand(inst, 1, size, a);
        return Status::Ok();
      }

      case Mnemonic::kXadd:
        return LiftXadd(inst);

      case Mnemonic::kCmpxchg:
        return LiftCmpxchg(inst);

      case Mnemonic::kSetcc: {
        WriteOperand(inst, 0, 1, CondValue(inst.cond));
        return Status::Ok();
      }

      case Mnemonic::kCmovcc: {
        Value* src = ReadOperand(inst, 1, size);
        Value* dst = ReadOperand(inst, 0, size);
        WriteOperand(inst, 0, size,
                     b_.Select(CondValue(inst.cond), src, dst));
        return Status::Ok();
      }

      case Mnemonic::kMovd: {
        if (inst.ops[0].is_xmm()) {
          Value* v = ReadOperand(inst, 1, size);
          b_.GStore(s_.xmm_lo[inst.ops[0].xmm], Mask(v, size));
          b_.GStore(s_.xmm_hi[inst.ops[0].xmm], C(0));
        } else {
          Value* v = b_.GLoad(s_.xmm_lo[inst.ops[1].xmm]);
          WriteOperand(inst, 0, size, Mask(v, size));
        }
        return Status::Ok();
      }

      case Mnemonic::kMovdqu: {
        if (inst.ops[0].is_xmm()) {
          const MemRef& mem = inst.ops[1].mem;
          Value* addr = EffAddr(mem, inst);
          bool sl = IsStackLocal(mem);
          b_.GStore(s_.xmm_lo[inst.ops[0].xmm], LoadMem(addr, 8, sl));
          b_.GStore(s_.xmm_hi[inst.ops[0].xmm],
                    LoadMem(b_.Add(addr, C(8)), 8, sl));
        } else {
          const MemRef& mem = inst.ops[0].mem;
          Value* addr = EffAddr(mem, inst);
          bool sl = IsStackLocal(mem);
          StoreMem(addr, 8, b_.GLoad(s_.xmm_lo[inst.ops[1].xmm]), sl);
          StoreMem(b_.Add(addr, C(8)), 8, b_.GLoad(s_.xmm_hi[inst.ops[1].xmm]),
                   sl);
        }
        return Status::Ok();
      }

      case Mnemonic::kPaddd:
      case Mnemonic::kPsubd:
      case Mnemonic::kPmulld:
      case Mnemonic::kPxor:
      case Mnemonic::kPaddq: {
        Value* src_lo;
        Value* src_hi;
        if (inst.ops[1].is_xmm()) {
          src_lo = b_.GLoad(s_.xmm_lo[inst.ops[1].xmm]);
          src_hi = b_.GLoad(s_.xmm_hi[inst.ops[1].xmm]);
        } else {
          const MemRef& mem = inst.ops[1].mem;
          Value* addr = EffAddr(mem, inst);
          bool sl = IsStackLocal(mem);
          src_lo = LoadMem(addr, 8, sl);
          src_hi = LoadMem(b_.Add(addr, C(8)), 8, sl);
        }
        Global* dlo = s_.xmm_lo[inst.ops[0].xmm];
        Global* dhi = s_.xmm_hi[inst.ops[0].xmm];
        Value* a_lo = b_.GLoad(dlo);
        Value* a_hi = b_.GLoad(dhi);
        switch (inst.mnemonic) {
          case Mnemonic::kPxor:
            b_.GStore(dlo, b_.Xor(a_lo, src_lo));
            b_.GStore(dhi, b_.Xor(a_hi, src_hi));
            break;
          case Mnemonic::kPaddq:
            b_.GStore(dlo, b_.Add(a_lo, src_lo));
            b_.GStore(dhi, b_.Add(a_hi, src_hi));
            break;
          default: {
            // Packed 32-bit lanes: QEMU-helper-style emulation calls by
            // default; native SIMD intrinsics with first-class translation
            // (§5.3).
            const bool simd = s_.options.first_class_simd;
            const Intrinsic lanes =
                inst.mnemonic == Mnemonic::kPaddd
                    ? (simd ? Intrinsic::kSimdPaddd : Intrinsic::kHelperPaddd)
                : inst.mnemonic == Mnemonic::kPsubd
                    ? (simd ? Intrinsic::kSimdPsubd : Intrinsic::kHelperPsubd)
                    : (simd ? Intrinsic::kSimdPmulld
                            : Intrinsic::kHelperPmulld);
            b_.GStore(dlo, b_.CallIntrinsic(lanes, {a_lo, src_lo}));
            b_.GStore(dhi, b_.CallIntrinsic(lanes, {a_hi, src_hi}));
            break;
          }
        }
        return Status::Ok();
      }

      default:
        return Status::Unimplemented(
            StrCat("lift: unsupported instruction ", x86::FormatInst(inst),
                   " at ", HexString(inst.address)));
    }
  }

  // lock add/sub/and/or/xor/inc/dec with memory destination.
  Status LiftLockedRmw(const Inst& inst) {
    const int size = inst.size;
    Value* addr = EffAddr(inst.ops[0].mem, inst);
    Value* operand;
    RmwOp op;
    switch (inst.mnemonic) {
      case Mnemonic::kAdd:
        op = RmwOp::kAdd;
        operand = ReadOperand(inst, 1, size);
        break;
      case Mnemonic::kSub:
        op = RmwOp::kSub;
        operand = ReadOperand(inst, 1, size);
        break;
      case Mnemonic::kAnd:
        op = RmwOp::kAnd;
        operand = ReadOperand(inst, 1, size);
        break;
      case Mnemonic::kOr:
        op = RmwOp::kOr;
        operand = ReadOperand(inst, 1, size);
        break;
      case Mnemonic::kXor:
        op = RmwOp::kXor;
        operand = ReadOperand(inst, 1, size);
        break;
      case Mnemonic::kInc:
        op = RmwOp::kAdd;
        operand = C(1);
        break;
      case Mnemonic::kDec:
        op = RmwOp::kSub;
        operand = C(1);
        break;
      default:
        POLY_UNREACHABLE("bad locked rmw");
    }

    if (s_.options.atomics == LiftOptions::AtomicsMode::kBuiltin) {
      Value* old = b_.AtomicRmw(op, size, addr, operand);
      SetRmwFlags(inst.mnemonic, old, operand, size);
      return Status::Ok();
    }
    if (s_.options.atomics == LiftOptions::AtomicsMode::kNaiveGlobalLock) {
      b_.CallIntrinsic(Intrinsic::kGlobalLock, {});
      Value* old = b_.Load(size, addr);
      Value* res = ApplyRmw(inst.mnemonic, old, operand, size);
      b_.Store(size, addr, res);
      b_.CallIntrinsic(Intrinsic::kGlobalUnlock, {});
      SetRmwFlags(inst.mnemonic, old, operand, size);
      return Status::Ok();
    }
    // kPlain: the documented unsound translation — a torn read-modify-write.
    Value* old = b_.Load(size, addr);
    Value* res = ApplyRmw(inst.mnemonic, old, operand, size);
    b_.Store(size, addr, res);
    SetRmwFlags(inst.mnemonic, old, operand, size);
    return Status::Ok();
  }

  Value* ApplyRmw(Mnemonic m, Value* old, Value* operand, int size) {
    switch (m) {
      case Mnemonic::kAdd:
      case Mnemonic::kInc:
        return Mask(b_.Add(old, operand), size);
      case Mnemonic::kSub:
      case Mnemonic::kDec:
        return Mask(b_.Sub(old, operand), size);
      case Mnemonic::kAnd:
        return b_.And(old, operand);
      case Mnemonic::kOr:
        return b_.Or(old, operand);
      case Mnemonic::kXor:
        return b_.Xor(old, operand);
      default:
        POLY_UNREACHABLE("bad rmw");
    }
  }

  void SetRmwFlags(Mnemonic m, Value* old, Value* operand, int size) {
    Value* res = ApplyRmw(m, old, operand, size);
    switch (m) {
      case Mnemonic::kAdd:
        SetAddFlags(old, operand, res, size);
        break;
      case Mnemonic::kSub:
        SetSubFlags(old, operand, res, size);
        break;
      case Mnemonic::kInc:
      case Mnemonic::kDec: {
        Value* saved_cf = GetFlag(kCf);
        if (m == Mnemonic::kInc) {
          SetAddFlags(old, operand, res, size);
        } else {
          SetSubFlags(old, operand, res, size);
        }
        SetFlag(kCf, saved_cf);
        break;
      }
      default:
        SetLogicFlags(res, size);
        break;
    }
  }

  Status LiftXchgMem(const Inst& inst) {
    const int size = inst.size;
    Value* addr = EffAddr(inst.ops[0].mem, inst);
    Value* v = ReadOperand(inst, 1, size);
    if (s_.options.atomics == LiftOptions::AtomicsMode::kPlain) {
      Value* old = b_.Load(size, addr);
      b_.Store(size, addr, v);
      WriteOperand(inst, 1, size, old);
      return Status::Ok();
    }
    if (s_.options.atomics == LiftOptions::AtomicsMode::kNaiveGlobalLock) {
      b_.CallIntrinsic(Intrinsic::kGlobalLock, {});
      Value* old = b_.Load(size, addr);
      b_.Store(size, addr, v);
      b_.CallIntrinsic(Intrinsic::kGlobalUnlock, {});
      WriteOperand(inst, 1, size, old);
      return Status::Ok();
    }
    Value* old = b_.AtomicRmw(RmwOp::kXchg, size, addr, v);
    WriteOperand(inst, 1, size, old);
    return Status::Ok();
  }

  Status LiftXadd(const Inst& inst) {
    const int size = inst.size;
    Value* operand = ReadOperand(inst, 1, size);
    if (inst.ops[0].is_mem() &&
        s_.options.atomics != LiftOptions::AtomicsMode::kPlain) {
      Value* addr = EffAddr(inst.ops[0].mem, inst);
      Value* old;
      if (s_.options.atomics == LiftOptions::AtomicsMode::kNaiveGlobalLock) {
        b_.CallIntrinsic(Intrinsic::kGlobalLock, {});
        old = b_.Load(size, addr);
        b_.Store(size, addr, Mask(b_.Add(old, operand), size));
        b_.CallIntrinsic(Intrinsic::kGlobalUnlock, {});
      } else {
        old = b_.AtomicRmw(RmwOp::kAdd, size, addr, operand);
      }
      Value* res = Mask(b_.Add(old, operand), size);
      SetAddFlags(old, operand, res, size);
      WriteOperand(inst, 1, size, old);
      return Status::Ok();
    }
    // Register form or the unsound plain mode.
    Value* a = ReadOperand(inst, 0, size);
    Value* res = Mask(b_.Add(a, operand), size);
    SetAddFlags(a, operand, res, size);
    WriteOperand(inst, 1, size, a);
    WriteOperand(inst, 0, size, res);
    return Status::Ok();
  }

  // Listing 1 (naive) vs Listing 2 (builtin) translations of cmpxchg.
  Status LiftCmpxchg(const Inst& inst) {
    const int size = inst.size;
    Value* acc = ReadReg(Reg::kRax, size);
    Value* desired = ReadOperand(inst, 1, size);

    if (inst.ops[0].is_mem() &&
        s_.options.atomics == LiftOptions::AtomicsMode::kBuiltin) {
      Value* addr = EffAddr(inst.ops[0].mem, inst);
      Value* witnessed = b_.CmpXchg(size, addr, acc, desired);
      Value* equal = b_.ICmp(Pred::kEq, witnessed, acc);
      SetSubFlags(acc, witnessed, Mask(b_.Sub(acc, witnessed), size), size);
      // rax is only written on failure.
      WriteReg(Reg::kRax, size, b_.Select(equal, acc, witnessed));
      return Status::Ok();
    }

    bool use_lock = inst.ops[0].is_mem() &&
                    s_.options.atomics == LiftOptions::AtomicsMode::kNaiveGlobalLock;
    if (use_lock) {
      b_.CallIntrinsic(Intrinsic::kGlobalLock, {});
    }
    Value* current = ReadOperand(inst, 0, size);
    Value* equal = b_.ICmp(Pred::kEq, current, acc);
    WriteOperand(inst, 0, size, b_.Select(equal, desired, current));
    if (use_lock) {
      b_.CallIntrinsic(Intrinsic::kGlobalUnlock, {});
    }
    SetSubFlags(acc, current, Mask(b_.Sub(acc, current), size), size);
    WriteReg(Reg::kRax, size, b_.Select(equal, acc, current));
    return Status::Ok();
  }

  SharedState& s_;
  IRBuilder b_;

  Function* cur_fn_ = nullptr;
  std::map<uint64_t, BasicBlock*> blocks_;
  bool rbp_is_frame_ = false;
  int bubble_counter_ = 0;
  std::set<Reg> stack_regs_;
  std::vector<bool> push_taint_;
  // Fence-decision counts for this function, flushed to obs after the body
  // is lifted (see Lift()).
  uint64_t fences_considered_ = 0;
  uint64_t fences_elided_ = 0;
  uint64_t fences_retained_ = 0;
};

}  // namespace

Expected<LiftedProgram> Lift(const Image& image, const ControlFlowGraph& graph,
                             const LiftOptions& options) {
  auto module = std::make_shared<ir::Module>();
  SharedState s{image, graph, options, module.get()};
  CreateGlobals(s);
  // Declare every function up front (serially, in entry order) so calls
  // resolve and so declaration order — which fixes printed output — never
  // depends on scheduling.
  for (const auto& [entry, fn_info] : graph.functions) {
    Function* f = s.module->AddFunction(fn_info.name, 0, /*has_result=*/true);
    f->guest_entry = entry;
    s.functions_by_entry[entry] = f;
  }

  // Lift bodies concurrently, one function per work item. Functions whose
  // bodies the caller will supply (additive cache hits) stay declarations.
  std::vector<const FunctionInfo*> work;
  work.reserve(graph.functions.size());
  for (const auto& [entry, fn_info] : graph.functions) {
    if (options.skip_bodies != nullptr && options.skip_bodies->count(entry)) {
      continue;
    }
    work.push_back(&fn_info);
  }
  ThreadPool pool(options.jobs);
  const obs::Session& obs = options.obs;
  POLY_RETURN_IF_ERROR(pool.ParallelFor(work.size(), [&](size_t i) {
    const FunctionInfo& fn_info = *work[i];
    obs::Span span(obs.trace, "lift", fn_info.name);
    uint64_t t0 = obs.metrics != nullptr ? NowNs() : 0;
    FunctionLifter lifter(s);
    Status st = lifter.Lift(fn_info);
    if (st.ok() && obs.metrics != nullptr) {
      obs.Observe(obs::Histogram::kLiftFunctionNs, NowNs() - t0);
      obs.Add(obs::Counter::kLiftFunctionsLifted);
      uint64_t bytes = 0;
      for (uint64_t start : fn_info.block_starts) {
        auto it = graph.blocks.find(start);
        if (it != graph.blocks.end()) {
          bytes += it->second.end - it->second.start;
        }
      }
      obs.Add(obs::Counter::kLiftBytesDecoded, bytes);
      uint64_t instrs = 0;
      for (const auto& bb : s.functions_by_entry.at(fn_info.entry)->blocks()) {
        instrs += bb->insts().size();
      }
      obs.Add(obs::Counter::kLiftIrInstrs, instrs);
      span.Arg("ir_instrs", static_cast<int64_t>(instrs));
    }
    return st;
  }));

  // External-entry marking (§3.3.3).
  for (const auto& [entry, f] : s.functions_by_entry) {
    if (options.mark_all_external) {
      f->is_external_entry = true;
    } else {
      f->is_external_entry = entry == image.entry_point ||
                             options.observed_callbacks.count(f->name()) != 0;
    }
  }

  LiftedProgram program;
  program.module = std::move(module);
  program.functions_by_entry = std::move(s.functions_by_entry);
  program.entry = image.entry_point;
  program.externals = image.externals;
  return program;
}

}  // namespace polynima::lift

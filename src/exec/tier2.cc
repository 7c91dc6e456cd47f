// Tier-2 translator and executor (see tier2.h for the architecture).
//
// Parity rules, on top of everything tier 1 already guarantees (the input
// here is the tier-1 TInst stream, so fusion/cost/jitter decisions are
// shared by construction):
//   - Every non-zero-width TInst begins with the same budget check and
//     batch visible-stop check tier 1 performs at its loop head, in the
//     same order, against the same `executed` counter.
//   - Jitter draws inline the exact SplitMix64 step (same constants, same
//     state evolution) and write the state back on exit, so a mid-run
//     tier-1/tier-2 boundary never skips or repeats a draw.
//   - Stores call a helper that applies the InExecutableRange guard BEFORE
//     the write and before any charging; an SMC hit exits to C++ which runs
//     the same deopt bookkeeping as tier 1 (including the interpret-inline
//     rule when nothing was retired yet).
//   - Branches test their static target for a kDeopt stub at translation
//     time: an uncovered edge becomes an exit emitted BEFORE the profile
//     count and charge, so the interpreter re-executes the branch once.
//   - Division faults exit before charging (tier 1 faults before charge);
//     guest memory faults exit after charge and tpc advance (tier 1 stops
//     after), both routed through Engine::Fault by the C++ wrapper.
//   - Returns, calls, intrinsics and every piece of frame surgery happen in
//     C++ with tier-1's exact accounting; native code only reports where it
//     stopped and why.
#include "src/exec/tier2.h"

#include <algorithm>
#include <cstddef>

#include "src/exec/engine.h"
#include "src/exec/tier1.h"
#include "src/ir/semantics.h"
#include "src/support/check.h"
#include "src/x86/assembler.h"

namespace polynima::exec {

using ir::Pred;
using ir::RmwOp;
using x86::Cond;
using x86::I1;
using x86::I2;
using x86::Inst;
using x86::Label;
using x86::MemRef;
using x86::Mnemonic;
using x86::Operand;
using x86::Reg;

namespace {

// Tier2Ctx field offsets baked into emitted code. The static_asserts keep
// the struct and the emitter honest together.
constexpr int32_t kOffValues = 0;
constexpr int32_t kOffClock = 8;
constexpr int32_t kOffExecuted = 16;
constexpr int32_t kOffRng = 24;
constexpr int32_t kOffBudget = 32;
constexpr int32_t kOffEstackLow = 40;
constexpr int32_t kOffEstackHigh = 48;
constexpr int32_t kOffResume = 56;
constexpr int32_t kOffExitStatus = 64;
constexpr int32_t kOffExitTpc = 72;
constexpr int32_t kOffBatchStop = 80;
constexpr int32_t kOffMemFault = 88;
constexpr int32_t kOffTls = 96;
constexpr int32_t kOffShared = 104;

static_assert(offsetof(Tier2Ctx, values) == kOffValues);
static_assert(offsetof(Tier2Ctx, clock) == kOffClock);
static_assert(offsetof(Tier2Ctx, executed) == kOffExecuted);
static_assert(offsetof(Tier2Ctx, rng_state) == kOffRng);
static_assert(offsetof(Tier2Ctx, budget) == kOffBudget);
static_assert(offsetof(Tier2Ctx, estack_low) == kOffEstackLow);
static_assert(offsetof(Tier2Ctx, estack_high) == kOffEstackHigh);
static_assert(offsetof(Tier2Ctx, resume) == kOffResume);
static_assert(offsetof(Tier2Ctx, exit_status) == kOffExitStatus);
static_assert(offsetof(Tier2Ctx, exit_tpc) == kOffExitTpc);
static_assert(offsetof(Tier2Ctx, batch_stop) == kOffBatchStop);
static_assert(offsetof(Tier2Ctx, mem_fault) == kOffMemFault);
static_assert(offsetof(Tier2Ctx, tls) == kOffTls);
static_assert(offsetof(Tier2Ctx, shared) == kOffShared);

// Register plan. rbx = Tier2Ctx*, r12 = value-array base; clock, executed
// and rng state live in callee-saved registers so helper calls (SysV: may
// clobber rax/rcx/rdx/rsi/rdi/r8-r11) never disturb them.
constexpr Reg kCtx = Reg::kRbx;
constexpr Reg kVals = Reg::kR12;
constexpr Reg kClock = Reg::kR13;
constexpr Reg kExec = Reg::kR14;
constexpr Reg kRngState = Reg::kR15;

MemRef CtxField(int32_t off) {
  MemRef m;
  m.base = kCtx;
  m.disp = off;
  return m;
}

MemRef SlotRef(uint32_t slot) {
  MemRef m;
  m.base = kVals;
  m.disp = static_cast<int32_t>(slot * 8);
  return m;
}

bool FitsInt32(int64_t v) { return v >= INT32_MIN && v <= INT32_MAX; }

Cond CondForPred(Pred pred) {
  switch (pred) {
    case Pred::kEq:
      return Cond::kE;
    case Pred::kNe:
      return Cond::kNe;
    case Pred::kSlt:
      return Cond::kL;
    case Pred::kSle:
      return Cond::kLe;
    case Pred::kSgt:
      return Cond::kG;
    case Pred::kSge:
      return Cond::kGe;
    case Pred::kUlt:
      return Cond::kB;
    case Pred::kUle:
      return Cond::kBe;
    case Pred::kUgt:
      return Cond::kA;
    default:
      return Cond::kAe;  // kUge
  }
}

Mnemonic AluMnemonicFor(TOp op) {
  switch (op) {
    case TOp::kAdd:
      return Mnemonic::kAdd;
    case TOp::kSub:
      return Mnemonic::kSub;
    case TOp::kAnd:
      return Mnemonic::kAnd;
    case TOp::kOr:
      return Mnemonic::kOr;
    default:
      return Mnemonic::kXor;  // matches tier-1's fused-op default
  }
}

// Emits one translated function. Assembles at base 0: every control
// transfer is a rel32 to a label or an indirect through the context, so the
// bytes are position-independent and install anywhere.
class FnEmitter {
 public:
  FnEmitter(Engine& e, const Translation& tr, bool jitter, bool obs_attached,
            bool profile_attached)
      : e_(e),
        tr_(tr),
        jitter_(jitter),
        obs_(obs_attached),
        profile_(profile_attached),
        a_(0) {}

  bool Emit(std::vector<uint8_t>* bytes, std::vector<uint32_t>* entry_off) {
    const std::vector<TInst>& code = tr_.code;
    // Guard the disp32 addressing and exit-tpc imm32 assumptions; functions
    // anywhere near these sizes do not exist in practice.
    if (code.size() > (1u << 24) || tr_.num_values > (1u << 24)) {
      return false;
    }
    tpc_labels_.resize(code.size());
    for (auto& l : tpc_labels_) {
      l = a_.NewLabel();
    }
    epilogue_ = a_.NewLabel();

    for (uint32_t tpc = 0; tpc < code.size(); ++tpc) {
      a_.Bind(tpc_labels_[tpc]);
      EmitTInst(tpc, code[tpc]);
    }
    EmitEpilogue();

    entry_off->resize(code.size());
    for (uint32_t tpc = 0; tpc < code.size(); ++tpc) {
      (*entry_off)[tpc] = static_cast<uint32_t>(a_.AddressOf(tpc_labels_[tpc]));
    }
    *bytes = a_.Finalize();
    return true;
  }

 private:
  void Op2(Mnemonic m, Operand o0, Operand o1) { a_.Emit(I2(m, 8, o0, o1)); }
  void MovImm(Reg r, uint64_t v) {
    Op2(Mnemonic::kMov, Operand::R(r), Operand::I(static_cast<int64_t>(v)));
  }
  void LoadSlot(Reg r, uint32_t slot) {
    Op2(Mnemonic::kMov, Operand::R(r), Operand::M(SlotRef(slot)));
  }
  void StoreSlot(uint32_t slot, Reg r) {
    Op2(Mnemonic::kMov, Operand::M(SlotRef(slot)), Operand::R(r));
  }

  void EmitExit(Tier2Exit status, uint32_t tpc) {
    Op2(Mnemonic::kMov, Operand::M(CtxField(kOffExitStatus)),
        Operand::I(static_cast<int64_t>(status)));
    Op2(Mnemonic::kMov, Operand::M(CtxField(kOffExitTpc)),
        Operand::I(static_cast<int64_t>(tpc)));
    a_.Jmp(epilogue_);
  }

  void EmitEpilogue() {
    a_.Bind(epilogue_);
    Op2(Mnemonic::kMov, Operand::M(CtxField(kOffClock)), Operand::R(kClock));
    Op2(Mnemonic::kMov, Operand::M(CtxField(kOffExecuted)), Operand::R(kExec));
    Op2(Mnemonic::kMov, Operand::M(CtxField(kOffRng)), Operand::R(kRngState));
    Op2(Mnemonic::kAdd, Operand::R(Reg::kRsp), Operand::I(8));
    for (Reg r : {Reg::kR15, Reg::kR14, Reg::kR13, Reg::kR12, Reg::kRbp,
                  Reg::kRbx}) {
      a_.Emit(I1(Mnemonic::kPop, 8, Operand::R(r)));
    }
    a_.Emit(x86::I0(Mnemonic::kRet));
  }

  // `cmp executed, budget; jae stop` — the tier-1 loop-head budget rule.
  void EmitBudgetCheck(uint32_t tpc) {
    Label ok = a_.NewLabel();
    Op2(Mnemonic::kCmp, Operand::R(kExec), Operand::M(CtxField(kOffBudget)));
    a_.Jcc(Cond::kB, ok);
    EmitExit(Tier2Exit::kStop, tpc);
    a_.Bind(ok);
  }

  // Stop before an always-visible operation when batching with executed>0.
  void EmitVisibleStopAlways(uint32_t tpc) {
    Label cont = a_.NewLabel();
    Op2(Mnemonic::kCmp, Operand::M(CtxField(kOffBatchStop)), Operand::I(0));
    a_.Jcc(Cond::kE, cont);
    Op2(Mnemonic::kTest, Operand::R(kExec), Operand::R(kExec));
    a_.Jcc(Cond::kE, cont);
    EmitExit(Tier2Exit::kStop, tpc);
    a_.Bind(cont);
  }

  // Same, for loads/stores whose visibility depends on the address in rsi:
  // private iff estack_low <= addr < estack_high.
  void EmitVisibleStopAddr(uint32_t tpc) {
    Label cont = a_.NewLabel();
    Label stop = a_.NewLabel();
    Op2(Mnemonic::kCmp, Operand::M(CtxField(kOffBatchStop)), Operand::I(0));
    a_.Jcc(Cond::kE, cont);
    Op2(Mnemonic::kTest, Operand::R(kExec), Operand::R(kExec));
    a_.Jcc(Cond::kE, cont);
    Op2(Mnemonic::kCmp, Operand::R(Reg::kRsi),
        Operand::M(CtxField(kOffEstackLow)));
    a_.Jcc(Cond::kB, stop);
    Op2(Mnemonic::kCmp, Operand::R(Reg::kRsi),
        Operand::M(CtxField(kOffEstackHigh)));
    a_.Jcc(Cond::kB, cont);
    a_.Bind(stop);
    EmitExit(Tier2Exit::kStop, tpc);
    a_.Bind(cont);
  }

  // One SplitMix64 draw (identical constants to Rng::Next), clock += bit 0.
  void EmitJitterDraw() {
    MovImm(Reg::kRax, 0x9e3779b97f4a7c15ull);
    Op2(Mnemonic::kAdd, Operand::R(kRngState), Operand::R(Reg::kRax));
    Op2(Mnemonic::kMov, Operand::R(Reg::kRax), Operand::R(kRngState));
    Op2(Mnemonic::kMov, Operand::R(Reg::kRcx), Operand::R(Reg::kRax));
    Op2(Mnemonic::kShr, Operand::R(Reg::kRcx), Operand::I(30));
    Op2(Mnemonic::kXor, Operand::R(Reg::kRax), Operand::R(Reg::kRcx));
    MovImm(Reg::kRcx, 0xbf58476d1ce4e5b9ull);
    Op2(Mnemonic::kImul, Operand::R(Reg::kRax), Operand::R(Reg::kRcx));
    Op2(Mnemonic::kMov, Operand::R(Reg::kRcx), Operand::R(Reg::kRax));
    Op2(Mnemonic::kShr, Operand::R(Reg::kRcx), Operand::I(27));
    Op2(Mnemonic::kXor, Operand::R(Reg::kRax), Operand::R(Reg::kRcx));
    MovImm(Reg::kRcx, 0x94d049bb133111ebull);
    Op2(Mnemonic::kImul, Operand::R(Reg::kRax), Operand::R(Reg::kRcx));
    Op2(Mnemonic::kMov, Operand::R(Reg::kRcx), Operand::R(Reg::kRax));
    Op2(Mnemonic::kShr, Operand::R(Reg::kRcx), Operand::I(31));
    Op2(Mnemonic::kXor, Operand::R(Reg::kRax), Operand::R(Reg::kRcx));
    Op2(Mnemonic::kAnd, Operand::R(Reg::kRax), Operand::I(1));
    Op2(Mnemonic::kAdd, Operand::R(kClock), Operand::R(Reg::kRax));
  }

  void EmitHelperCall(const void* fn) {
    MovImm(Reg::kRax, reinterpret_cast<uint64_t>(fn));
    a_.Emit(I1(Mnemonic::kCall, 4, Operand::R(Reg::kRax)));
  }

  // Tier-1's charge(): clock += cost (+jitter bits), executed += n_instrs,
  // profile instruction attribution.
  void EmitCharge(const TInst& ti) {
    if (ti.cost != 0) {
      if (FitsInt32(static_cast<int64_t>(ti.cost))) {
        Op2(Mnemonic::kAdd, Operand::R(kClock),
            Operand::I(static_cast<int64_t>(ti.cost)));
      } else {
        MovImm(Reg::kRax, ti.cost);
        Op2(Mnemonic::kAdd, Operand::R(kClock), Operand::R(Reg::kRax));
      }
    }
    if (jitter_) {
      for (int j = 0; j < ti.jitter; ++j) {
        EmitJitterDraw();
      }
    }
    if (ti.n_instrs != 0) {
      Op2(Mnemonic::kAdd, Operand::R(kExec), Operand::I(ti.n_instrs));
    }
    if (profile_ && ti.n_instrs > 0) {
      Op2(Mnemonic::kMov, Operand::R(Reg::kRdi), Operand::R(kCtx));
      MovImm(Reg::kRsi, ti.site);
      MovImm(Reg::kRdx, ti.n_instrs);
      EmitHelperCall(reinterpret_cast<const void*>(&Tier2Backend::ObsInstrs));
    }
  }

  // Guest memory faults surface at the tier-0 boundary: charged, tpc
  // advanced, then stop — exactly tier 1's post-access check.
  void EmitMemFaultCheck(uint32_t next_tpc) {
    Label ok = a_.NewLabel();
    Op2(Mnemonic::kCmp, Operand::M(CtxField(kOffMemFault)), Operand::I(0));
    a_.Jcc(Cond::kE, ok);
    EmitExit(Tier2Exit::kStop, next_tpc);
    a_.Bind(ok);
  }

  // Loads the effective address of an addressable TInst into rsi.
  void EmitAddress(const TInst& ti) {
    switch (ti.op) {
      case TOp::kLoad:
      case TOp::kLoadOp:
      case TOp::kStore:
      case TOp::kFenceStore:
        LoadSlot(Reg::kRsi, ti.a);
        break;
      case TOp::kLoadBI:
      case TOp::kStoreBI:
        LoadSlot(Reg::kRsi, ti.a);
        Op2(Mnemonic::kAdd, Operand::R(Reg::kRsi), Operand::M(SlotRef(ti.b)));
        break;
      default:  // kLoadBIS / kStoreBIS
        LoadSlot(Reg::kRsi, ti.b);
        if (ti.extra != 0) {
          Op2(Mnemonic::kShl, Operand::R(Reg::kRsi), Operand::I(ti.extra));
        }
        Op2(Mnemonic::kAdd, Operand::R(Reg::kRsi), Operand::M(SlotRef(ti.a)));
        break;
    }
  }

  // Branch edge: a statically-known deopt target exits before any profile
  // count or charge; a covered target counts, charges and jumps.
  void EmitBranchTo(const TInst& ti, const BrTarget& bt) {
    if (tr_.code[bt.tpc].op == TOp::kDeopt) {
      EmitExit(Tier2Exit::kDeoptAnchor, bt.tpc);
      return;
    }
    if (profile_) {
      Op2(Mnemonic::kMov, Operand::R(Reg::kRdi), Operand::R(kCtx));
      MovImm(Reg::kRsi, bt.site);
      EmitHelperCall(reinterpret_cast<const void*>(&Tier2Backend::ObsEntry));
    }
    EmitCharge(ti);
    a_.Jmp(tpc_labels_[bt.tpc]);
  }

  // kCmpBr edge with the condition value live in rax: the dst slot is only
  // written on covered edges (tier 1 deopts before v[dst] = cond).
  void EmitCmpBrTo(const TInst& ti, const BrTarget& bt) {
    if (tr_.code[bt.tpc].op == TOp::kDeopt) {
      EmitExit(Tier2Exit::kDeoptAnchor, bt.tpc);
      return;
    }
    StoreSlot(ti.dst, Reg::kRax);
    if (profile_) {
      Op2(Mnemonic::kMov, Operand::R(Reg::kRdi), Operand::R(kCtx));
      MovImm(Reg::kRsi, bt.site);
      EmitHelperCall(reinterpret_cast<const void*>(&Tier2Backend::ObsEntry));
    }
    EmitCharge(ti);
    a_.Jmp(tpc_labels_[bt.tpc]);
  }

  void EmitObsFence(uint32_t site) {
    Op2(Mnemonic::kMov, Operand::R(Reg::kRdi), Operand::R(kCtx));
    MovImm(Reg::kRsi, site);
    EmitHelperCall(reinterpret_cast<const void*>(&Tier2Backend::ObsFence));
  }

  // icmp into rax as 0/1.
  void EmitPred(Pred pred, uint32_t a, uint32_t b) {
    LoadSlot(Reg::kRax, a);
    Op2(Mnemonic::kCmp, Operand::R(Reg::kRax), Operand::M(SlotRef(b)));
    Inst setcc = I1(Mnemonic::kSetcc, 1, Operand::R(Reg::kRax));
    setcc.cond = CondForPred(pred);
    a_.Emit(setcc);
    Inst zx = I2(Mnemonic::kMovzx, 8, Operand::R(Reg::kRax),
                 Operand::R(Reg::kRax));
    zx.src_size = 1;
    a_.Emit(zx);
  }

  void EmitTInst(uint32_t tpc, const TInst& ti) {
    const bool zero_width =
        ti.op == TOp::kCopy || (ti.op == TOp::kJmp && ti.extra == 1);
    if (!zero_width) {
      EmitBudgetCheck(tpc);
    }

    switch (ti.op) {
      case TOp::kAdd:
      case TOp::kSub:
      case TOp::kMul:
      case TOp::kAnd:
      case TOp::kOr:
      case TOp::kXor: {
        LoadSlot(Reg::kRax, ti.a);
        Mnemonic m = ti.op == TOp::kMul ? Mnemonic::kImul : AluMnemonicFor(ti.op);
        Op2(m, Operand::R(Reg::kRax), Operand::M(SlotRef(ti.b)));
        StoreSlot(ti.dst, Reg::kRax);
        EmitCharge(ti);
        break;
      }

      case TOp::kSDiv:
      case TOp::kSRem: {
        LoadSlot(Reg::kRcx, ti.b);
        Label nonzero = a_.NewLabel();
        Op2(Mnemonic::kTest, Operand::R(Reg::kRcx), Operand::R(Reg::kRcx));
        a_.Jcc(Cond::kNe, nonzero);
        EmitExit(Tier2Exit::kDivZero, tpc);
        a_.Bind(nonzero);
        LoadSlot(Reg::kRax, ti.a);
        Label divide = a_.NewLabel();
        MovImm(Reg::kRdx, 0x8000000000000000ull);
        Op2(Mnemonic::kCmp, Operand::R(Reg::kRax), Operand::R(Reg::kRdx));
        a_.Jcc(Cond::kNe, divide);
        Op2(Mnemonic::kCmp, Operand::R(Reg::kRcx), Operand::I(-1));
        a_.Jcc(Cond::kNe, divide);
        EmitExit(Tier2Exit::kDivOverflow, tpc);
        a_.Bind(divide);
        a_.Emit(x86::I0(Mnemonic::kCqo, 8));
        a_.Emit(I1(Mnemonic::kIdiv, 8, Operand::R(Reg::kRcx)));
        StoreSlot(ti.dst, ti.op == TOp::kSDiv ? Reg::kRax : Reg::kRdx);
        EmitCharge(ti);
        break;
      }

      case TOp::kUDiv:
      case TOp::kURem: {
        LoadSlot(Reg::kRcx, ti.b);
        Label nonzero = a_.NewLabel();
        Op2(Mnemonic::kTest, Operand::R(Reg::kRcx), Operand::R(Reg::kRcx));
        a_.Jcc(Cond::kNe, nonzero);
        EmitExit(Tier2Exit::kDivZero, tpc);
        a_.Bind(nonzero);
        LoadSlot(Reg::kRax, ti.a);
        a_.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRdx),
                   Operand::R(Reg::kRdx)));
        a_.Emit(I1(Mnemonic::kDiv, 8, Operand::R(Reg::kRcx)));
        StoreSlot(ti.dst, ti.op == TOp::kUDiv ? Reg::kRax : Reg::kRdx);
        EmitCharge(ti);
        break;
      }

      case TOp::kShl:
      case TOp::kLShr:
      case TOp::kAShr: {
        LoadSlot(Reg::kRax, ti.a);
        LoadSlot(Reg::kRcx, ti.b);
        Label big = a_.NewLabel();
        Label done = a_.NewLabel();
        Op2(Mnemonic::kCmp, Operand::R(Reg::kRcx), Operand::I(64));
        a_.Jcc(Cond::kAe, big);
        Mnemonic m = ti.op == TOp::kShl    ? Mnemonic::kShl
                     : ti.op == TOp::kLShr ? Mnemonic::kShr
                                           : Mnemonic::kSar;
        Op2(m, Operand::R(Reg::kRax), Operand::R(Reg::kRcx));
        a_.Jmp(done);
        a_.Bind(big);
        if (ti.op == TOp::kAShr) {
          // Tier-1 clamps arithmetic shifts to 63 (sign fill).
          Op2(Mnemonic::kSar, Operand::R(Reg::kRax), Operand::I(63));
        } else {
          a_.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRax),
                     Operand::R(Reg::kRax)));
        }
        a_.Bind(done);
        StoreSlot(ti.dst, Reg::kRax);
        EmitCharge(ti);
        break;
      }

      case TOp::kICmp:
        EmitPred(static_cast<Pred>(ti.extra), ti.a, ti.b);
        StoreSlot(ti.dst, Reg::kRax);
        EmitCharge(ti);
        break;

      case TOp::kSelect: {
        LoadSlot(Reg::kRax, ti.b);
        LoadSlot(Reg::kRcx, ti.c);
        Op2(Mnemonic::kCmp, Operand::M(SlotRef(ti.a)), Operand::I(0));
        Inst cmov = I2(Mnemonic::kCmovcc, 8, Operand::R(Reg::kRax),
                       Operand::R(Reg::kRcx));
        cmov.cond = Cond::kE;
        a_.Emit(cmov);
        StoreSlot(ti.dst, Reg::kRax);
        EmitCharge(ti);
        break;
      }

      case TOp::kSExt: {
        LoadSlot(Reg::kRax, ti.a);
        int shift = 64 - ti.extra;
        if (shift > 0) {
          Op2(Mnemonic::kShl, Operand::R(Reg::kRax), Operand::I(shift));
          Op2(Mnemonic::kSar, Operand::R(Reg::kRax), Operand::I(shift));
        }
        StoreSlot(ti.dst, Reg::kRax);
        EmitCharge(ti);
        break;
      }

      case TOp::kLoad:
      case TOp::kLoadBI:
      case TOp::kLoadBIS:
        EmitAddress(ti);
        EmitVisibleStopAddr(tpc);
        Op2(Mnemonic::kMov, Operand::R(Reg::kRdi), Operand::R(kCtx));
        MovImm(Reg::kRdx, ti.size);
        EmitHelperCall(reinterpret_cast<const void*>(&Tier2Backend::MemRead));
        StoreSlot(ti.dst, Reg::kRax);
        EmitCharge(ti);
        EmitMemFaultCheck(tpc + 1);
        break;

      case TOp::kLoadOp: {
        EmitAddress(ti);
        EmitVisibleStopAddr(tpc);
        Op2(Mnemonic::kMov, Operand::R(Reg::kRdi), Operand::R(kCtx));
        MovImm(Reg::kRdx, ti.size);
        EmitHelperCall(reinterpret_cast<const void*>(&Tier2Backend::MemRead));
        LoadSlot(Reg::kRcx, ti.c);
        const bool mem_lhs = (ti.extra & 0x80) != 0;
        Mnemonic m = AluMnemonicFor(static_cast<TOp>(ti.extra & 0x7f));
        if (mem_lhs) {
          Op2(m, Operand::R(Reg::kRax), Operand::R(Reg::kRcx));
          StoreSlot(ti.dst, Reg::kRax);
        } else {
          Op2(m, Operand::R(Reg::kRcx), Operand::R(Reg::kRax));
          StoreSlot(ti.dst, Reg::kRcx);
        }
        EmitCharge(ti);
        EmitMemFaultCheck(tpc + 1);
        break;
      }

      case TOp::kStore:
      case TOp::kStoreBI:
      case TOp::kStoreBIS: {
        EmitAddress(ti);
        EmitVisibleStopAddr(tpc);
        Op2(Mnemonic::kMov, Operand::R(Reg::kRdi), Operand::R(kCtx));
        MovImm(Reg::kRdx, ti.size);
        LoadSlot(Reg::kRcx, ti.op == TOp::kStore ? ti.b : ti.c);
        EmitHelperCall(reinterpret_cast<const void*>(&Tier2Backend::MemWrite));
        Label no_smc = a_.NewLabel();
        Op2(Mnemonic::kTest, Operand::R(Reg::kRax), Operand::R(Reg::kRax));
        a_.Jcc(Cond::kE, no_smc);
        EmitExit(Tier2Exit::kDeoptSmc, tpc);
        a_.Bind(no_smc);
        EmitCharge(ti);
        EmitMemFaultCheck(tpc + 1);
        break;
      }

      case TOp::kFenceStore: {
        EmitVisibleStopAlways(tpc);
        EmitAddress(ti);
        Op2(Mnemonic::kMov, Operand::R(Reg::kRdi), Operand::R(kCtx));
        MovImm(Reg::kRdx, ti.size);
        LoadSlot(Reg::kRcx, ti.b);
        EmitHelperCall(reinterpret_cast<const void*>(&Tier2Backend::MemWrite));
        Label no_smc = a_.NewLabel();
        Op2(Mnemonic::kTest, Operand::R(Reg::kRax), Operand::R(Reg::kRax));
        a_.Jcc(Cond::kE, no_smc);
        EmitExit(Tier2Exit::kDeoptSmc, tpc);
        a_.Bind(no_smc);
        if (obs_) {
          EmitObsFence(ti.site);
        }
        EmitCharge(ti);
        EmitMemFaultCheck(tpc + 1);
        break;
      }

      case TOp::kFence:
        EmitVisibleStopAlways(tpc);
        if (obs_) {
          EmitObsFence(ti.site);
        }
        EmitCharge(ti);
        break;

      case TOp::kGlobalLoadTls:
      case TOp::kGlobalLoadShared: {
        if (ti.op == TOp::kGlobalLoadShared) {
          EmitVisibleStopAlways(tpc);
        }
        Op2(Mnemonic::kMov, Operand::R(Reg::kRax),
            Operand::M(CtxField(ti.op == TOp::kGlobalLoadTls ? kOffTls
                                                             : kOffShared)));
        MemRef slot;
        slot.base = Reg::kRax;
        slot.disp = static_cast<int32_t>(ti.aux * 8);
        Op2(Mnemonic::kMov, Operand::R(Reg::kRcx), Operand::M(slot));
        StoreSlot(ti.dst, Reg::kRcx);
        EmitCharge(ti);
        break;
      }

      case TOp::kGlobalStoreTls:
      case TOp::kGlobalStoreShared: {
        if (ti.op == TOp::kGlobalStoreShared) {
          EmitVisibleStopAlways(tpc);
        }
        Op2(Mnemonic::kMov, Operand::R(Reg::kRax),
            Operand::M(CtxField(ti.op == TOp::kGlobalStoreTls ? kOffTls
                                                              : kOffShared)));
        LoadSlot(Reg::kRcx, ti.a);
        MemRef slot;
        slot.base = Reg::kRax;
        slot.disp = static_cast<int32_t>(ti.aux * 8);
        Op2(Mnemonic::kMov, Operand::M(slot), Operand::R(Reg::kRcx));
        EmitCharge(ti);
        break;
      }

      case TOp::kAtomicRmw:
        EmitVisibleStopAlways(tpc);
        Op2(Mnemonic::kMov, Operand::R(Reg::kRdi), Operand::R(kCtx));
        LoadSlot(Reg::kRsi, ti.a);
        LoadSlot(Reg::kRdx, ti.b);
        MovImm(Reg::kRcx, static_cast<uint64_t>(ti.size) |
                              (static_cast<uint64_t>(ti.extra) << 8));
        MovImm(Reg::kR8, ti.site);
        EmitHelperCall(
            reinterpret_cast<const void*>(&Tier2Backend::AtomicRmw));
        StoreSlot(ti.dst, Reg::kRax);
        EmitCharge(ti);
        EmitMemFaultCheck(tpc + 1);
        break;

      case TOp::kCmpXchg:
        EmitVisibleStopAlways(tpc);
        Op2(Mnemonic::kMov, Operand::R(Reg::kRdi), Operand::R(kCtx));
        LoadSlot(Reg::kRsi, ti.a);
        LoadSlot(Reg::kRdx, ti.b);
        LoadSlot(Reg::kRcx, ti.c);
        MovImm(Reg::kR8, ti.size);
        MovImm(Reg::kR9, ti.site);
        EmitHelperCall(reinterpret_cast<const void*>(&Tier2Backend::CmpXchg));
        StoreSlot(ti.dst, Reg::kRax);
        EmitCharge(ti);
        EmitMemFaultCheck(tpc + 1);
        break;

      case TOp::kJmp: {
        const BrTarget& bt = tr_.brs[ti.aux].then_t;
        if (ti.extra == 1) {
          a_.Jmp(tpc_labels_[bt.tpc]);  // stub-internal: free, no checks
          break;
        }
        EmitBranchTo(ti, bt);
        break;
      }

      case TOp::kBrCond: {
        const BrInfo& bi = tr_.brs[ti.aux];
        Label else_path = a_.NewLabel();
        Op2(Mnemonic::kCmp, Operand::M(SlotRef(ti.a)), Operand::I(0));
        a_.Jcc(Cond::kE, else_path);
        EmitBranchTo(ti, bi.then_t);
        a_.Bind(else_path);
        EmitBranchTo(ti, bi.else_t);
        break;
      }

      case TOp::kCmpBr: {
        EmitPred(static_cast<Pred>(ti.extra), ti.a, ti.b);
        const BrInfo& bi = tr_.brs[ti.aux];
        Label then_path = a_.NewLabel();
        Op2(Mnemonic::kTest, Operand::R(Reg::kRax), Operand::R(Reg::kRax));
        a_.Jcc(Cond::kNe, then_path);
        EmitCmpBrTo(ti, bi.else_t);
        a_.Bind(then_path);
        EmitCmpBrTo(ti, bi.then_t);
        break;
      }

      case TOp::kSwitch: {
        const SwitchInfo& si = tr_.switches[ti.aux];
        LoadSlot(Reg::kRax, ti.a);
        std::vector<Label> case_paths(si.cases.size());
        for (size_t i = 0; i < si.cases.size(); ++i) {
          int64_t cv = static_cast<int64_t>(si.cases[i].first);
          if (FitsInt32(cv)) {
            Op2(Mnemonic::kCmp, Operand::R(Reg::kRax), Operand::I(cv));
          } else {
            MovImm(Reg::kRcx, si.cases[i].first);
            Op2(Mnemonic::kCmp, Operand::R(Reg::kRax),
                Operand::R(Reg::kRcx));
          }
          case_paths[i] = a_.NewLabel();
          a_.Jcc(Cond::kE, case_paths[i]);
        }
        EmitBranchTo(ti, si.default_t);
        for (size_t i = 0; i < si.cases.size(); ++i) {
          a_.Bind(case_paths[i]);
          EmitBranchTo(ti, si.cases[i].second);
        }
        break;
      }

      case TOp::kRet:
        EmitCharge(ti);
        EmitExit(Tier2Exit::kRet, tpc);
        break;

      case TOp::kCall:
        EmitCharge(ti);
        EmitExit(Tier2Exit::kCall, tpc);
        break;

      case TOp::kIntrinsic:
        // Visible when extra != 0 (external call / pause); the full
        // protocol (charge included) runs in C++.
        if (ti.extra != 0) {
          EmitVisibleStopAlways(tpc);
        }
        EmitExit(Tier2Exit::kIntrinsic, tpc);
        break;

      case TOp::kCopy:
        LoadSlot(Reg::kRax, ti.a);
        StoreSlot(ti.dst, Reg::kRax);
        break;

      case TOp::kDeopt:
      default:
        EmitExit(Tier2Exit::kDeoptAnchor, tpc);
        break;
    }
  }

  Engine& e_;
  const Translation& tr_;
  const bool jitter_;
  const bool obs_;
  const bool profile_;
  x86::Assembler a_;
  std::vector<Label> tpc_labels_;
  Label epilogue_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Backend
// ---------------------------------------------------------------------------

Tier2Backend::Tier2Backend(Engine& e) : e_(e) {
  if (vm::CodeBuffer::Supported()) {
    InstallThunk();
  }
}

Tier2Backend::~Tier2Backend() = default;

void Tier2Backend::InstallThunk() {
  x86::Assembler a(0);
  for (Reg r : {Reg::kRbx, Reg::kRbp, Reg::kR12, Reg::kR13, Reg::kR14,
                Reg::kR15}) {
    a.Emit(I1(Mnemonic::kPush, 8, Operand::R(r)));
  }
  // 6 pushes leave rsp ≡ 8 (mod 16); one more slot restores the SysV
  // rsp ≡ 0 alignment helper calls in generated code rely on.
  a.Emit(I2(Mnemonic::kSub, 8, Operand::R(Reg::kRsp), Operand::I(8)));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(kCtx), Operand::R(Reg::kRdi)));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(kVals),
            Operand::M(CtxField(kOffValues))));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(kClock),
            Operand::M(CtxField(kOffClock))));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(kExec),
            Operand::M(CtxField(kOffExecuted))));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(kRngState),
            Operand::M(CtxField(kOffRng))));
  a.Emit(I1(Mnemonic::kJmp, 4, Operand::M(CtxField(kOffResume))));
  std::vector<uint8_t> bytes = a.Finalize();
  const uint8_t* code = buffer_.Install(bytes);
  if (code == nullptr) {
    return;
  }
  if (e_.tierprof_ != nullptr) {
    e_.tierprof_->RecordInstall("tier2:<entry-thunk>", code, bytes.size());
  }
  entry_ = reinterpret_cast<uint64_t (*)(Tier2Ctx*)>(
      reinterpret_cast<uintptr_t>(code));
}

bool Tier2Backend::Translate(FuncInfo* info) {
  POLY_CHECK(info->translation != nullptr)
      << "tier-2 translates from the tier-1 stream";
  if (info->native_failed) {
    return false;
  }
  if (!ready()) {
    info->native_failed = true;
    return false;
  }
  FnEmitter em(e_, *info->translation, e_.options_.cost_jitter,
               e_.obs_attached_, e_.options_.obs.profile != nullptr);
  auto nc = std::make_shared<NativeCode>();
  std::vector<uint8_t> bytes;
  if (!em.Emit(&bytes, &nc->entry_off)) {
    info->native_failed = true;
    return false;
  }
  nc->code = buffer_.Install(bytes);
  if (nc->code == nullptr) {
    info->native_failed = true;
    return false;
  }
  nc->code_size = bytes.size();
  if (e_.tierprof_ != nullptr) {
    // Symbolize the installed range for external profilers (perf map).
    e_.tierprof_->RecordInstall("tier2:" + info->fn->name(), nc->code,
                                nc->code_size);
  }
  info->native = std::move(nc);
  return true;
}

// ---------------------------------------------------------------------------
// Helpers called from generated code
// ---------------------------------------------------------------------------

// Helper-call attribution: with a tierprof sink attached, each out-of-line
// helper bumps the running function's scratch counter — the evidence base
// for inlining the guest-memory fast path (DESIGN.md §4h).
void Tier2Backend::CountHelper(Tier2Ctx* ctx, uint8_t helper) {
  if (ctx->engine->tierprof_ != nullptr) {
    ++ctx->thread->stack.back().info->tp_helpers[helper];
  }
}

uint64_t Tier2Backend::MemRead(Tier2Ctx* ctx, uint64_t addr, uint64_t size) {
  CountHelper(ctx, obs::TierProf::kHelperMemRead);
  vm::Memory& mem = ctx->engine->memory_;
  uint64_t value = mem.Read(addr, static_cast<int>(size));
  if (mem.faulted()) {
    ctx->mem_fault = 1;
  }
  return value;
}

uint64_t Tier2Backend::MemWrite(Tier2Ctx* ctx, uint64_t addr, uint64_t size,
                                uint64_t value) {
  CountHelper(ctx, obs::TierProf::kHelperMemWrite);
  vm::Memory& mem = ctx->engine->memory_;
  int sz = static_cast<int>(size);
  if (mem.InExecutableRange(addr, sz)) {
    return 1;  // SMC: no write; generated code exits to the deopt path
  }
  mem.Write(addr, sz, ir::MaskBytes(value, sz));
  if (mem.faulted()) {
    ctx->mem_fault = 1;
  }
  return 0;
}

uint64_t Tier2Backend::AtomicRmw(Tier2Ctx* ctx, uint64_t addr,
                                 uint64_t operand, uint64_t size_op,
                                 uint64_t site) {
  CountHelper(ctx, obs::TierProf::kHelperAtomicRmw);
  Engine& e = *ctx->engine;
  vm::Memory& mem = e.memory_;
  int size = static_cast<int>(size_op & 0xff);
  uint64_t old = mem.Read(addr, size);
  uint64_t r = ir::ApplyRmw(static_cast<RmwOp>(size_op >> 8), old, operand);
  mem.Write(addr, size, ir::MaskBytes(r, size));
  if (e.obs_attached_) {
    if (e.options_.obs.profile != nullptr) {
      e.options_.obs.profile->AddAtomic(static_cast<uint32_t>(site));
    }
    e.options_.obs.Add(obs::Counter::kExecAtomics);
  }
  if (mem.faulted()) {
    ctx->mem_fault = 1;
  }
  return old;
}

uint64_t Tier2Backend::CmpXchg(Tier2Ctx* ctx, uint64_t addr, uint64_t expected,
                               uint64_t desired, uint64_t size,
                               uint64_t site) {
  CountHelper(ctx, obs::TierProf::kHelperCmpXchg);
  Engine& e = *ctx->engine;
  vm::Memory& mem = e.memory_;
  int sz = static_cast<int>(size);
  uint64_t want = ir::MaskBytes(expected, sz);
  uint64_t old = mem.Read(addr, sz);
  if (old == want) {
    mem.Write(addr, sz, ir::MaskBytes(desired, sz));
  }
  if (e.obs_attached_) {
    if (e.options_.obs.profile != nullptr) {
      e.options_.obs.profile->AddAtomic(static_cast<uint32_t>(site));
    }
    e.options_.obs.Add(obs::Counter::kExecAtomics);
  }
  if (mem.faulted()) {
    ctx->mem_fault = 1;
  }
  return old;
}

void Tier2Backend::ObsFence(Tier2Ctx* ctx, uint64_t site) {
  CountHelper(ctx, obs::TierProf::kHelperFence);
  Engine& e = *ctx->engine;
  if (e.options_.obs.profile != nullptr) {
    e.options_.obs.profile->AddFence(static_cast<uint32_t>(site));
  }
  e.options_.obs.Add(obs::Counter::kExecFences);
}

void Tier2Backend::ObsInstrs(Tier2Ctx* ctx, uint64_t site, uint64_t n) {
  ctx->engine->options_.obs.profile->AddInstrs(static_cast<uint32_t>(site),
                                               n);
}

void Tier2Backend::ObsEntry(Tier2Ctx* ctx, uint64_t site) {
  ctx->engine->options_.obs.profile->AddEntry(static_cast<uint32_t>(site));
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

void Tier2Backend::Deopt(Frame& f, const TInst& ti, DeoptReason reason) {
  f.native = false;
  f.translated = false;
  f.block = ti.block;
  f.it = ti.anchor;
  f.profile_site = ti.site;
  ++e_.deopt_counts_[static_cast<int>(reason)];
  if (e_.tierprof_ != nullptr) {
    e_.tierprof_->RecordDeopt(
        e_.current_, e_.TierProfId(f.info), /*resident_tier=*/2,
        static_cast<uint8_t>(reason),
        ti.block != nullptr ? ti.block->guest_address : 0, e_.steps_);
  }
  e_.options_.obs.Add(obs::Counter::kExecDeopts);
  switch (reason) {
    case DeoptReason::kPreempt:
      e_.options_.obs.Add(obs::Counter::kExecDeoptPreempt);
      break;
    case DeoptReason::kSmcWrite:
      e_.options_.obs.Add(obs::Counter::kExecDeoptSmcWrite);
      break;
    default:
      e_.options_.obs.Add(obs::Counter::kExecDeoptUncovered);
      if (f.info->fn != nullptr &&
          e_.options_.cfg_certified_entries.count(f.info->fn->guest_entry) !=
              0) {
        // A certificate promised this function had no uncovered edges.
        e_.options_.obs.Add(obs::Counter::kExecDeoptUncoveredCert);
      }
      break;
  }
}

bool Tier2Backend::Step(Thread& t, StepMode mode) {
  // kSingle never reaches this backend: the engine routes controlled-
  // scheduler steps of native frames through the tier-1 executor over the
  // same TInst stream (Frame::translated stays true), so decision points
  // and preemption deopts are tier-1-identical by construction.
  POLY_CHECK(mode != StepMode::kSingle);
  Frame* f = &t.stack.back();
  const Translation* tr = f->info->translation.get();
  NativeCode* nc = f->info->native.get();
  POLY_CHECK(nc != nullptr && f->tpc < nc->entry_off.size());

  // Identical budget rule to tier 1's batch loop.
  uint64_t left = e_.options_.max_steps >= e_.steps_
                      ? e_.options_.max_steps - e_.steps_ + 1
                      : 1;
  uint64_t budget = std::min<uint64_t>(65536, left);

  Tier2Ctx ctx;
  ctx.values = f->values.data();
  ctx.clock = t.clock;
  ctx.executed = 0;
  ctx.rng_state = t.jitter_rng.state();
  ctx.budget = budget;
  ctx.estack_low = t.estack_low;
  ctx.estack_high = t.estack_high;
  ctx.resume = nc->code + nc->entry_off[f->tpc];
  ctx.exit_status = 0;
  ctx.exit_tpc = f->tpc;
  ctx.batch_stop = mode == StepMode::kBatch ? 1 : 0;
  ctx.mem_fault = 0;
  ctx.tls = t.tls.data();
  ctx.shared = e_.shared_globals_.data();
  ctx.engine = &e_;
  ctx.thread = &t;

  entry_(&ctx);

  t.clock = ctx.clock;
  t.jitter_rng.set_state(ctx.rng_state);
  uint64_t executed = ctx.executed;
  const uint32_t tpc = static_cast<uint32_t>(ctx.exit_tpc);
  // Residency attribution target: the batch retires in this frame's
  // function, and FuncInfo outlives the frame (kRet pops `f`).
  FuncInfo* fi = f->info;
  auto* tierprof = e_.tierprof_;

  // Step accounting mirrors tier 1: the outer loop adds +1 per Step, so
  // normal returns flush executed-1 and fault returns flush all of it.
  auto finish_true = [&]() {
    e_.steps_ += executed > 0 ? executed - 1 : 0;
    e_.tier2_instrs_ += executed;
    if (tierprof != nullptr) {
      fi->tp_steps[2] += executed;
    }
    return true;
  };
  auto finish_false = [&]() {
    e_.steps_ += executed;
    e_.tier2_instrs_ += executed;
    if (tierprof != nullptr) {
      fi->tp_steps[2] += executed;
    }
    return false;
  };
  auto do_deopt = [&](const TInst& anchor_ti, DeoptReason reason) {
    Deopt(*f, anchor_ti, reason);
    if (executed == 0) {
      // ≥1-instruction-per-Step contract: interpret the deopted operation
      // inline, exactly as tier 1 does.
      return e_.StepInstruction(t);
    }
    e_.steps_ += executed - 1;
    e_.tier2_instrs_ += executed;
    if (tierprof != nullptr) {
      fi->tp_steps[2] += executed;
    }
    return true;
  };

  switch (static_cast<Tier2Exit>(ctx.exit_status)) {
    case Tier2Exit::kStop:
      f->tpc = tpc;
      return finish_true();

    case Tier2Exit::kRet: {
      const TInst& ti = tr->code[tpc];
      uint64_t value = ti.a == kNoDst ? 0 : f->values[ti.a];
      bool was_root = f->dispatch_root;
      t.stack.pop_back();  // f dangles from here
      if (t.stack.empty() || was_root) {
        t.pending_pc = value;
        t.last_toplevel_pc = value;
      } else {
        Frame& caller = t.stack.back();
        if (caller.translated) {
          const TInst& call = caller.info->translation->code[caller.tpc];
          POLY_CHECK(call.op == TOp::kCall);
          if (call.dst != kNoDst) {
            caller.values[call.dst] = value;
          }
          ++caller.tpc;
        } else {
          const ir::Instruction& call_inst = **caller.it;
          POLY_CHECK(call_inst.op() == ir::Op::kCall);
          if (call_inst.HasResult()) {
            caller.values[static_cast<size_t>(call_inst.id)] = value;
          }
          ++caller.it;
        }
      }
      return finish_true();
    }

    case Tier2Exit::kCall:
      f->tpc = tpc;  // stays at the call; the matching return advances it
      e_.PushFrame(t, tr->calls[tr->code[tpc].aux], /*dispatch_root=*/false);
      return finish_true();

    case Tier2Exit::kIntrinsic: {
      const size_t frame_index = t.stack.size() - 1;
      f->tpc = tpc;
      // Flush retired work before the intrinsic (it may nest dispatches);
      // the intrinsic itself is covered by the outer loop's +1.
      e_.steps_ += executed;
      e_.tier2_instrs_ += executed;
      if (tierprof != nullptr) {
        fi->tp_steps[2] += executed;
      }
      const TInst& ti = tr->code[tpc];
      const ir::Instruction& inst = **ti.anchor;
      if (!e_.HandleIntrinsic(t, frame_index, inst)) {
        return !e_.faulted_ && e_.miss_ == std::nullopt;
      }
      Frame& ff = t.stack[frame_index];  // nested dispatch may reallocate
      if (e_.retry_pending_) {
        e_.retry_pending_ = false;
        e_.last_step_retried_ = true;
      } else {
        ++ff.tpc;
      }
      if (e_.options_.cost_jitter) {
        t.clock += t.jitter_rng.Next() & 1;
      }
      if (e_.obs_attached_ && e_.options_.obs.profile != nullptr) {
        e_.options_.obs.profile->AddInstrs(ti.site, 1);
      }
      e_.tier2_instrs_ += 1;
      if (tierprof != nullptr) {
        fi->tp_steps[2] += 1;
      }
      return true;
    }

    case Tier2Exit::kDeoptSmc:
      return do_deopt(tr->code[tpc], DeoptReason::kSmcWrite);

    case Tier2Exit::kDeoptAnchor: {
      const TInst& anchor = tr->code[tpc];
      return do_deopt(anchor, static_cast<DeoptReason>(anchor.extra));
    }

    case Tier2Exit::kDivZero:
      e_.Fault(ir::kDivByZeroMessage);
      return finish_false();

    case Tier2Exit::kDivOverflow:
      e_.Fault(ir::kDivOverflowMessage);
      return finish_false();
  }
  POLY_UNREACHABLE("bad tier-2 exit status");
}

}  // namespace polynima::exec

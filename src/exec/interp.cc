// Tier-0 execution: the reference IR interpreter (DESIGN.md §4f).
//
// Hosts Engine::StepInstruction — one IR instruction per call — and the
// intrinsic handler. The body is instantiated twice: the <true> variant
// carries the per-instruction observability hooks (guest profile, exec.*
// counters), the <false> variant compiles them out entirely, so unobserved
// runs pay no per-instruction null checks in the dispatch loop.
#include "src/exec/interp.h"

#include <functional>

#include "src/exec/engine.h"
#include "src/exec/tier1.h"
#include "src/ir/semantics.h"
#include "src/support/check.h"
#include "src/support/strings.h"

namespace polynima::exec {

using ir::BasicBlock;
using ir::Instruction;
using ir::Intrinsic;
using ir::Op;

namespace {

// Two independent 32-bit lanes of a packed SSE op (paddd/psubd/pmulld).
template <typename LaneOp>
uint64_t PackedLanes32(uint64_t a, uint64_t b, LaneOp op) {
  auto lane = [&](int shift) {
    return uint64_t{op(static_cast<uint32_t>(a >> shift),
                       static_cast<uint32_t>(b >> shift))}
           << shift;
  };
  return lane(0) | lane(32);
}

}  // namespace

bool InterpreterBackend::Step(Thread& t, StepMode /*mode*/) {
  return e_.StepInstruction(t);
}

bool Engine::StepInstruction(Thread& t) {
  return obs_attached_ ? StepInstructionImpl<true>(t)
                       : StepInstructionImpl<false>(t);
}

template <bool kObs>
bool Engine::StepInstructionImpl(Thread& t) {
  // Index, not reference: intrinsics (qsort callbacks) may push frames and
  // reallocate the stack vector.
  const size_t frame_index = t.stack.size() - 1;
  Frame& f = t.stack.back();
  POLY_CHECK(f.it != f.block->insts().end())
      << "fell off block " << f.block->name();
  const Instruction& inst = **f.it;
  if constexpr (kObs) {
    if (options_.obs.profile != nullptr) {
      options_.obs.profile->AddInstrs(f.profile_site, 1);
    }
    if (tierprof_ != nullptr) {
      ++f.info->tp_steps[0];  // tier-0 residency attribution
    }
  }
  // Copy: `f` may dangle after a call pushes a frame (vector reallocation).
  const FuncInfo* info = f.info;
  uint64_t cost = costs_.alu;
  bool advance = true;

  switch (inst.op()) {
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kSDiv:
    case Op::kSRem:
    case Op::kUDiv:
    case Op::kURem:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kShl:
    case Op::kLShr:
    case Op::kAShr: {
      ir::BinaryResult r = ir::EvalBinary(inst.op(), Eval(f, inst.operand(0)),
                                          Eval(f, inst.operand(1)));
      if (!r.ok()) {
        Fault(ir::DivFaultMessage(r.fault));
        return false;
      }
      f.values[static_cast<size_t>(inst.id)] = r.value;
      cost = AluBaseCost(inst.op(), costs_);
      break;
    }

    case Op::kICmp:
      f.values[static_cast<size_t>(inst.id)] = ir::EvalPred(
          inst.pred, Eval(f, inst.operand(0)), Eval(f, inst.operand(1)));
      break;

    case Op::kSelect: {
      uint64_t c = Eval(f, inst.operand(0));
      f.values[static_cast<size_t>(inst.id)] =
          c != 0 ? Eval(f, inst.operand(1)) : Eval(f, inst.operand(2));
      break;
    }

    case Op::kSExt:
      f.values[static_cast<size_t>(inst.id)] =
          ir::SignExtend(Eval(f, inst.operand(0)), inst.width);
      break;

    case Op::kLoad: {
      uint64_t addr = Eval(f, inst.operand(0));
      RecordAccess(&inst, t, addr);
      f.values[static_cast<size_t>(inst.id)] = memory_.Read(addr, inst.size);
      cost = costs_.mem_access;
      break;
    }
    case Op::kStore: {
      uint64_t addr = Eval(f, inst.operand(0));
      RecordAccess(&inst, t, addr);
      memory_.Write(addr, inst.size,
                    ir::MaskBytes(Eval(f, inst.operand(1)), inst.size));
      cost = costs_.mem_access;
      break;
    }

    case Op::kGlobalLoad:
      f.values[static_cast<size_t>(inst.id)] = GlobalSlot(t, inst.global);
      cost = costs_.global_access;
      break;
    case Op::kGlobalStore:
      GlobalSlot(t, inst.global) = Eval(f, inst.operand(0));
      cost = costs_.global_access;
      break;

    case Op::kBr: {
      BasicBlock* target;
      if (inst.num_operands() == 0) {
        target = inst.targets[0];
      } else {
        target = Eval(f, inst.operand(0)) != 0 ? inst.targets[0]
                                               : inst.targets[1];
      }
      EnterBlock(f, target);
      advance = false;
      cost = costs_.branch;
      break;
    }

    case Op::kSwitch: {
      uint64_t v = Eval(f, inst.operand(0));
      BasicBlock* target = inst.targets[0];
      for (size_t i = 0; i < inst.case_values.size(); ++i) {
        if (static_cast<uint64_t>(inst.case_values[i]) == v) {
          target = inst.targets[i + 1];
          break;
        }
      }
      EnterBlock(f, target);
      advance = false;
      cost = SwitchCost(inst.case_values.size());
      break;
    }

    case Op::kRet: {
      uint64_t value =
          inst.num_operands() > 0 ? Eval(f, inst.operand(0)) : 0;
      bool was_root = f.dispatch_root;
      t.stack.pop_back();
      cost = costs_.ret;
      if (t.stack.empty() || was_root) {
        t.pending_pc = value;
        t.last_toplevel_pc = value;
      } else {
        Frame& caller = t.stack.back();
        if (caller.translated) {
          // Cross-tier return: the caller is parked on a tier-1 kCall.
          const Translation& tr = *caller.info->translation;
          const TInst& call = tr.code[caller.tpc];
          POLY_CHECK(call.op == TOp::kCall);
          if (call.dst != kNoDst) {
            caller.values[call.dst] = value;
          }
          ++caller.tpc;
        } else {
          const Instruction& call_inst = **caller.it;
          POLY_CHECK(call_inst.op() == Op::kCall);
          if (call_inst.HasResult()) {
            caller.values[static_cast<size_t>(call_inst.id)] = value;
          }
          ++caller.it;
        }
      }
      advance = false;
      break;
    }

    case Op::kUnreachable:
      Fault(StrCat("unreachable executed in @", f.info->fn->name()));
      return false;

    case Op::kCall: {
      if (inst.callee != nullptr) {
        PushFrame(t, InfoFor(inst.callee), /*dispatch_root=*/false);
        cost = costs_.call;
        advance = false;  // the matching ret advances the caller
        break;
      }
      if (!HandleIntrinsic(t, frame_index, inst)) {
        return !faulted_ && miss_ == std::nullopt;
      }
      // HandleIntrinsic may request a retry (blocking external).
      if (retry_pending_) {
        retry_pending_ = false;
        last_step_retried_ = true;
        advance = false;
      }
      cost = 0;  // intrinsics charge their own cost
      break;
    }

    case Op::kPhi:
      // Materialized at block entry.
      cost = costs_.phi;
      break;

    case Op::kFence:
      if constexpr (kObs) {
        if (options_.obs.profile != nullptr) {
          options_.obs.profile->AddFence(f.profile_site);
        }
        options_.obs.Add(obs::Counter::kExecFences);
      }
      cost = costs_.fence;
      break;

    case Op::kAtomicRmw: {
      uint64_t addr = Eval(f, inst.operand(0));
      uint64_t operand = Eval(f, inst.operand(1));
      RecordAccess(&inst, t, addr);
      uint64_t old = memory_.Read(addr, inst.size);
      uint64_t r = ir::ApplyRmw(inst.rmw_op, old, operand);
      memory_.Write(addr, inst.size, ir::MaskBytes(r, inst.size));
      f.values[static_cast<size_t>(inst.id)] = old;
      if constexpr (kObs) {
        if (options_.obs.profile != nullptr) {
          options_.obs.profile->AddAtomic(f.profile_site);
        }
        options_.obs.Add(obs::Counter::kExecAtomics);
      }
      cost = costs_.atomic;
      break;
    }

    case Op::kCmpXchg: {
      uint64_t addr = Eval(f, inst.operand(0));
      uint64_t expected = ir::MaskBytes(Eval(f, inst.operand(1)), inst.size);
      uint64_t desired = Eval(f, inst.operand(2));
      RecordAccess(&inst, t, addr);
      uint64_t old = memory_.Read(addr, inst.size);
      if (old == expected) {
        memory_.Write(addr, inst.size, ir::MaskBytes(desired, inst.size));
      }
      f.values[static_cast<size_t>(inst.id)] = old;
      if constexpr (kObs) {
        if (options_.obs.profile != nullptr) {
          options_.obs.profile->AddAtomic(f.profile_site);
        }
        options_.obs.Add(obs::Counter::kExecAtomics);
      }
      cost = costs_.atomic;
      break;
    }
  }

  // Address arithmetic feeding only memory operands is free: the native
  // backend folds it into x86 addressing modes.
  if (inst.id >= 0 && info->fold_by_id[static_cast<size_t>(inst.id)] != 0) {
    cost = 0;
  } else if (options_.cost_jitter) {
    cost += t.jitter_rng.Next() & 1;
  }
  t.clock += cost;
  if (advance) {
    ++t.stack[frame_index].it;
  }
  return true;
}

template bool Engine::StepInstructionImpl<true>(Thread& t);
template bool Engine::StepInstructionImpl<false>(Thread& t);

bool Engine::HandleIntrinsic(Thread& t, size_t frame_index,
                             const Instruction& inst) {
  // Re-fetch the frame on every use: nested dispatch may reallocate.
  auto frame = [&]() -> Frame& { return t.stack[frame_index]; };
  auto set_result = [&](uint64_t v) {
    if (inst.HasResult()) {
      frame().values[static_cast<size_t>(inst.id)] = v;
    }
  };
  Frame& f = frame();  // valid until a nested dispatch occurs
  auto arg = [&](int i) { return Eval(f, inst.operand(i)); };
  // A packed lane op. The simd_* forms (first-class SIMD translation, §5.3)
  // lower back to one packed instruction, so they cost like one.
  auto lanes = [&](auto op, uint64_t cost) {
    set_result(PackedLanes32(arg(0), arg(1), op));
    t.clock += cost;
    return true;
  };

  switch (inst.intrinsic) {
    case Intrinsic::kExtCall: {
      uint64_t slot = arg(0);
      if (slot >= program_.externals.size()) {
        Fault(StrCat("ext_call to unmapped slot ", slot));
        return false;
      }
      t.clock += costs_.ext_marshal;
      options_.obs.Add(obs::Counter::kExecExtCalls);
      vm::ExtResult result = library_->Call(program_.externals[slot], *this);
      switch (result.status) {
        case vm::ExtStatus::kDone:
          set_result(0);
          return true;
        case vm::ExtStatus::kBlock:
          retry_pending_ = true;
          return true;
        case vm::ExtStatus::kFault:
          Fault(StrCat("external ", program_.externals[slot], ": ",
                       result.fault_message));
          return false;
      }
      return false;
    }
    case Intrinsic::kCfmiss: {
      uint64_t target = arg(0);
      uint64_t transfer = arg(1);
      miss_ = MissInfo{transfer, target};
      Fault(StrCat("control flow miss: ", HexString(transfer), " -> ",
                   HexString(target)));
      return false;
    }
    case Intrinsic::kTrap:
      Fault(StrCat("lifted trap at ", HexString(arg(0))));
      return false;
    case Intrinsic::kParity:
      set_result((__builtin_popcountll(arg(0) & 0xff) % 2) == 0 ? 1 : 0);
      t.clock += 1;
      return true;
    case Intrinsic::kPause:
      t.clock += 4;
      set_result(0);
      return true;
    case Intrinsic::kHelperPaddd:
      return lanes(std::plus<uint32_t>(), costs_.helper);
    case Intrinsic::kHelperPsubd:
      return lanes(std::minus<uint32_t>(), costs_.helper);
    case Intrinsic::kHelperPmulld:
      return lanes(std::multiplies<uint32_t>(), costs_.helper);
    case Intrinsic::kSimdPaddd:
      return lanes(std::plus<uint32_t>(), costs_.alu);
    case Intrinsic::kSimdPsubd:
      return lanes(std::minus<uint32_t>(), costs_.alu);
    case Intrinsic::kSimdPmulld:
      return lanes(std::multiplies<uint32_t>(), costs_.alu);
    case Intrinsic::kHelperMulh: {
      __int128 full = static_cast<__int128>(static_cast<int64_t>(arg(0))) *
                      static_cast<__int128>(static_cast<int64_t>(arg(1)));
      set_result(static_cast<uint64_t>(full >> 64));
      t.clock += costs_.helper;
      return true;
    }
    case Intrinsic::kHelperSdiv128:
    case Intrinsic::kHelperSrem128: {
      const ir::BinaryResult r =
          ir::SDiv128(arg(0), arg(1), arg(2),
                      inst.intrinsic == Intrinsic::kHelperSrem128);
      if (!r.ok()) {
        Fault(ir::DivFaultMessage(r.fault));
        return false;
      }
      set_result(r.value);
      t.clock += costs_.helper + 20;
      return true;
    }
    case Intrinsic::kGlobalLock:
      if (global_lock_owner_ != -1 && global_lock_owner_ != t.id) {
        retry_pending_ = true;
        t.clock += 10;
        return true;
      }
      global_lock_owner_ = t.id;
      set_result(0);
      t.clock += 8;
      return true;
    case Intrinsic::kGlobalUnlock:
      global_lock_owner_ = -1;
      set_result(0);
      t.clock += 8;
      return true;
  }
  POLY_UNREACHABLE("intrinsic out of range");
}

}  // namespace polynima::exec

#include "src/vm/vm.h"

#include <algorithm>

#include "src/support/check.h"
#include "src/support/strings.h"
#include "src/x86/printer.h"

namespace polynima::vm {

using binary::kCallbackReturnMagic;
using binary::kProgramExitMagic;
using binary::kThreadExitMagic;
using x86::Cond;
using x86::Flag;
using x86::Inst;
using x86::MemRef;
using x86::Mnemonic;
using x86::Operand;
using x86::Reg;

namespace {

constexpr uint64_t kThreadStackSize = 1 << 20;  // 1 MiB per thread

uint64_t MaskSize(uint64_t v, int size) {
  if (size >= 8) {
    return v;
  }
  return v & ((uint64_t{1} << (size * 8)) - 1);
}

int64_t SignExtend(uint64_t v, int size) {
  switch (size) {
    case 1:
      return static_cast<int8_t>(v);
    case 2:
      return static_cast<int16_t>(v);
    case 4:
      return static_cast<int32_t>(v);
    default:
      return static_cast<int64_t>(v);
  }
}

bool SignBit(uint64_t v, int size) {
  return ((v >> (size * 8 - 1)) & 1) != 0;
}

bool Parity8(uint64_t v) {
  return (__builtin_popcountll(v & 0xff) % 2) == 0;
}

bool IsSimpleRmw(Mnemonic m) {
  switch (m) {
    case Mnemonic::kAdd:
    case Mnemonic::kSub:
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kXor:
    case Mnemonic::kInc:
    case Mnemonic::kDec:
    case Mnemonic::kNeg:
    case Mnemonic::kNot:
      return true;
    default:
      return false;
  }
}

}  // namespace

Vm::Vm(const binary::Image& image, ExternalLibrary* library, VmOptions options)
    : image_(image), library_(library), options_(options), rng_(options.seed) {
  for (const binary::Segment& seg : image_.segments) {
    memory_.MapSegment(seg.address, seg.bytes, seg.Writable());
  }
  memory_.AllowRegion(binary::kHeapBase, binary::kHeapLimit, /*writable=*/true);
  memory_.AllowRegion(binary::kStackRegionBase, binary::kStackRegionLimit,
                      /*writable=*/true);
}

Vm::Thread& Vm::CreateThread(uint64_t entry, uint64_t arg0, uint64_t arg1,
                             uint64_t exit_magic) {
  auto thread = std::make_unique<Thread>();
  thread->id = static_cast<int>(threads_.size());
  uint64_t stack_low = binary::kStackRegionBase +
                       static_cast<uint64_t>(thread->id) * kThreadStackSize;
  POLY_CHECK_LT(stack_low + kThreadStackSize, binary::kStackRegionLimit)
      << "too many threads";
  uint64_t stack_top = stack_low + kThreadStackSize;
  // ABI alignment: rsp % 16 == 8 at function entry.
  thread->cpu.gpr[static_cast<int>(Reg::kRsp)] = stack_top - 8;
  memory_.Write(stack_top - 8, 8, exit_magic);
  thread->cpu.gpr[static_cast<int>(Reg::kRdi)] = arg0;
  thread->cpu.gpr[static_cast<int>(Reg::kRsi)] = arg1;
  thread->cpu.rip = entry;
  threads_.push_back(std::move(thread));
  return *threads_.back();
}

const Inst* Vm::DecodeAt(uint64_t addr) {
  auto it = decode_cache_.find(addr);
  if (it != decode_cache_.end()) {
    return &it->second;
  }
  std::vector<uint8_t> bytes = image_.ReadBytes(addr, 16);
  if (bytes.empty()) {
    return nullptr;
  }
  auto inst = x86::Decode(bytes, addr);
  if (!inst.ok()) {
    return nullptr;
  }
  return &decode_cache_.emplace(addr, *inst).first->second;
}

void Vm::Fault(std::string message, uint64_t pc) {
  if (!faulted_) {
    faulted_ = true;
    fault_message_ = std::move(message);
    fault_pc_ = pc;
    options_.obs.Add(obs::Counter::kVmFaults);
  }
}

void Vm::ReportTransfer(TransferEvent::Kind kind, bool indirect, uint64_t from,
                        uint64_t to, int tid) {
  if (transfer_hook_) {
    transfer_hook_({kind, indirect, from, to, tid});
  }
}

uint64_t Vm::EffectiveAddress(const Thread& t, const MemRef& mem,
                              const Inst& inst) const {
  if (mem.rip_relative) {
    return inst.Next() + static_cast<uint64_t>(static_cast<int64_t>(mem.disp));
  }
  uint64_t addr = static_cast<uint64_t>(static_cast<int64_t>(mem.disp));
  if (mem.base != Reg::kNone) {
    addr += t.cpu.gpr[static_cast<int>(mem.base)];
  }
  if (mem.index != Reg::kNone) {
    addr += t.cpu.gpr[static_cast<int>(mem.index)] * mem.scale;
  }
  return addr;
}

uint64_t Vm::ReadOperand(Thread& t, const Operand& op, int size,
                         const Inst& inst) {
  switch (op.kind) {
    case Operand::Kind::kReg:
      return MaskSize(t.cpu.gpr[static_cast<int>(op.reg)], size);
    case Operand::Kind::kImm:
      return MaskSize(static_cast<uint64_t>(op.imm), size);
    case Operand::Kind::kMem:
      return memory_.Read(EffectiveAddress(t, op.mem, inst), size);
    default:
      POLY_UNREACHABLE("bad read operand");
  }
}

void Vm::WriteOperand(Thread& t, const Operand& op, int size, uint64_t v,
                      const Inst& inst) {
  if (op.is_reg()) {
    uint64_t& r = t.cpu.gpr[static_cast<int>(op.reg)];
    switch (size) {
      case 8:
        r = v;
        break;
      case 4:
        r = v & 0xffffffffull;  // 32-bit writes zero the upper half
        break;
      case 2:
        r = (r & ~uint64_t{0xffff}) | (v & 0xffff);
        break;
      case 1:
        r = (r & ~uint64_t{0xff}) | (v & 0xff);
        break;
      default:
        POLY_UNREACHABLE("bad write size");
    }
    return;
  }
  POLY_CHECK(op.is_mem());
  memory_.Write(EffectiveAddress(t, op.mem, inst), size, MaskSize(v, size));
}

namespace {

void SetLogicFlags(CpuState& cpu, uint64_t r, int size) {
  cpu.flags[static_cast<int>(Flag::kCarry)] = false;
  cpu.flags[static_cast<int>(Flag::kOverflow)] = false;
  cpu.flags[static_cast<int>(Flag::kZero)] = MaskSize(r, size) == 0;
  cpu.flags[static_cast<int>(Flag::kSign)] = SignBit(r, size);
  cpu.flags[static_cast<int>(Flag::kParity)] = Parity8(r);
}

void SetAddFlags(CpuState& cpu, uint64_t a, uint64_t b, uint64_t r, int size) {
  a = MaskSize(a, size);
  b = MaskSize(b, size);
  r = MaskSize(r, size);
  cpu.flags[static_cast<int>(Flag::kCarry)] = r < a;
  cpu.flags[static_cast<int>(Flag::kOverflow)] =
      SignBit((a ^ r) & (b ^ r), size);
  cpu.flags[static_cast<int>(Flag::kZero)] = r == 0;
  cpu.flags[static_cast<int>(Flag::kSign)] = SignBit(r, size);
  cpu.flags[static_cast<int>(Flag::kParity)] = Parity8(r);
}

void SetSubFlags(CpuState& cpu, uint64_t a, uint64_t b, uint64_t r, int size) {
  a = MaskSize(a, size);
  b = MaskSize(b, size);
  r = MaskSize(r, size);
  cpu.flags[static_cast<int>(Flag::kCarry)] = a < b;
  cpu.flags[static_cast<int>(Flag::kOverflow)] =
      SignBit((a ^ b) & (a ^ r), size);
  cpu.flags[static_cast<int>(Flag::kZero)] = r == 0;
  cpu.flags[static_cast<int>(Flag::kSign)] = SignBit(r, size);
  cpu.flags[static_cast<int>(Flag::kParity)] = Parity8(r);
}

bool CondHolds(const CpuState& cpu, Cond cond) {
  const bool cf = cpu.flags[static_cast<int>(Flag::kCarry)];
  const bool pf = cpu.flags[static_cast<int>(Flag::kParity)];
  const bool zf = cpu.flags[static_cast<int>(Flag::kZero)];
  const bool sf = cpu.flags[static_cast<int>(Flag::kSign)];
  const bool of = cpu.flags[static_cast<int>(Flag::kOverflow)];
  switch (cond) {
    case Cond::kO:
      return of;
    case Cond::kNo:
      return !of;
    case Cond::kB:
      return cf;
    case Cond::kAe:
      return !cf;
    case Cond::kE:
      return zf;
    case Cond::kNe:
      return !zf;
    case Cond::kBe:
      return cf || zf;
    case Cond::kA:
      return !cf && !zf;
    case Cond::kS:
      return sf;
    case Cond::kNs:
      return !sf;
    case Cond::kP:
      return pf;
    case Cond::kNp:
      return !pf;
    case Cond::kL:
      return sf != of;
    case Cond::kGe:
      return sf == of;
    case Cond::kLe:
      return zf || (sf != of);
    case Cond::kG:
      return !zf && (sf == of);
    case Cond::kNone:
      break;
  }
  POLY_UNREACHABLE("bad cond");
}

}  // namespace

bool Vm::ExecuteInst(Thread& t, const Inst& inst) {
  CpuState& cpu = t.cpu;
  const int size = inst.size;
  uint64_t next_rip = inst.Next();
  uint64_t cost = costs_.base;
  for (int i = 0; i < inst.num_ops; ++i) {
    if (inst.ops[i].is_mem()) {
      cost += costs_.mem_access;
    }
  }
  if (inst.lock) {
    cost += costs_.lock_extra;
    options_.obs.Add(obs::Counter::kVmAtomics);
  }

  // Precise race mode: split plain RMW-on-memory instructions into a load
  // step and a compute+store step with a scheduling point between them.
  const bool split_rmw = options_.precise_races && !inst.lock &&
                         inst.num_ops >= 1 && inst.ops[0].is_mem() &&
                         IsSimpleRmw(inst.mnemonic);
  if (split_rmw && !t.rmw_pending) {
    t.rmw_pending = true;
    t.rmw_addr = EffectiveAddress(t, inst.ops[0].mem, inst);
    t.rmw_loaded = memory_.Read(t.rmw_addr, size);
    t.clock += costs_.base + costs_.mem_access;
    // rip unchanged: the second half executes on the next scheduling turn.
    return true;
  }

  switch (inst.mnemonic) {
    case Mnemonic::kMov: {
      uint64_t v = ReadOperand(t, inst.ops[1], size, inst);
      WriteOperand(t, inst.ops[0], size, v, inst);
      break;
    }
    case Mnemonic::kMovzx: {
      uint64_t v = ReadOperand(t, inst.ops[1], inst.src_size, inst);
      WriteOperand(t, inst.ops[0], size, v, inst);
      break;
    }
    case Mnemonic::kMovsx: {
      uint64_t v = ReadOperand(t, inst.ops[1], inst.src_size, inst);
      WriteOperand(t, inst.ops[0], size,
                   static_cast<uint64_t>(SignExtend(v, inst.src_size)), inst);
      break;
    }
    case Mnemonic::kLea: {
      uint64_t addr = EffectiveAddress(t, inst.ops[1].mem, inst);
      WriteOperand(t, inst.ops[0], size, addr, inst);
      cost = costs_.base;  // lea performs no memory access
      break;
    }

    case Mnemonic::kAdd:
    case Mnemonic::kSub:
    case Mnemonic::kAnd:
    case Mnemonic::kOr:
    case Mnemonic::kXor: {
      uint64_t a;
      if (split_rmw && t.rmw_pending) {
        a = t.rmw_loaded;
        t.rmw_pending = false;
      } else {
        a = ReadOperand(t, inst.ops[0], size, inst);
      }
      uint64_t b = ReadOperand(t, inst.ops[1], size, inst);
      uint64_t r = 0;
      switch (inst.mnemonic) {
        case Mnemonic::kAdd:
          r = a + b;
          SetAddFlags(cpu, a, b, r, size);
          break;
        case Mnemonic::kSub:
          r = a - b;
          SetSubFlags(cpu, a, b, r, size);
          break;
        case Mnemonic::kAnd:
          r = a & b;
          SetLogicFlags(cpu, MaskSize(r, size), size);
          break;
        case Mnemonic::kOr:
          r = a | b;
          SetLogicFlags(cpu, MaskSize(r, size), size);
          break;
        default:
          r = a ^ b;
          SetLogicFlags(cpu, MaskSize(r, size), size);
          break;
      }
      WriteOperand(t, inst.ops[0], size, r, inst);
      if (inst.ops[0].is_mem()) {
        cost += costs_.mem_access;  // RMW touches memory twice
      }
      break;
    }

    case Mnemonic::kCmp: {
      uint64_t a = ReadOperand(t, inst.ops[0], size, inst);
      uint64_t b = ReadOperand(t, inst.ops[1], size, inst);
      SetSubFlags(cpu, a, b, a - b, size);
      break;
    }
    case Mnemonic::kTest: {
      uint64_t a = ReadOperand(t, inst.ops[0], size, inst);
      uint64_t b = ReadOperand(t, inst.ops[1], size, inst);
      SetLogicFlags(cpu, MaskSize(a & b, size), size);
      break;
    }

    case Mnemonic::kInc:
    case Mnemonic::kDec: {
      uint64_t a;
      if (split_rmw && t.rmw_pending) {
        a = t.rmw_loaded;
        t.rmw_pending = false;
      } else {
        a = ReadOperand(t, inst.ops[0], size, inst);
      }
      bool saved_cf = cpu.flags[static_cast<int>(Flag::kCarry)];
      uint64_t r;
      if (inst.mnemonic == Mnemonic::kInc) {
        r = a + 1;
        SetAddFlags(cpu, a, 1, r, size);
      } else {
        r = a - 1;
        SetSubFlags(cpu, a, 1, r, size);
      }
      cpu.flags[static_cast<int>(Flag::kCarry)] = saved_cf;  // inc/dec keep CF
      WriteOperand(t, inst.ops[0], size, r, inst);
      if (inst.ops[0].is_mem()) {
        cost += costs_.mem_access;
      }
      break;
    }

    case Mnemonic::kNeg:
    case Mnemonic::kNot: {
      uint64_t a;
      if (split_rmw && t.rmw_pending) {
        a = t.rmw_loaded;
        t.rmw_pending = false;
      } else {
        a = ReadOperand(t, inst.ops[0], size, inst);
      }
      uint64_t r;
      if (inst.mnemonic == Mnemonic::kNeg) {
        r = 0 - a;
        SetSubFlags(cpu, 0, a, r, size);
        cpu.flags[static_cast<int>(Flag::kCarry)] = MaskSize(a, size) != 0;
      } else {
        r = ~a;  // not does not affect flags
      }
      WriteOperand(t, inst.ops[0], size, r, inst);
      if (inst.ops[0].is_mem()) {
        cost += costs_.mem_access;
      }
      break;
    }

    case Mnemonic::kImul: {
      uint64_t a, b;
      if (inst.num_ops == 3) {
        a = ReadOperand(t, inst.ops[1], size, inst);
        b = ReadOperand(t, inst.ops[2], size, inst);
      } else {
        a = ReadOperand(t, inst.ops[0], size, inst);
        b = ReadOperand(t, inst.ops[1], size, inst);
      }
      __int128 full = static_cast<__int128>(SignExtend(a, size)) *
                      static_cast<__int128>(SignExtend(b, size));
      uint64_t r = static_cast<uint64_t>(full);
      bool overflow = full != static_cast<__int128>(SignExtend(r, size));
      WriteOperand(t, inst.ops[0], size, r, inst);
      cpu.flags[static_cast<int>(Flag::kCarry)] = overflow;
      cpu.flags[static_cast<int>(Flag::kOverflow)] = overflow;
      cpu.flags[static_cast<int>(Flag::kZero)] = MaskSize(r, size) == 0;
      cpu.flags[static_cast<int>(Flag::kSign)] = SignBit(r, size);
      cpu.flags[static_cast<int>(Flag::kParity)] = Parity8(r);
      cost += costs_.mul_extra;
      break;
    }

    case Mnemonic::kIdiv: {
      uint64_t rax = cpu.gpr[static_cast<int>(Reg::kRax)];
      uint64_t rdx = cpu.gpr[static_cast<int>(Reg::kRdx)];
      int64_t divisor = SignExtend(ReadOperand(t, inst.ops[0], size, inst), size);
      if (divisor == 0) {
        Fault("divide by zero", inst.address);
        return false;
      }
      __int128 dividend;
      if (size == 8) {
        dividend = (static_cast<__int128>(static_cast<int64_t>(rdx)) << 64) |
                   static_cast<__int128>(rax);
      } else {
        dividend = static_cast<__int128>(
            (static_cast<int64_t>(MaskSize(rdx, 4)) << 32) |
            static_cast<int64_t>(MaskSize(rax, 4)));
      }
      // -2^127 / -1 overflows __int128 itself, so it is tested before
      // dividing; every other quotient is range-checked after.
      if (size == 8 && divisor == -1 && rdx == uint64_t{1} << 63 && rax == 0) {
        Fault("integer division overflow", inst.address);
        return false;
      }
      __int128 q = dividend / divisor;
      __int128 rem = dividend % divisor;
      bool overflow = size == 8
                          ? (q > INT64_MAX || q < INT64_MIN)
                          : (q > INT32_MAX || q < INT32_MIN);
      if (overflow) {
        Fault("integer division overflow", inst.address);
        return false;
      }
      WriteOperand(t, Operand::R(Reg::kRax), size, static_cast<uint64_t>(q),
                   inst);
      WriteOperand(t, Operand::R(Reg::kRdx), size, static_cast<uint64_t>(rem),
                   inst);
      cost += costs_.div_extra;
      break;
    }

    case Mnemonic::kCqo: {
      uint64_t rax = cpu.gpr[static_cast<int>(Reg::kRax)];
      if (size == 8) {
        cpu.gpr[static_cast<int>(Reg::kRdx)] =
            (rax >> 63) != 0 ? ~uint64_t{0} : 0;
      } else {
        WriteOperand(t, Operand::R(Reg::kRdx), 4,
                     (MaskSize(rax, 4) >> 31) != 0 ? 0xffffffffull : 0, inst);
      }
      break;
    }

    case Mnemonic::kShl:
    case Mnemonic::kShr:
    case Mnemonic::kSar: {
      uint64_t a = ReadOperand(t, inst.ops[0], size, inst);
      uint64_t raw_count = ReadOperand(t, inst.ops[1], 1, inst);
      unsigned count =
          static_cast<unsigned>(raw_count & (size == 8 ? 0x3f : 0x1f));
      if (count == 0) {
        break;  // flags unchanged
      }
      uint64_t r = 0;
      bool cf = false;
      const int bits = size * 8;
      if (inst.mnemonic == Mnemonic::kShl) {
        cf = count <= static_cast<unsigned>(bits) &&
             ((a >> (bits - count)) & 1) != 0;
        r = count >= static_cast<unsigned>(bits) ? 0 : a << count;
      } else if (inst.mnemonic == Mnemonic::kShr) {
        a = MaskSize(a, size);
        cf = ((a >> (count - 1)) & 1) != 0;
        r = count >= static_cast<unsigned>(bits) ? 0 : a >> count;
      } else {
        int64_t sa = SignExtend(a, size);
        cf = ((sa >> (count - 1)) & 1) != 0;
        r = static_cast<uint64_t>(
            count >= static_cast<unsigned>(bits) ? (sa < 0 ? -1 : 0)
                                                 : sa >> count);
      }
      WriteOperand(t, inst.ops[0], size, r, inst);
      cpu.flags[static_cast<int>(Flag::kCarry)] = cf;
      cpu.flags[static_cast<int>(Flag::kZero)] = MaskSize(r, size) == 0;
      cpu.flags[static_cast<int>(Flag::kSign)] = SignBit(r, size);
      cpu.flags[static_cast<int>(Flag::kParity)] = Parity8(r);
      cpu.flags[static_cast<int>(Flag::kOverflow)] = false;
      if (inst.ops[0].is_mem()) {
        cost += costs_.mem_access;
      }
      break;
    }

    case Mnemonic::kPush: {
      uint64_t v = ReadOperand(t, inst.ops[0], 8, inst);
      cpu.gpr[static_cast<int>(Reg::kRsp)] -= 8;
      memory_.Write(cpu.gpr[static_cast<int>(Reg::kRsp)], 8, v);
      cost += costs_.mem_access;
      break;
    }
    case Mnemonic::kPop: {
      uint64_t v = memory_.Read(cpu.gpr[static_cast<int>(Reg::kRsp)], 8);
      cpu.gpr[static_cast<int>(Reg::kRsp)] += 8;
      WriteOperand(t, inst.ops[0], 8, v, inst);
      cost += costs_.mem_access;
      break;
    }

    case Mnemonic::kXchg: {
      // xchg with a memory operand is implicitly locked (indivisible here).
      uint64_t a = ReadOperand(t, inst.ops[0], size, inst);
      uint64_t b = ReadOperand(t, inst.ops[1], size, inst);
      WriteOperand(t, inst.ops[0], size, b, inst);
      WriteOperand(t, inst.ops[1], size, a, inst);
      if (inst.ops[0].is_mem()) {
        // xchg with a memory operand is implicitly locked.
        cost += costs_.mem_access + costs_.lock_extra;
        options_.obs.Add(obs::Counter::kVmAtomics);
      }
      break;
    }

    case Mnemonic::kXadd: {
      uint64_t a = ReadOperand(t, inst.ops[0], size, inst);
      uint64_t b = ReadOperand(t, inst.ops[1], size, inst);
      uint64_t r = a + b;
      SetAddFlags(cpu, a, b, r, size);
      WriteOperand(t, inst.ops[1], size, a, inst);
      WriteOperand(t, inst.ops[0], size, r, inst);
      if (inst.ops[0].is_mem()) {
        cost += costs_.mem_access;
      }
      break;
    }

    case Mnemonic::kCmpxchg: {
      uint64_t acc = MaskSize(cpu.gpr[static_cast<int>(Reg::kRax)], size);
      uint64_t dest = ReadOperand(t, inst.ops[0], size, inst);
      SetSubFlags(cpu, acc, dest, acc - dest, size);
      if (acc == dest) {
        uint64_t src = ReadOperand(t, inst.ops[1], size, inst);
        WriteOperand(t, inst.ops[0], size, src, inst);
      } else {
        WriteOperand(t, Operand::R(Reg::kRax), size, dest, inst);
      }
      if (inst.ops[0].is_mem()) {
        cost += costs_.mem_access;
      }
      break;
    }

    case Mnemonic::kJmp: {
      uint64_t target;
      bool indirect = inst.IsIndirectTransfer();
      if (indirect) {
        target = ReadOperand(t, inst.ops[0], 8, inst);
      } else {
        target = inst.DirectTarget();
      }
      next_rip = target;
      cost += costs_.transfer_extra;
      ReportTransfer(TransferEvent::Kind::kJump, indirect, inst.address,
                     target, t.id);
      break;
    }

    case Mnemonic::kJcc: {
      bool taken = CondHolds(cpu, inst.cond);
      if (taken) {
        next_rip = inst.DirectTarget();
      }
      ReportTransfer(TransferEvent::Kind::kJump, /*indirect=*/false,
                     inst.address, next_rip, t.id);
      break;
    }

    case Mnemonic::kCall: {
      uint64_t target;
      bool indirect = inst.IsIndirectTransfer();
      if (indirect) {
        target = ReadOperand(t, inst.ops[0], 8, inst);
      } else {
        target = inst.DirectTarget();
      }
      cpu.gpr[static_cast<int>(Reg::kRsp)] -= 8;
      memory_.Write(cpu.gpr[static_cast<int>(Reg::kRsp)], 8, inst.Next());
      next_rip = target;
      cost += costs_.mem_access + costs_.transfer_extra;
      ReportTransfer(TransferEvent::Kind::kCall, indirect, inst.address,
                     target, t.id);
      break;
    }

    case Mnemonic::kRet: {
      uint64_t target = memory_.Read(cpu.gpr[static_cast<int>(Reg::kRsp)], 8);
      cpu.gpr[static_cast<int>(Reg::kRsp)] += 8;
      next_rip = target;
      cost += costs_.mem_access + costs_.transfer_extra;
      ReportTransfer(TransferEvent::Kind::kRet, /*indirect=*/true,
                     inst.address, target, t.id);
      break;
    }

    case Mnemonic::kSetcc: {
      WriteOperand(t, inst.ops[0], 1, CondHolds(cpu, inst.cond) ? 1 : 0, inst);
      break;
    }

    case Mnemonic::kCmovcc: {
      uint64_t src = ReadOperand(t, inst.ops[1], size, inst);
      uint64_t dst = ReadOperand(t, inst.ops[0], size, inst);
      // Even a not-taken cmov zero-extends a 32-bit destination.
      WriteOperand(t, inst.ops[0], size, CondHolds(cpu, inst.cond) ? src : dst,
                   inst);
      break;
    }

    case Mnemonic::kNop:
    case Mnemonic::kEndbr64:
      break;
    case Mnemonic::kPause:
      cost = costs_.pause_cost;
      break;
    case Mnemonic::kInt3:
    case Mnemonic::kUd2:
      Fault(StrCat("executed trap instruction ",
                   x86::MnemonicName(inst.mnemonic)),
            inst.address);
      return false;

    case Mnemonic::kMovd: {
      if (inst.ops[0].is_xmm()) {
        uint64_t v = ReadOperand(t, inst.ops[1], size, inst);
        cpu.xmm[inst.ops[0].xmm].lo = MaskSize(v, size);
        cpu.xmm[inst.ops[0].xmm].hi = 0;
      } else {
        WriteOperand(t, inst.ops[0], size, cpu.xmm[inst.ops[1].xmm].lo, inst);
      }
      break;
    }

    case Mnemonic::kMovdqu: {
      if (inst.ops[0].is_xmm()) {
        uint64_t addr = EffectiveAddress(t, inst.ops[1].mem, inst);
        cpu.xmm[inst.ops[0].xmm].lo = memory_.Read(addr, 8);
        cpu.xmm[inst.ops[0].xmm].hi = memory_.Read(addr + 8, 8);
      } else {
        uint64_t addr = EffectiveAddress(t, inst.ops[0].mem, inst);
        memory_.Write(addr, 8, cpu.xmm[inst.ops[1].xmm].lo);
        memory_.Write(addr + 8, 8, cpu.xmm[inst.ops[1].xmm].hi);
      }
      cost += costs_.mem_access;
      break;
    }

    case Mnemonic::kPaddd:
    case Mnemonic::kPsubd:
    case Mnemonic::kPmulld:
    case Mnemonic::kPxor:
    case Mnemonic::kPaddq: {
      CpuState::Xmm& dst = cpu.xmm[inst.ops[0].xmm];
      CpuState::Xmm src;
      if (inst.ops[1].is_xmm()) {
        src = cpu.xmm[inst.ops[1].xmm];
      } else {
        uint64_t addr = EffectiveAddress(t, inst.ops[1].mem, inst);
        src.lo = memory_.Read(addr, 8);
        src.hi = memory_.Read(addr + 8, 8);
      }
      auto lanes = [](uint64_t v) {
        return std::pair<uint32_t, uint32_t>{static_cast<uint32_t>(v),
                                             static_cast<uint32_t>(v >> 32)};
      };
      auto pack = [](uint32_t a, uint32_t b) {
        return static_cast<uint64_t>(a) | (static_cast<uint64_t>(b) << 32);
      };
      switch (inst.mnemonic) {
        case Mnemonic::kPaddd: {
          auto [a0, a1] = lanes(dst.lo);
          auto [a2, a3] = lanes(dst.hi);
          auto [b0, b1] = lanes(src.lo);
          auto [b2, b3] = lanes(src.hi);
          dst.lo = pack(a0 + b0, a1 + b1);
          dst.hi = pack(a2 + b2, a3 + b3);
          break;
        }
        case Mnemonic::kPsubd: {
          auto [a0, a1] = lanes(dst.lo);
          auto [a2, a3] = lanes(dst.hi);
          auto [b0, b1] = lanes(src.lo);
          auto [b2, b3] = lanes(src.hi);
          dst.lo = pack(a0 - b0, a1 - b1);
          dst.hi = pack(a2 - b2, a3 - b3);
          break;
        }
        case Mnemonic::kPmulld: {
          auto [a0, a1] = lanes(dst.lo);
          auto [a2, a3] = lanes(dst.hi);
          auto [b0, b1] = lanes(src.lo);
          auto [b2, b3] = lanes(src.hi);
          dst.lo = pack(a0 * b0, a1 * b1);
          dst.hi = pack(a2 * b2, a3 * b3);
          break;
        }
        case Mnemonic::kPxor:
          dst.lo ^= src.lo;
          dst.hi ^= src.hi;
          break;
        default:  // kPaddq
          dst.lo += src.lo;
          dst.hi += src.hi;
          break;
      }
      break;
    }

    case Mnemonic::kInvalid:
    default:
      Fault("unhandled instruction", inst.address);
      return false;
  }

  if (options_.cost_jitter) {
    cost += rng_.Next() & 1;
  }
  t.clock += cost;
  cpu.rip = next_rip;
  return true;
}

bool Vm::HandleExternal(Thread& t) {
  uint64_t rip = t.cpu.rip;
  uint64_t slot = (rip - binary::kExternalBase) / 16;
  if (slot >= image_.externals.size()) {
    Fault(StrCat("call to unmapped external slot ", slot), rip);
    return false;
  }
  const std::string& name = image_.externals[slot];
  ExtResult result = library_->Call(name, *this);
  switch (result.status) {
    case ExtStatus::kDone: {
      // Perform the return on behalf of the external function.
      uint64_t rsp = t.cpu.gpr[static_cast<int>(Reg::kRsp)];
      t.cpu.rip = memory_.Read(rsp, 8);
      t.cpu.gpr[static_cast<int>(Reg::kRsp)] = rsp + 8;
      return true;
    }
    case ExtStatus::kBlock:
      // Leave rip at the external address: the call is retried when the
      // thread is next scheduled. The handler charged poll cost already.
      return true;
    case ExtStatus::kFault:
      Fault(StrCat("external ", name, ": ", result.fault_message), rip);
      return false;
  }
  POLY_UNREACHABLE("bad external status");
}

bool Vm::Step(Thread& t) {
  uint64_t rip = t.cpu.rip;
  if (binary::IsExternalAddress(rip)) {
    return HandleExternal(t);
  }
  if (rip == kThreadExitMagic) {
    t.finished = true;
    t.retval = t.cpu.gpr[static_cast<int>(Reg::kRax)];
    return true;
  }
  if (rip == kProgramExitMagic) {
    // `int main`: the exit code is the sign-extended low 32 bits of rax.
    RequestExit(static_cast<int32_t>(t.cpu.gpr[static_cast<int>(Reg::kRax)]));
    t.finished = true;
    return true;
  }
  const Inst* inst = DecodeAt(rip);
  if (inst == nullptr) {
    Fault("undecodable or unmapped instruction", rip);
    return false;
  }
  if (step_hook_) {
    step_hook_(*this, *inst, t.id);
  }
  return ExecuteInst(t, *inst);
}

RunResult Vm::Run() {
  POLY_CHECK(threads_.empty()) << "Run() may only be called once";
  CreateThread(image_.entry_point, 0, 0, kProgramExitMagic);

  obs::Span span(options_.obs.trace, "vm", "run");
  while (!exited_ && !faulted_) {
    Thread* best = nullptr;
    for (auto& t : threads_) {
      if (!t->finished && (best == nullptr || t->clock < best->clock)) {
        best = t.get();
      }
    }
    if (best == nullptr) {
      break;  // every thread finished without an explicit exit
    }
    current_ = best->id;
    if (!Step(*best)) {
      break;
    }
    if (memory_.faulted()) {
      Fault(StrCat("memory access violation at ",
                   HexString(memory_.fault_address())),
            best->cpu.rip);
      break;
    }
    if (++steps_ > options_.max_steps) {
      Fault("step limit exceeded (possible deadlock or runaway loop)",
            best->cpu.rip);
      break;
    }
  }
  options_.obs.Add(obs::Counter::kVmInstrs, steps_);
  span.Arg("steps", static_cast<int64_t>(steps_));
  span.End();

  RunResult result;
  result.ok = !faulted_;
  result.exit_code = exit_code_;
  result.fault_message = fault_message_;
  result.fault_pc = fault_pc_;
  result.instructions = steps_;
  result.output = output_;
  for (const auto& t : threads_) {
    result.wall_time = std::max(result.wall_time, t->clock);
  }
  return result;
}

uint64_t Vm::GetArg(int index) {
  static const Reg kArgRegs[6] = {Reg::kRdi, Reg::kRsi, Reg::kRdx,
                                  Reg::kRcx, Reg::kR8,  Reg::kR9};
  POLY_CHECK_LT(index, 6);
  return threads_[static_cast<size_t>(current_)]
      ->cpu.gpr[static_cast<int>(kArgRegs[index])];
}

void Vm::SetResult(uint64_t value) {
  threads_[static_cast<size_t>(current_)]->cpu.gpr[static_cast<int>(Reg::kRax)] =
      value;
}

int Vm::SpawnThread(uint64_t entry, uint64_t arg0, uint64_t arg1) {
  uint64_t parent_clock = threads_[static_cast<size_t>(current_)]->clock;
  Thread& t = CreateThread(entry, arg0, arg1, kThreadExitMagic);
  t.clock = parent_clock + 100;  // spawn latency
  return t.id;
}

bool Vm::ThreadFinished(int tid, uint64_t* retval) {
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
  // Joining synchronizes clocks: the joiner cannot proceed before the joined
  // thread's last instruction.
  Thread& cur = *threads_[static_cast<size_t>(current_)];
  cur.clock = std::max(cur.clock, t.clock);
  return true;
}

uint64_t Vm::CallGuest(uint64_t entry, std::span<const uint64_t> args) {
  Thread& t = *threads_[static_cast<size_t>(current_)];
  uint64_t saved_rip = t.cpu.rip;
  static const Reg kArgRegs[6] = {Reg::kRdi, Reg::kRsi, Reg::kRdx,
                                  Reg::kRcx, Reg::kR8,  Reg::kR9};
  POLY_CHECK_LE(args.size(), 6u);
  for (size_t i = 0; i < args.size(); ++i) {
    t.cpu.gpr[static_cast<int>(kArgRegs[i])] = args[i];
  }
  t.cpu.gpr[static_cast<int>(Reg::kRsp)] -= 8;
  memory_.Write(t.cpu.gpr[static_cast<int>(Reg::kRsp)], 8,
                kCallbackReturnMagic);
  t.cpu.rip = entry;
  // Synchronous nested execution on the current thread. Other threads do not
  // advance during the callback (callbacks must not block on them).
  while (t.cpu.rip != kCallbackReturnMagic && !faulted_ && !exited_) {
    if (!Step(t)) {
      break;
    }
    if (++steps_ > options_.max_steps) {
      Fault("step limit exceeded inside callback", t.cpu.rip);
      break;
    }
  }
  uint64_t result = t.cpu.gpr[static_cast<int>(Reg::kRax)];
  t.cpu.rip = saved_rip;
  return result;
}

void Vm::AddCost(uint64_t cycles) {
  threads_[static_cast<size_t>(current_)]->clock += cycles;
}

uint64_t Vm::now() { return threads_[static_cast<size_t>(current_)]->clock; }

void Vm::RequestExit(int64_t code) {
  exited_ = true;
  exit_code_ = code;
}

}  // namespace polynima::vm

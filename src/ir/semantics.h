// What each IR operation and intrinsic computes, defined once (DESIGN.md §4,
// item 7).
//
// Every component that evaluates an IR operation goes through these
// functions: the tier-0 interpreter, the tier-1 executor, tier 2's runtime
// helpers, instcombine's constant folder and the icf value-set solver. So
// execution, folding and the proofs sealed into certificates cannot
// disagree. Tier 2's emitter encodes the same rules in x86; the semantics
// property test in tests/exec_tiered_test.cc holds it to this definition.
// Every pass, analysis and executor reads an intrinsic's properties from
// kIntrinsics, and the call-boundary contract from IsCallBoundary.
//
// The rules:
//   - Values are i64 and arithmetic wraps.
//   - Shift counts are unsigned and saturate: shl and lshr by 64 or more
//     give 0, ashr by 64 or more fills with the sign bit.
//   - A division by zero faults, and so does sdiv/srem of INT64_MIN by -1
//     (the quotient overflows). A faulting operation has no value.
//   - sext from `width` bits copies bit width-1 into the bits above it;
//     width 64 (or any width outside 1..63) is the identity.
//   - Loads zero-extend and stores truncate to the access size (MaskBytes).
//   - helper_sdiv128/srem128 divide rdx:rax like x86 idiv, and fault when
//     the divisor is 0 or the quotient does not fit in 64 bits.
#ifndef POLYNIMA_IR_SEMANTICS_H_
#define POLYNIMA_IR_SEMANTICS_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string_view>

#include "src/ir/ir.h"

namespace polynima::ir {

// Why a division has no value.
enum class DivFault : uint8_t { kNone, kByZero, kOverflow };

inline constexpr char kDivByZeroMessage[] = "division by zero in lifted code";
inline constexpr char kDivOverflowMessage[] =
    "division overflow in lifted code";

constexpr const char* DivFaultMessage(DivFault fault) {
  return fault == DivFault::kByZero ? kDivByZeroMessage : kDivOverflowMessage;
}

// A binary operation's value, or the fault that replaces it.
struct BinaryResult {
  uint64_t value = 0;
  DivFault fault = DivFault::kNone;

  constexpr bool ok() const { return fault == DivFault::kNone; }
};

// The binary ops are Op's first block, kAdd..kAShr.
constexpr bool IsBinary(Op op) { return op <= Op::kAShr; }

constexpr uint64_t Add(uint64_t a, uint64_t b) { return a + b; }
constexpr uint64_t Sub(uint64_t a, uint64_t b) { return a - b; }
constexpr uint64_t Mul(uint64_t a, uint64_t b) { return a * b; }
constexpr uint64_t And(uint64_t a, uint64_t b) { return a & b; }
constexpr uint64_t Or(uint64_t a, uint64_t b) { return a | b; }
constexpr uint64_t Xor(uint64_t a, uint64_t b) { return a ^ b; }
constexpr uint64_t Shl(uint64_t a, uint64_t b) { return b >= 64 ? 0 : a << b; }
constexpr uint64_t LShr(uint64_t a, uint64_t b) {
  return b >= 64 ? 0 : a >> b;
}
constexpr uint64_t AShr(uint64_t a, uint64_t b) {
  return static_cast<uint64_t>(static_cast<int64_t>(a) >> (b >= 64 ? 63 : b));
}

constexpr DivFault SignedDivFault(uint64_t a, uint64_t b) {
  if (b == 0) {
    return DivFault::kByZero;
  }
  return static_cast<int64_t>(a) == INT64_MIN && static_cast<int64_t>(b) == -1
             ? DivFault::kOverflow
             : DivFault::kNone;
}
constexpr BinaryResult SDiv(uint64_t a, uint64_t b) {
  if (DivFault fault = SignedDivFault(a, b); fault != DivFault::kNone) {
    return {0, fault};
  }
  return {static_cast<uint64_t>(static_cast<int64_t>(a) /
                                static_cast<int64_t>(b))};
}
constexpr BinaryResult SRem(uint64_t a, uint64_t b) {
  if (DivFault fault = SignedDivFault(a, b); fault != DivFault::kNone) {
    return {0, fault};
  }
  return {static_cast<uint64_t>(static_cast<int64_t>(a) %
                                static_cast<int64_t>(b))};
}
constexpr BinaryResult UDiv(uint64_t a, uint64_t b) {
  return b == 0 ? BinaryResult{0, DivFault::kByZero} : BinaryResult{a / b};
}
constexpr BinaryResult URem(uint64_t a, uint64_t b) {
  return b == 0 ? BinaryResult{0, DivFault::kByZero} : BinaryResult{a % b};
}

// `op` must satisfy IsBinary.
constexpr BinaryResult EvalBinary(Op op, uint64_t a, uint64_t b) {
  switch (op) {
    case Op::kAdd:
      return {Add(a, b)};
    case Op::kSub:
      return {Sub(a, b)};
    case Op::kMul:
      return {Mul(a, b)};
    case Op::kSDiv:
      return SDiv(a, b);
    case Op::kSRem:
      return SRem(a, b);
    case Op::kUDiv:
      return UDiv(a, b);
    case Op::kURem:
      return URem(a, b);
    case Op::kAnd:
      return {And(a, b)};
    case Op::kOr:
      return {Or(a, b)};
    case Op::kXor:
      return {Xor(a, b)};
    case Op::kShl:
      return {Shl(a, b)};
    case Op::kLShr:
      return {LShr(a, b)};
    case Op::kAShr:
      return {AShr(a, b)};
    default:
      POLY_UNREACHABLE("EvalBinary on a non-binary op");
  }
}

// icmp: 1 when `pred` holds, else 0.
constexpr uint64_t EvalPred(Pred pred, uint64_t a, uint64_t b) {
  const int64_t sa = static_cast<int64_t>(a);
  const int64_t sb = static_cast<int64_t>(b);
  switch (pred) {
    case Pred::kEq:
      return a == b;
    case Pred::kNe:
      return a != b;
    case Pred::kSlt:
      return sa < sb;
    case Pred::kSle:
      return sa <= sb;
    case Pred::kSgt:
      return sa > sb;
    case Pred::kSge:
      return sa >= sb;
    case Pred::kUlt:
      return a < b;
    case Pred::kUle:
      return a <= b;
    case Pred::kUgt:
      return a > b;
    case Pred::kUge:
      return a >= b;
  }
  return 0;
}

constexpr uint64_t SignExtend(uint64_t v, int width) {
  if (width <= 0 || width >= 64) {
    return v;
  }
  const int shift = 64 - width;
  return static_cast<uint64_t>(static_cast<int64_t>(v << shift) >> shift);
}

// The value an atomicrmw stores, given the old memory value.
constexpr uint64_t ApplyRmw(RmwOp op, uint64_t old, uint64_t operand) {
  switch (op) {
    case RmwOp::kAdd:
      return old + operand;
    case RmwOp::kSub:
      return old - operand;
    case RmwOp::kAnd:
      return old & operand;
    case RmwOp::kOr:
      return old | operand;
    case RmwOp::kXor:
      return old ^ operand;
    case RmwOp::kXchg:
      return operand;
  }
  return old;
}

// The low `size` bytes of `v`: what a store of that width keeps.
constexpr uint64_t MaskBytes(uint64_t v, int size) {
  return size >= 8 ? v : v & ((uint64_t{1} << (size * 8)) - 1);
}

// An op whose value depends only on its operands and which cannot fault, so
// CSE may merge two alike and DCE may drop one whose value is unused. The
// divisions, kSDiv..kURem, may fault.
constexpr bool IsPure(Op op) {
  const bool division = op >= Op::kSDiv && op <= Op::kURem;
  return (IsBinary(op) && !division) || op == Op::kICmp ||
         op == Op::kSelect || op == Op::kSExt;
}

constexpr bool IsCommutative(Op op) {
  return op == Op::kAdd || op == Op::kMul || op == Op::kAnd ||
         op == Op::kOr || op == Op::kXor;
}

// x86 idiv of rdx:rax (`hi`:`lo`) by `divisor`: the quotient, or with
// `remainder` the remainder.
constexpr BinaryResult SDiv128(uint64_t hi, uint64_t lo, uint64_t divisor,
                               bool remainder) {
  if (divisor == 0) {
    return {0, DivFault::kByZero};
  }
  const __int128 dividend = static_cast<__int128>(
      (static_cast<unsigned __int128>(hi) << 64) | lo);
  const __int128 d = static_cast<int64_t>(divisor);
  // -2^127 / -1 overflows __int128 itself, so it is tested before dividing.
  if (d == -1 && hi == uint64_t{1} << 63 && lo == 0) {
    return {0, DivFault::kOverflow};
  }
  const __int128 quotient = dividend / d;
  if (quotient < INT64_MIN || quotient > INT64_MAX) {
    return {0, DivFault::kOverflow};
  }
  return {static_cast<uint64_t>(remainder ? dividend % d : quotient)};
}

// ---------------------------------------------------------------------------
// Intrinsics
// ---------------------------------------------------------------------------

// How the controlled scheduler treats a call to an intrinsic.
enum class SchedClass : uint8_t {
  kNone,      // thread-private
  kExternal,  // visible and state-changing: may touch memory, locks, threads
  kYield,     // visible spin-wait hint: deprioritize the caller
};

struct IntrinsicInfo {
  const char* name;      // printed after `!`
  bool pure;             // the value depends only on the operands
  bool may_fault;
  bool touches_vcpu;     // reads or writes the virtual CPU state
  bool never_completes;  // leaves the lifted code for good
  SchedClass sched;
};

// One row per Intrinsic, in enumerator order (tests/ir_test.cc pins it).
inline constexpr IntrinsicInfo kIntrinsics[] = {
    // name            pure   fault  vcpu   never  scheduler class
    {"ext_call",       false, true,  true,  false, SchedClass::kExternal},
    {"cfmiss",         false, true,  true,  true,  SchedClass::kNone},
    {"trap",           false, true,  true,  true,  SchedClass::kNone},
    {"parity",         true,  false, false, false, SchedClass::kNone},
    {"pause",          false, false, false, false, SchedClass::kYield},
    {"helper_paddd",   true,  false, false, false, SchedClass::kNone},
    {"helper_psubd",   true,  false, false, false, SchedClass::kNone},
    {"helper_pmulld",  true,  false, false, false, SchedClass::kNone},
    {"simd_paddd",     true,  false, false, false, SchedClass::kNone},
    {"simd_psubd",     true,  false, false, false, SchedClass::kNone},
    {"simd_pmulld",    true,  false, false, false, SchedClass::kNone},
    {"helper_mulh",    true,  false, false, false, SchedClass::kNone},
    {"helper_sdiv128", true,  true,  false, false, SchedClass::kNone},
    {"helper_srem128", true,  true,  false, false, SchedClass::kNone},
    {"global_lock",    false, false, false, false, SchedClass::kExternal},
    {"global_unlock",  false, false, false, false, SchedClass::kExternal},
};
static_assert(std::size(kIntrinsics) ==
              static_cast<size_t>(Intrinsic::kGlobalUnlock) + 1);

constexpr const IntrinsicInfo& InfoOf(Intrinsic intrinsic) {
  return kIntrinsics[static_cast<size_t>(intrinsic)];
}

// `inst` calls `intrinsic`.
inline bool CallsIntrinsic(const Instruction& inst, Intrinsic intrinsic) {
  return inst.op() == Op::kCall && inst.callee == nullptr &&
         inst.intrinsic == intrinsic;
}

// ---------------------------------------------------------------------------
// The call boundary
// ---------------------------------------------------------------------------

// The virtual GPRs the SysV ABI requires a callee to preserve. Guest calls
// and the engine's external dispatch both honour it.
inline constexpr std::string_view kCalleeSavedGprs[] = {
    "vr_rbx", "vr_rbp", "vr_rsp", "vr_r12", "vr_r13", "vr_r14", "vr_r15"};

// The SysV integer argument registers, in call order.
inline constexpr const char* kArgGprs[] = {"vr_rdi", "vr_rsi", "vr_rdx",
                                           "vr_rcx", "vr_r8",  "vr_r9"};

constexpr bool IsCalleeSavedGpr(std::string_view name) {
  return std::ranges::count(kCalleeSavedGprs, name) != 0;
}

// A call boundary: a guest call, or a call to an intrinsic that touches the
// virtual CPU state (ext_call, cfmiss, trap). Of the virtual registers only
// kCalleeSavedGprs survive it; the other GPRs, the flags and the vector
// state do not.
inline bool IsCallBoundary(const Instruction& inst) {
  return inst.op() == Op::kCall &&
         (inst.callee != nullptr || InfoOf(inst.intrinsic).touches_vcpu);
}

// A block the static frontier could not prove reachable and decoded: it
// holds an `unreachable` or calls an intrinsic that never completes.
// Translated code never enters one, and a CfgCert must prove each dead.
inline bool IsUncovered(const BasicBlock& b) {
  return std::ranges::any_of(b.insts(), [](const auto& inst) {
    return inst->op() == Op::kUnreachable ||
           (inst->op() == Op::kCall && inst->callee == nullptr &&
            InfoOf(inst->intrinsic).never_completes);
  });
}

}  // namespace polynima::ir

#endif  // POLYNIMA_IR_SEMANTICS_H_

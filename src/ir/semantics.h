// What each IR operation computes, defined once (DESIGN.md §4, item 7).
//
// Every component that evaluates an IR operation goes through these
// functions: the tier-0 interpreter, the tier-1 executor, tier 2's runtime
// helpers, instcombine's constant folder and the icf value-set solver. So
// execution, folding and the proofs sealed into certificates cannot
// disagree. Tier 2's emitter encodes the same rules in x86; the semantics
// property test in tests/exec_tiered_test.cc holds it to this definition.
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
#ifndef POLYNIMA_IR_SEMANTICS_H_
#define POLYNIMA_IR_SEMANTICS_H_

#include <cstdint>

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

}  // namespace polynima::ir

#endif  // POLYNIMA_IR_SEMANTICS_H_

// Pointer-provenance derivation over lifted IR: the shared core of the
// static concurrency analysis (src/analyze) and the TSO checker's
// re-verification of heap-local elision witnesses (src/check/tso.h).
//
// For every SSA value a RegionDeriver computes an abstract *provenance* —
// which memory regions the value, interpreted as a pointer, may point into:
//
//   stack   derived from the emulated stack pointer (vr_rsp, or vr_rbp in
//           functions the lifter marked frame_pointer);
//   allocs  derived from the result of one of the listed allocation calls
//           (ext_call to malloc/calloc/realloc: the GlobalLoad of vr_rax
//           reached by the call);
//   other   derived from anything else — constant data addresses, incoming
//           register state, values reloaded from memory, call results.
//
// Propagation mirrors the TSO checker's StackDeriver rules (add/sub flow
// from either operand, phi/select join every data operand) but replaces the
// per-block reaching-store chase with a whole-function forward dataflow over
// the virtual GPR globals, so provenance survives loop headers and
// register-promoted locals (`reg_promote`d values). Calls clobber the
// caller-saved GPRs; callee-saved registers (rbx, rbp, r12-r15) and rsp keep
// their provenance across calls per the SysV ABI the lifter targets — mcc
// callees restore them, and a callee that did not would already break the
// guest program itself.
//
// Deliberately lossy (documented over-approximations, DESIGN.md §4e):
//   - kLoad results are at least `other`: a reload may materialize caller
//     state of any provenance. On top of that every load carries the *memory
//     residue* — the join of all provenances stored to provably-private
//     memory (pure-stack spill slots, private heap objects) anywhere in the
//     function. Values stored to any other destination were already escaped
//     at the store, so `other` covers them; the residue keeps a pointer
//     laundered through a spill slot attached to its allocation sites, so
//     the escape sinks still see it when the reload is published. Stack
//     residue is per-slot (keyed by the resolved entry-rsp delta) so that
//     the return-PC load and pops do not inherit every spill; a load whose
//     address has unresolved stack provenance joins every slot.
//   - only add/sub/phi/select/global-load propagate; masked or multiplied
//     pointers degrade to `other`.
// Both directions only ever widen provenance toward `other`, which consumers
// treat as potentially-shared — so the loss is sound for elision decisions.
#ifndef POLYNIMA_CHECK_DERIVE_H_
#define POLYNIMA_CHECK_DERIVE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/ir/ir.h"

namespace polynima::check {

// Abstract provenance of one i64 value. Join-semilattice: bottom is "derived
// from nothing pointer-like" (constants, small integers).
struct Provenance {
  bool stack = false;
  bool other = false;
  // When `stack` is set and `delta_known`, the value is exactly
  // entry-rsp + delta — a resolved frame slot. Joining two different deltas
  // (or any unknown-offset contribution) widens to "some stack address"
  // (delta_known = false). The deriver keys its spill residue on this, so a
  // reload only inherits what was stored at its own slot.
  bool delta_known = false;
  int64_t delta = 0;
  std::set<const ir::Instruction*> allocs;  // allocation ext_call instructions

  bool Bottom() const { return !stack && !other && allocs.empty(); }
  // Purely the emulated stack: eligible for stack-local classification.
  bool PureStack() const { return stack && !other && allocs.empty(); }
  // Purely same-function allocation results: eligible for heap-local
  // classification when every site is proven non-escaping.
  bool PureHeap() const { return !stack && !other && !allocs.empty(); }

  // Joins `o` in; returns true when anything widened.
  bool Join(const Provenance& o);
};

// True for externals whose return value (vr_rax) is a fresh thread-private
// heap object: malloc, calloc, realloc.
bool IsAllocatorExternal(const std::string& name);

// Resolves an ext_call instruction to its external's name ("" when `call` is
// no ext_call, or its slot is not constant or out of table range).
std::string ExternalName(const ir::Instruction& call,
                         const std::vector<std::string>& externals);

class RegionDeriver {
 public:
  // `externals` is the image's slot -> name table (lift::LiftedProgram::
  // externals). With an empty table no ext_call is recognized as an
  // allocator, so no value ever derives a PureHeap provenance — the
  // conservative default for hand-built IR.
  RegionDeriver(const ir::Function& f,
                const std::vector<std::string>& externals);

  // Provenance of `v` at its definition (bottom for constants/arguments).
  const Provenance& ValueOf(const ir::Value* v) const;

  // Provenance held by GPR global `g` immediately BEFORE `inst` executes.
  // Used by escape analysis to inspect argument registers at call sites.
  Provenance GlobalBefore(const ir::Instruction& inst,
                          const ir::Global* g) const;

  // Allocation sites found in the function, in block/program order.
  const std::vector<const ir::Instruction*>& alloc_sites() const {
    return alloc_sites_;
  }

  std::string ExternalName(const ir::Instruction& call) const {
    return check::ExternalName(call, externals_);
  }

 private:
  using GlobalState = std::map<const ir::Global*, Provenance>;

  void Solve();
  // Walks one block from `state`, assigning instruction provenances.
  // Returns true when any provenance widened.
  bool Transfer(const ir::BasicBlock& b, GlobalState state);
  Provenance Eval(const ir::Value* v) const;
  void ApplyCallClobbers(const ir::Instruction& call, GlobalState& state) const;

  const ir::Function& f_;
  const std::vector<std::string>& externals_;
  std::map<const ir::BasicBlock*, GlobalState> block_in_;
  std::map<const ir::Instruction*, Provenance> values_;
  std::vector<const ir::Instruction*> alloc_sites_;
  // Memory residue: join of every provenance stored to a pure-stack spill
  // slot / a private heap object. Folded into load results so a pointer
  // round-tripped through private memory keeps its sites (see file header).
  // Stack-side residue is keyed by the slot's entry-rsp delta when resolved;
  // stores to unresolved stack offsets land in the catch-all, which every
  // stack reload must include.
  std::map<int64_t, Provenance> slot_residue_;
  Provenance stack_unknown_residue_;
  Provenance heap_residue_;
  Provenance bottom_;
};

// Which allocation sites (and whether the emulated-stack frame) escape the
// executing thread. Computed by the one canonical sink walk shared by the
// analyzer (to decide what to stamp) and the TSO checker (to re-verify what
// was stamped) — the two must never diverge, or a valid witness would be
// reported forged.
//
// Sinks: storing a tracked pointer anywhere but the pure stack, holding one
// in an argument register at any call, holding one in vr_rax at a return,
// or using one as an atomic operand. Two refinements keep the walk precise
// without losing soundness: a pointer stored into another *private* heap
// object escapes only if that object escapes (transitive closure), and a
// pointer spilled to the stack escapes only if the frame itself escapes.
struct EscapeFacts {
  std::set<const ir::Instruction*> escaped;  // escaped allocation sites
  std::map<const ir::Instruction*, std::string> reasons;
  bool stack_escaped = false;
  std::string stack_reason;

  bool SiteEscaped(const ir::Instruction* site) const {
    return escaped.count(site) != 0;
  }
};

// Runs the sink walk over `f` using provenance from `deriver` (which must
// have been built over the same function). `m` resolves the virtual
// argument-register globals.
EscapeFacts ComputeEscapeFacts(const ir::Function& f, const ir::Module& m,
                               const RegionDeriver& deriver);

}  // namespace polynima::check

#endif  // POLYNIMA_CHECK_DERIVE_H_

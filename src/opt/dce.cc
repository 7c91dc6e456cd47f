#include "src/ir/semantics.h"
#include "src/opt/passes.h"

namespace polynima::opt {

using ir::Function;
using ir::Instruction;
using ir::Op;

namespace {

// True if the instruction can be removed when its result is unused.
bool IsRemovableWhenDead(const Instruction& inst) {
  switch (inst.op()) {
    case Op::kPhi:
    case Op::kGlobalLoad:
    case Op::kLoad:  // loads in lifted code never fault-for-effect: the
                     // address was computed by the original program
      return true;
    case Op::kCall:
      return inst.callee == nullptr && ir::InfoOf(inst.intrinsic).pure &&
             !ir::InfoOf(inst.intrinsic).may_fault;
    default:
      return ir::IsPure(inst.op());
  }
}

}  // namespace

bool DeadCodeElim(Function& f) {
  bool changed = false;
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& block : f.blocks()) {
      for (auto it = block->insts().begin(); it != block->insts().end();) {
        Instruction* inst = it->get();
        if (inst->HasResult() && inst->users().empty() &&
            IsRemovableWhenDead(*inst)) {
          it = block->Erase(it);
          progress = true;
          changed = true;
          continue;
        }
        ++it;
      }
    }
  }
  return changed;
}

}  // namespace polynima::opt

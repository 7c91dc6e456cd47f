// Local common-subexpression elimination: per-block value numbering of pure
// operations. Lifted code is full of duplicated masks, address computations
// and sign-bit extracts (each x86 operand read re-emits its masking); CSE
// unifies them so identity folds and flag fusion can fire.
#include <map>
#include <tuple>

#include "src/ir/semantics.h"
#include "src/opt/passes.h"

namespace polynima::opt {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Op;
using ir::Value;

namespace {

struct Key {
  Op op;
  int aux;  // pred / width
  const Value* a = nullptr;
  const Value* b = nullptr;
  const Value* c = nullptr;

  bool operator<(const Key& o) const {
    return std::tie(op, aux, a, b, c) <
           std::tie(o.op, o.aux, o.a, o.b, o.c);
  }
};

}  // namespace

bool LocalCse(Function& f) {
  bool changed = false;
  for (auto& block : f.blocks()) {
    std::map<Key, Instruction*> table;
    for (auto it = block->insts().begin(); it != block->insts().end();) {
      Instruction* inst = it->get();
      if (!ir::IsPure(inst->op())) {
        ++it;
        continue;
      }
      Key key;
      key.op = inst->op();
      key.aux = inst->op() == Op::kICmp  ? static_cast<int>(inst->pred)
                : inst->op() == Op::kSExt ? inst->width
                                          : 0;
      key.a = inst->operand(0);
      if (inst->num_operands() > 1) {
        key.b = inst->operand(1);
      }
      if (inst->num_operands() > 2) {
        key.c = inst->operand(2);
      }
      if (ir::IsCommutative(inst->op()) && key.b < key.a) {
        std::swap(key.a, key.b);
      }
      auto hit = table.find(key);
      if (hit != table.end()) {
        inst->ReplaceAllUsesWith(hit->second);
        it = block->Erase(it);
        changed = true;
        continue;
      }
      table.emplace(key, inst);
      ++it;
    }
  }
  return changed;
}

}  // namespace polynima::opt

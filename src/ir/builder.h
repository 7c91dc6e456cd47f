// Convenience builder for emitting IR instructions at the end of a block.
#ifndef POLYNIMA_IR_BUILDER_H_
#define POLYNIMA_IR_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ir/ir.h"

namespace polynima::ir {

class IRBuilder {
 public:
  explicit IRBuilder(Module* module) : module_(module) {}

  void SetInsertBlock(BasicBlock* block) { block_ = block; }
  BasicBlock* block() const { return block_; }
  Module* module() const { return module_; }

  Constant* Const(int64_t v) { return module_->GetConstant(v); }

  Instruction* Binary(Op op, Value* a, Value* b) {
    auto inst = std::make_unique<Instruction>(op);
    inst->AddOperand(a);
    inst->AddOperand(b);
    return block_->Append(std::move(inst));
  }
  Instruction* Add(Value* a, Value* b) { return Binary(Op::kAdd, a, b); }
  Instruction* Sub(Value* a, Value* b) { return Binary(Op::kSub, a, b); }
  Instruction* Mul(Value* a, Value* b) { return Binary(Op::kMul, a, b); }
  Instruction* And(Value* a, Value* b) { return Binary(Op::kAnd, a, b); }
  Instruction* Or(Value* a, Value* b) { return Binary(Op::kOr, a, b); }
  Instruction* Xor(Value* a, Value* b) { return Binary(Op::kXor, a, b); }
  Instruction* Shl(Value* a, Value* b) { return Binary(Op::kShl, a, b); }
  Instruction* LShr(Value* a, Value* b) { return Binary(Op::kLShr, a, b); }
  Instruction* AShr(Value* a, Value* b) { return Binary(Op::kAShr, a, b); }

  Instruction* ICmp(Pred pred, Value* a, Value* b) {
    Instruction* i = Binary(Op::kICmp, a, b);
    i->pred = pred;
    return i;
  }
  Instruction* Select(Value* cond, Value* a, Value* b) {
    auto inst = std::make_unique<Instruction>(Op::kSelect);
    inst->AddOperand(cond);
    inst->AddOperand(a);
    inst->AddOperand(b);
    return block_->Append(std::move(inst));
  }
  Instruction* SExt(Value* v, int from_bits) {
    auto inst = std::make_unique<Instruction>(Op::kSExt);
    inst->AddOperand(v);
    inst->width = from_bits;
    return block_->Append(std::move(inst));
  }

  Instruction* Load(int size, Value* addr) {
    auto inst = std::make_unique<Instruction>(Op::kLoad);
    inst->AddOperand(addr);
    inst->size = size;
    return block_->Append(std::move(inst));
  }
  Instruction* Store(int size, Value* addr, Value* v) {
    auto inst = std::make_unique<Instruction>(Op::kStore);
    inst->AddOperand(addr);
    inst->AddOperand(v);
    inst->size = size;
    return block_->Append(std::move(inst));
  }
  Instruction* GLoad(Global* g) {
    auto inst = std::make_unique<Instruction>(Op::kGlobalLoad);
    inst->global = g;
    return block_->Append(std::move(inst));
  }
  Instruction* GStore(Global* g, Value* v) {
    auto inst = std::make_unique<Instruction>(Op::kGlobalStore);
    inst->AddOperand(v);
    inst->global = g;
    return block_->Append(std::move(inst));
  }

  Instruction* Br(BasicBlock* target) {
    auto inst = std::make_unique<Instruction>(Op::kBr);
    inst->targets = {target};
    return block_->Append(std::move(inst));
  }
  Instruction* CondBr(Value* cond, BasicBlock* if_true, BasicBlock* if_false) {
    auto inst = std::make_unique<Instruction>(Op::kBr);
    inst->AddOperand(cond);
    inst->targets = {if_true, if_false};
    return block_->Append(std::move(inst));
  }
  // Switch: cases added via AddCase on the returned instruction's vectors.
  Instruction* Switch(Value* v, BasicBlock* default_block) {
    auto inst = std::make_unique<Instruction>(Op::kSwitch);
    inst->AddOperand(v);
    inst->targets = {default_block};
    return block_->Append(std::move(inst));
  }
  static void AddCase(Instruction* sw, int64_t value, BasicBlock* target) {
    POLY_CHECK(sw->op() == Op::kSwitch);
    sw->case_values.push_back(value);
    sw->targets.push_back(target);
  }

  Instruction* Ret(Value* v = nullptr) {
    auto inst = std::make_unique<Instruction>(Op::kRet);
    if (v != nullptr) {
      inst->AddOperand(v);
    }
    return block_->Append(std::move(inst));
  }
  Instruction* Unreachable() {
    return block_->Append(std::make_unique<Instruction>(Op::kUnreachable));
  }

  Instruction* Call(Function* callee, const std::vector<Value*>& args) {
    auto inst = std::make_unique<Instruction>(Op::kCall);
    inst->callee = callee;
    for (Value* a : args) {
      inst->AddOperand(a);
    }
    return block_->Append(std::move(inst));
  }
  Instruction* CallIntrinsic(Intrinsic intrinsic,
                             const std::vector<Value*>& args) {
    auto inst = std::make_unique<Instruction>(Op::kCall);
    inst->intrinsic = intrinsic;
    for (Value* a : args) {
      inst->AddOperand(a);
    }
    return block_->Append(std::move(inst));
  }

  Instruction* Phi() {
    auto inst = std::make_unique<Instruction>(Op::kPhi);
    // Phis belong at the head of the block.
    return block_->InsertBefore(block_->insts().begin(), std::move(inst));
  }
  static void AddIncoming(Instruction* phi, Value* v, BasicBlock* from) {
    POLY_CHECK(phi->op() == Op::kPhi);
    phi->AddOperand(v);
    phi->phi_blocks.push_back(from);
  }

  Instruction* Fence(FenceOrder order) {
    auto inst = std::make_unique<Instruction>(Op::kFence);
    inst->fence_order = order;
    return block_->Append(std::move(inst));
  }
  Instruction* AtomicRmw(RmwOp op, int size, Value* addr, Value* v) {
    auto inst = std::make_unique<Instruction>(Op::kAtomicRmw);
    inst->rmw_op = op;
    inst->size = size;
    inst->AddOperand(addr);
    inst->AddOperand(v);
    return block_->Append(std::move(inst));
  }
  Instruction* CmpXchg(int size, Value* addr, Value* expected,
                       Value* desired) {
    auto inst = std::make_unique<Instruction>(Op::kCmpXchg);
    inst->size = size;
    inst->AddOperand(addr);
    inst->AddOperand(expected);
    inst->AddOperand(desired);
    return block_->Append(std::move(inst));
  }

 private:
  Module* module_;
  BasicBlock* block_ = nullptr;
};

}  // namespace polynima::ir

#endif  // POLYNIMA_IR_BUILDER_H_

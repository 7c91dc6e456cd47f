#include "src/ir/printer.h"

#include <map>

#include "src/ir/semantics.h"
#include "src/support/strings.h"

namespace polynima::ir {
namespace {

std::string ValueRef(const Value* v) {
  switch (v->kind()) {
    case Value::Kind::kConstant:
      return std::to_string(static_cast<const Constant*>(v)->value());
    case Value::Kind::kInstruction: {
      const auto* inst = static_cast<const Instruction*>(v);
      return "%" + std::to_string(inst->id);
    }
    case Value::Kind::kArgument:
      return "%" + static_cast<const Argument*>(v)->name();
    case Value::Kind::kGlobal:
      return "@" + static_cast<const Global*>(v)->name();
    case Value::Kind::kFunction:
      return "@" + static_cast<const Function*>(v)->name();
    case Value::Kind::kBlock:
      return "label " + static_cast<const BasicBlock*>(v)->name();
  }
  return "?";
}

void PrintInst(std::string& out, const Instruction& inst) {
  out += "  ";
  if (inst.HasResult()) {
    out += StrCat("%", inst.id, " = ");
  }
  out += OpName(inst.op());
  if (inst.op() == Op::kICmp) {
    out += StrCat(" ", PredName(inst.pred));
  }
  if (inst.op() == Op::kSExt) {
    out += StrCat(" i", inst.width);
  }
  if (inst.op() == Op::kLoad || inst.op() == Op::kStore ||
      inst.op() == Op::kAtomicRmw || inst.op() == Op::kCmpXchg) {
    out += StrCat(" i", inst.size * 8);
  }
  if (inst.op() == Op::kFence) {
    out += inst.fence_order == FenceOrder::kAcquire   ? " acquire"
           : inst.fence_order == FenceOrder::kRelease ? " release"
                                                      : " seq_cst";
  }
  if (inst.op() == Op::kAtomicRmw) {
    static const char* const kNames[] = {"add", "sub", "and",
                                         "or",  "xor", "xchg"};
    out += StrCat(" ", kNames[static_cast<int>(inst.rmw_op)]);
  }
  if (inst.op() == Op::kGlobalLoad || inst.op() == Op::kGlobalStore) {
    out += StrCat(" @", inst.global->name());
  }
  if (inst.op() == Op::kCall) {
    out += inst.callee != nullptr ? StrCat(" @", inst.callee->name())
                                  : StrCat(" !", InfoOf(inst.intrinsic).name);
  }
  for (int i = 0; i < inst.num_operands(); ++i) {
    out += i == 0 ? " " : ", ";
    out += ValueRef(inst.operand(i));
  }
  if (inst.op() == Op::kPhi) {
    for (size_t i = 0; i < inst.phi_blocks.size(); ++i) {
      out += StrCat(" [", ValueRef(inst.operand(static_cast<int>(i))), ", ",
                    inst.phi_blocks[i]->name(), "]");
    }
  }
  if (inst.op() == Op::kBr) {
    for (const BasicBlock* t : inst.targets) {
      out += StrCat(" ", t->name());
    }
  }
  if (inst.op() == Op::kSwitch) {
    out += StrCat(" default ", inst.targets[0]->name());
    for (size_t i = 0; i < inst.case_values.size(); ++i) {
      out += StrCat(" [", inst.case_values[i], " -> ",
                    inst.targets[i + 1]->name(), "]");
    }
  }
  if (inst.fence_witness == FenceWitness::kStackLocal) {
    out += " !stack";
  }
  if (inst.fence_witness == FenceWitness::kHeapLocal) {
    out += " !heap";
  }
  out += "\n";
}

}  // namespace

std::string Print(const Function& f) {
  const_cast<Function&>(f).Renumber();
  std::string out = StrCat("func @", f.name(), "(");
  for (int i = 0; i < f.num_args(); ++i) {
    out += i == 0 ? "" : ", ";
    out += "%" + const_cast<Function&>(f).arg(i)->name();
  }
  out += StrCat(") ", f.has_result() ? "-> i64" : "-> void");
  if (f.is_external_entry) {
    out += " external_entry";
  }
  out += " {\n";
  for (const auto& block : f.blocks()) {
    out += block->name();
    if (block->guest_address != 0) {
      out += StrCat("  ; guest ", HexString(block->guest_address));
    }
    out += ":\n";
    for (const auto& inst : block->insts()) {
      PrintInst(out, *inst);
    }
  }
  out += "}\n";
  return out;
}

std::string Print(const Module& m) {
  std::string out;
  for (const auto& g : m.globals()) {
    out += StrCat("global @", g->name(), g->is_thread_local() ? " thread_local" : "",
                  " = ", g->initial(), "\n");
  }
  for (const auto& f : m.functions()) {
    out += "\n" + Print(*f);
  }
  return out;
}

}  // namespace polynima::ir

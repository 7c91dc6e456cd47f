// Negative tests for the hardened IR verifier: real SSA def-before-use
// checking (dominance-aware, with phi operands validated against their
// incoming edge), exact phi/predecessor multiset equality, per-opcode
// operand-count enforcement, and both directions of the ret/void mismatch.
// Each rejection test encodes a malformed module the pre-hardening verifier
// accepted.
#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/verifier.h"

namespace polynima::ir {
namespace {

testing::AssertionResult Rejects(const Function& f,
                                 const std::string& needle) {
  Status s = Verify(f);
  if (s.ok()) {
    return testing::AssertionFailure()
           << "verifier accepted malformed IR (wanted \"" << needle << "\")";
  }
  if (s.ToString().find(needle) == std::string::npos) {
    return testing::AssertionFailure() << "verifier rejected, but message \""
                                       << s.ToString()
                                       << "\" lacks \"" << needle << "\"";
  }
  return testing::AssertionSuccess();
}

TEST(VerifierDefUse, RejectsUseBeforeDefInSameBlock) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Instruction* x = b.Add(b.Const(1), b.Const(2));
  // Insert the user at the block head, ahead of its operand's definition.
  auto user = std::make_unique<Instruction>(Op::kAdd);
  user->AddOperand(x);
  user->AddOperand(b.Const(3));
  Instruction* y = bb->InsertBefore(bb->insts().begin(), std::move(user));
  b.Ret(y);
  EXPECT_TRUE(Rejects(*f, "use before def"));
}

TEST(VerifierDefUse, RejectsUseNotDominatedByDef) {
  // Diamond where the definition lives on one arm and the use at the join:
  //   entry -> {left, right} -> join, v defined in left, ret v in join.
  Module m;
  Function* f = m.AddFunction("f", 1, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* left = f->AddBlock("left");
  BasicBlock* right = f->AddBlock("right");
  BasicBlock* join = f->AddBlock("join");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.CondBr(f->arg(0), left, right);
  b.SetInsertBlock(left);
  Instruction* v = b.Add(b.Const(1), b.Const(2));
  b.Br(join);
  b.SetInsertBlock(right);
  b.Br(join);
  b.SetInsertBlock(join);
  b.Ret(v);
  EXPECT_TRUE(Rejects(*f, "not dominated by its definition in left"));
}

TEST(VerifierDefUse, RejectsPhiOperandNotLiveOnIncomingEdge) {
  // The phi itself sits where both defs "dominate" naively; the bug is the
  // operand paired with the `right` edge, where v (defined in left) is not
  // live. A phi operand must dominate the END of its incoming block, not
  // the phi's own position.
  Module m;
  Function* f = m.AddFunction("f", 1, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* left = f->AddBlock("left");
  BasicBlock* right = f->AddBlock("right");
  BasicBlock* join = f->AddBlock("join");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.CondBr(f->arg(0), left, right);
  b.SetInsertBlock(left);
  Instruction* v = b.Add(b.Const(1), b.Const(2));
  b.Br(join);
  b.SetInsertBlock(right);
  b.Br(join);
  b.SetInsertBlock(join);
  Instruction* phi = b.Phi();
  IRBuilder::AddIncoming(phi, v, left);
  IRBuilder::AddIncoming(phi, v, right);  // v is not live on this edge
  b.Ret(phi);
  EXPECT_TRUE(Rejects(*f, "phi incoming value in right"));
}

TEST(VerifierDefUse, AcceptsLoopCarriedPhi) {
  // A loop-carried phi uses a value defined LATER in its own block; the
  // incoming-edge rule (def dominates the back-edge source) must accept it.
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* loop = f->AddBlock("loop");
  BasicBlock* exit = f->AddBlock("exit");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.Br(loop);
  b.SetInsertBlock(loop);
  Instruction* i = b.Phi();
  Instruction* next = b.Add(i, b.Const(1));
  Instruction* done = b.ICmp(Pred::kSlt, next, b.Const(10));
  b.CondBr(done, loop, exit);
  IRBuilder::AddIncoming(i, b.Const(0), entry);
  IRBuilder::AddIncoming(i, next, loop);
  b.SetInsertBlock(exit);
  b.Ret(next);
  EXPECT_TRUE(Verify(*f).ok()) << Verify(*f).ToString();
}

TEST(VerifierPhi, RejectsDuplicateIncomingBlock) {
  // Two incoming entries for `left`, none for `right`: the sizes match the
  // predecessor count, so the old size-only comparison accepted this.
  Module m;
  Function* f = m.AddFunction("f", 1, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* left = f->AddBlock("left");
  BasicBlock* right = f->AddBlock("right");
  BasicBlock* join = f->AddBlock("join");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.CondBr(f->arg(0), left, right);
  b.SetInsertBlock(left);
  b.Br(join);
  b.SetInsertBlock(right);
  b.Br(join);
  b.SetInsertBlock(join);
  Instruction* phi = b.Phi();
  IRBuilder::AddIncoming(phi, b.Const(1), left);
  IRBuilder::AddIncoming(phi, b.Const(2), left);
  b.Ret(phi);
  EXPECT_TRUE(Rejects(*f, "lists predecessor left twice"));
}

TEST(VerifierPhi, RejectsNonPredecessorIncoming) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* stray = f->AddBlock("stray");
  BasicBlock* join = f->AddBlock("join");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.Br(join);
  b.SetInsertBlock(stray);
  b.Br(entry);  // stray is unreachable but well-formed; not a pred of join
  b.SetInsertBlock(join);
  Instruction* phi = b.Phi();
  IRBuilder::AddIncoming(phi, b.Const(1), entry);
  IRBuilder::AddIncoming(phi, b.Const(2), stray);
  b.Ret(phi);
  EXPECT_TRUE(Rejects(*f, "non-predecessor incoming stray"));
}

TEST(VerifierRet, RejectsValueInVoidFunction) {
  Module m;
  Function* f = m.AddFunction("f", 0, /*has_result=*/false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  b.Ret(b.Const(7));
  EXPECT_TRUE(Rejects(*f, "ret with value in void function"));
}

TEST(VerifierRet, RejectsMissingValueInValueFunction) {
  Module m;
  Function* f = m.AddFunction("f", 0, /*has_result=*/true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  b.Ret();
  EXPECT_TRUE(Rejects(*f, "ret without value"));
}

TEST(VerifierOperands, RejectsWrongOperandCount) {
  Module m;
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  // A store with the value operand missing.
  auto st = std::make_unique<Instruction>(Op::kStore);
  st->AddOperand(b.Const(0x1000));
  st->size = 8;
  bb->Append(std::move(st));
  b.Ret();
  EXPECT_TRUE(Rejects(*f, "expected 2"));
}

TEST(VerifierOperands, RejectsSelectWithTwoOperands) {
  Module m;
  Function* f = m.AddFunction("f", 1, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  auto sel = std::make_unique<Instruction>(Op::kSelect);
  sel->AddOperand(f->arg(0));
  sel->AddOperand(b.Const(1));
  Instruction* s = bb->Append(std::move(sel));
  b.Ret(s);
  EXPECT_TRUE(Rejects(*f, "expected 3"));
}

TEST(VerifierWitness, RejectsWitnessOnNonAccessOp) {
  // A fence-elision witness is a claim about a plain guest load/store;
  // stamping it on anything else (here an atomic, which orders itself) is
  // metadata corruption.
  Module m;
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Instruction* rmw = b.AtomicRmw(RmwOp::kAdd, 8, b.Const(0x1000), b.Const(1));
  rmw->fence_witness = FenceWitness::kStackLocal;
  b.Ret();
  EXPECT_TRUE(Rejects(*f, "fence witness on non-access op"));
}

TEST(VerifierWitness, RejectsStackLocalWitnessOnConstantAddress) {
  // A literal-constant address is a global — it cannot derive from the
  // emulated stack pointer, so the stamp is structurally impossible.
  Module m;
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Instruction* ld = b.Load(8, b.Const(0x4000));
  ld->fence_witness = FenceWitness::kStackLocal;
  b.Ret();
  EXPECT_TRUE(Rejects(*f, "stack-local witness on constant address"));
}

TEST(VerifierWitness, RejectsHeapLocalWitnessWithNoDominatingCall) {
  // kHeapLocal claims the address derives from an allocation made by this
  // function; with no call dominating the access, no allocation site can
  // possibly reach it.
  Module m;
  ir::Global* rax = m.AddGlobal("vr_rax", false, 0);
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Instruction* p = b.GLoad(rax);
  Instruction* st = b.Store(8, p, b.Const(1));
  st->fence_witness = FenceWitness::kHeapLocal;
  b.Ret();
  EXPECT_TRUE(Rejects(*f, "no dominating call"));
}

TEST(VerifierWitness, AcceptsHeapLocalWitnessAfterCall) {
  // The positive control: an ext_call earlier in the block justifies the
  // stamp structurally (the TSO checker validates the actual provenance).
  Module m;
  ir::Global* rax = m.AddGlobal("vr_rax", false, 0);
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  b.CallIntrinsic(ir::Intrinsic::kExtCall, {b.Const(0)});
  Instruction* p = b.GLoad(rax);
  Instruction* st = b.Store(8, p, b.Const(1));
  st->fence_witness = FenceWitness::kHeapLocal;
  b.Ret();
  EXPECT_TRUE(Verify(*f).ok()) << Verify(*f).ToString();
}

TEST(VerifierWitness, AcceptsHeapLocalWitnessInDominatedBlock) {
  Module m;
  ir::Global* rax = m.AddGlobal("vr_rax", false, 0);
  Function* f = m.AddFunction("f", 0, false);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* body = f->AddBlock("body");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.CallIntrinsic(ir::Intrinsic::kExtCall, {b.Const(0)});
  Instruction* p = b.GLoad(rax);
  b.Br(body);
  b.SetInsertBlock(body);
  Instruction* st = b.Store(8, p, b.Const(1));
  st->fence_witness = FenceWitness::kHeapLocal;
  b.Ret();
  EXPECT_TRUE(Verify(*f).ok()) << Verify(*f).ToString();
}

TEST(VerifierDefUse, UnreachableBlocksAreExemptFromDominance) {
  // Passes may orphan blocks that DCE later removes; a dangling use inside
  // one must not fail verification.
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* live = f->AddBlock("live");
  BasicBlock* dead = f->AddBlock("dead");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.Br(live);
  b.SetInsertBlock(live);
  Instruction* v = b.Add(b.Const(1), b.Const(2));
  b.Ret(v);
  b.SetInsertBlock(dead);
  b.Ret(v);  // v does not dominate `dead`, but `dead` is unreachable
  EXPECT_TRUE(Verify(*f).ok()) << Verify(*f).ToString();
}

}  // namespace
}  // namespace polynima::ir

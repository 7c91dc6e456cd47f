// Unit tests for the IR core: use lists, replaceAllUsesWith, block/function
// surgery, the verifier's error detection, and printing.
#include <utility>

#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/semantics.h"
#include "src/ir/verifier.h"
#include "src/support/strings.h"

namespace polynima::ir {
namespace {

TEST(IrCore, UseListsTrackOperands) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);

  Constant* c1 = b.Const(1);
  Instruction* add = b.Add(c1, b.Const(2));
  Instruction* mul = b.Mul(add, add);
  b.Ret(mul);

  // add is used twice by mul.
  int uses = 0;
  for (const Instruction* u : add->users()) {
    uses += u == mul ? 1 : 0;
  }
  EXPECT_EQ(uses, 2);

  // RAUW rewires both operand slots.
  Constant* c9 = m.GetConstant(9);
  add->ReplaceAllUsesWith(c9);
  EXPECT_EQ(mul->operand(0), c9);
  EXPECT_EQ(mul->operand(1), c9);
  EXPECT_TRUE(add->users().empty());
}

TEST(IrCore, EraseDropsUses) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Instruction* x = b.Add(b.Const(1), b.Const(2));
  Instruction* y = b.Add(x, b.Const(3));
  b.Ret(y);
  // Erase y (the only user of x).
  for (auto it = bb->insts().begin(); it != bb->insts().end(); ++it) {
    if (it->get() == y) {
      // Rewire ret first so the verifier stays happy conceptually.
      y->ReplaceAllUsesWith(x);
      bb->Erase(it);
      break;
    }
  }
  EXPECT_EQ(x->users().size(), 1u);  // the ret
}

TEST(IrCore, ConstantsAreInterned) {
  Module m;
  EXPECT_EQ(m.GetConstant(42), m.GetConstant(42));
  EXPECT_NE(m.GetConstant(42), m.GetConstant(43));
}

TEST(IrCore, GlobalsHaveStableSlots) {
  Module m;
  Global* a = m.AddGlobal("a", true);
  Global* g = m.AddGlobal("b", false, 7);
  EXPECT_EQ(a->slot(), 0);
  EXPECT_EQ(g->slot(), 1);
  EXPECT_EQ(m.num_global_slots(), 2);
  EXPECT_TRUE(a->is_thread_local());
  EXPECT_FALSE(g->is_thread_local());
  EXPECT_EQ(g->initial(), 7);
  EXPECT_EQ(m.GetGlobal("b"), g);
  EXPECT_EQ(m.GetGlobal("missing"), nullptr);
}

TEST(IrVerifier, AcceptsWellFormedFunction) {
  Module m;
  Function* f = m.AddFunction("ok", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* exit_block = f->AddBlock("exit");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  Instruction* v = b.Add(b.Const(1), b.Const(2));
  b.Br(exit_block);
  b.SetInsertBlock(exit_block);
  Instruction* phi = b.Phi();
  IRBuilder::AddIncoming(phi, v, entry);
  b.Ret(phi);
  EXPECT_TRUE(Verify(*f).ok()) << Verify(*f).ToString();
}

TEST(IrVerifier, RejectsMissingTerminator) {
  Module m;
  Function* f = m.AddFunction("bad", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.Add(b.Const(1), b.Const(2));  // no terminator
  EXPECT_FALSE(Verify(*f).ok());
}

TEST(IrVerifier, RejectsPhiWithWrongIncomingCount) {
  Module m;
  Function* f = m.AddFunction("bad", 0, true);
  BasicBlock* a = f->AddBlock("a");
  BasicBlock* c = f->AddBlock("c");
  IRBuilder b(&m);
  b.SetInsertBlock(a);
  b.Br(c);
  b.SetInsertBlock(c);
  Instruction* phi = b.Phi();  // no incomings, one predecessor
  (void)phi;
  b.Ret(b.Const(0));
  EXPECT_FALSE(Verify(*f).ok());
}

TEST(IrVerifier, RejectsInstructionAfterTerminator) {
  Module m;
  Function* f = m.AddFunction("bad", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.Ret(b.Const(0));
  b.Add(b.Const(1), b.Const(2));  // dead code after ret
  EXPECT_FALSE(Verify(*f).ok());
}

TEST(IrVerifier, RejectsRetWithoutValueInValueFunction) {
  Module m;
  Function* f = m.AddFunction("bad", 0, /*has_result=*/true);
  BasicBlock* entry = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.Ret();  // missing value
  EXPECT_FALSE(Verify(*f).ok());
}

TEST(IrPrinter, StableFormatting) {
  Module m;
  Global* g = m.AddGlobal("vr_rax", true);
  Function* f = m.AddFunction("demo", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  Instruction* v = b.GLoad(g);
  Instruction* sum = b.Add(v, b.Const(5));
  Instruction* cmp = b.ICmp(Pred::kSlt, sum, b.Const(100));
  b.GStore(g, sum);
  Instruction* sel = b.Select(cmp, sum, b.Const(0));
  b.Ret(sel);

  std::string text = Print(*f);
  EXPECT_NE(text.find("%0 = gload @vr_rax"), std::string::npos);
  EXPECT_NE(text.find("%1 = add %0, 5"), std::string::npos);
  EXPECT_NE(text.find("icmp slt %1, 100"), std::string::npos);
  EXPECT_NE(text.find("gstore @vr_rax %1"), std::string::npos);
  EXPECT_NE(text.find("ret %3"), std::string::npos);
}

// kIntrinsics is indexed by enumerator, so each row must sit at its own
// enumerator's position; printed IR shows the row's name.
TEST(IrPrinter, IntrinsicNamesFollowTheEnumerators) {
  const std::pair<Intrinsic, const char*> expected[] = {
      {Intrinsic::kExtCall, "ext_call"},
      {Intrinsic::kCfmiss, "cfmiss"},
      {Intrinsic::kTrap, "trap"},
      {Intrinsic::kParity, "parity"},
      {Intrinsic::kPause, "pause"},
      {Intrinsic::kHelperPaddd, "helper_paddd"},
      {Intrinsic::kHelperPsubd, "helper_psubd"},
      {Intrinsic::kHelperPmulld, "helper_pmulld"},
      {Intrinsic::kSimdPaddd, "simd_paddd"},
      {Intrinsic::kSimdPsubd, "simd_psubd"},
      {Intrinsic::kSimdPmulld, "simd_pmulld"},
      {Intrinsic::kHelperMulh, "helper_mulh"},
      {Intrinsic::kHelperSdiv128, "helper_sdiv128"},
      {Intrinsic::kHelperSrem128, "helper_srem128"},
      {Intrinsic::kGlobalLock, "global_lock"},
      {Intrinsic::kGlobalUnlock, "global_unlock"},
  };
  ASSERT_EQ(std::size(expected), std::size(kIntrinsics));
  Module m;
  Function* f = m.AddFunction("calls", 0, false);
  IRBuilder b(&m);
  b.SetInsertBlock(f->AddBlock("entry"));
  for (const auto& [intrinsic, name] : expected) {
    EXPECT_STREQ(InfoOf(intrinsic).name, name);
    b.CallIntrinsic(intrinsic, {b.Const(7)});
  }
  b.Ret();
  std::string text = Print(*f);
  for (const auto& [intrinsic, name] : expected) {
    EXPECT_NE(text.find(StrCat("call !", name, " 7")), std::string::npos)
        << name;
  }
}

TEST(IrCore, RenumberSkipsVoidInstructions) {
  Module m;
  Global* g = m.AddGlobal("g", true);
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  Instruction* a = b.Add(b.Const(1), b.Const(1));
  b.GStore(g, a);  // void
  Instruction* c = b.Add(a, a);
  b.Ret(c);
  int slots = f->Renumber();
  EXPECT_EQ(slots, 2);
  EXPECT_EQ(a->id, 0);
  EXPECT_EQ(c->id, 1);
}

}  // namespace
}  // namespace polynima::ir

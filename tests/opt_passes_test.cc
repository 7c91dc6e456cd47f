// Unit tests for individual optimizer passes on hand-built IR: local CSE,
// instcombine identities and flag fusion, MemOpt's barrier semantics, and
// dead-flag elimination — the micro-behaviours the end-to-end tests rely on.
#include <set>

#include <gtest/gtest.h>

#include "src/ir/builder.h"
#include "src/ir/printer.h"
#include "src/ir/semantics.h"
#include "src/ir/verifier.h"
#include "src/opt/passes.h"

namespace polynima::opt {
namespace {

using ir::BasicBlock;
using ir::FenceOrder;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::IRBuilder;
using ir::Module;
using ir::Op;
using ir::Pred;
using ir::Value;

size_t CountOp(const Function& f, Op op) {
  size_t n = 0;
  for (const auto& block : f.blocks()) {
    for (const auto& inst : block->insts()) {
      n += inst->op() == op ? 1 : 0;
    }
  }
  return n;
}

size_t TotalInsts(const Function& f) {
  size_t n = 0;
  for (const auto& block : f.blocks()) {
    n += block->insts().size();
  }
  return n;
}

TEST(LocalCsePass, UnifiesDuplicatePureOps) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Global* g = m.AddGlobal("vr_rax", true);
  Instruction* x = b.GLoad(g);
  Instruction* a1 = b.And(x, b.Const(0xff));
  Instruction* a2 = b.And(x, b.Const(0xff));          // duplicate
  Instruction* a3 = b.And(b.Const(0xff), x);          // commuted duplicate
  Instruction* sum = b.Add(b.Add(a1, a2), a3);
  b.Ret(sum);

  EXPECT_TRUE(LocalCse(*f));
  EXPECT_EQ(CountOp(*f, Op::kAnd), 1u);
  EXPECT_TRUE(ir::Verify(*f).ok());
}

TEST(DeadCodeElimPass, DropsExactlyThePureNonFaultingIntrinsics) {
  using ir::Intrinsic;
  // Written out here rather than read from the intrinsic table: the calls
  // whose value is their only effect and which cannot fault.
  const std::set<Intrinsic> removable = {
      Intrinsic::kParity,      Intrinsic::kHelperPaddd, Intrinsic::kHelperPsubd,
      Intrinsic::kHelperPmulld, Intrinsic::kSimdPaddd,  Intrinsic::kSimdPsubd,
      Intrinsic::kSimdPmulld,  Intrinsic::kHelperMulh};
  Module m;
  Function* f = m.AddFunction("f", 0, false);
  IRBuilder b(&m);
  b.SetInsertBlock(f->AddBlock("entry"));
  for (size_t i = 0; i < std::size(ir::kIntrinsics); ++i) {
    b.CallIntrinsic(static_cast<Intrinsic>(i),
                    {b.Const(1), b.Const(2), b.Const(3)});
  }
  b.Ret();

  EXPECT_TRUE(DeadCodeElim(*f));
  std::set<Intrinsic> kept;
  for (const auto& inst : f->entry()->insts()) {
    if (inst->op() == Op::kCall) {
      kept.insert(inst->intrinsic);
    }
  }
  for (size_t i = 0; i < std::size(ir::kIntrinsics); ++i) {
    const auto intrinsic = static_cast<Intrinsic>(i);
    EXPECT_NE(kept.count(intrinsic), removable.count(intrinsic))
        << ir::kIntrinsics[i].name;
  }
  EXPECT_EQ(kept.size(), std::size(ir::kIntrinsics) - removable.size());
}

TEST(InstCombinePass, SameOperandIdentities) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Global* g = m.AddGlobal("vr_rax", true);
  Instruction* x = b.GLoad(g);
  Instruction* zero = b.Xor(x, x);
  Instruction* still_x = b.Or(x, x);
  Instruction* sum = b.Add(zero, still_x);
  b.Ret(sum);

  InstCombine(*f, m);
  DeadCodeElim(*f);
  // xor(x,x) -> 0, or(x,x) -> x, add(0,x) -> x: the ret returns x itself.
  Instruction* ret = f->entry()->terminator();
  EXPECT_EQ(ret->operand(0), x) << ir::Print(*f);
}

TEST(InstCombinePass, FusesSignedLessThanFlagPattern) {
  // Build exactly what the lifter emits for `cmp a, b; jl`: 32-bit width.
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  BasicBlock* t = f->AddBlock("t");
  BasicBlock* e = f->AddBlock("e");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Global* ga = m.AddGlobal("vr_rax", true);
  Global* gb = m.AddGlobal("vr_rcx", true);
  Value* mask = b.Const(0xffffffff);
  Instruction* a = b.And(b.GLoad(ga), mask);
  Instruction* bv = b.And(b.GLoad(gb), mask);
  Instruction* res = b.And(b.Sub(a, bv), mask);
  // sf = bit31(res); of = bit31(and(xor(a,b), xor(a,res)))
  Instruction* sf = b.And(b.LShr(res, b.Const(31)), b.Const(1));
  Instruction* ovf_t = b.And(b.Xor(a, bv), b.Xor(a, res));
  Instruction* of = b.And(b.LShr(ovf_t, b.Const(31)), b.Const(1));
  Instruction* lt = b.Xor(sf, of);
  b.CondBr(lt, t, e);
  b.SetInsertBlock(t);
  b.Ret(b.Const(1));
  b.SetInsertBlock(e);
  b.Ret(b.Const(0));

  bool changed = true;
  while (changed) {
    changed = false;
    changed |= LocalCse(*f);
    changed |= InstCombine(*f, m);
    changed |= DeadCodeElim(*f);
  }
  // The branch condition collapses to one icmp slt over sign-extended
  // operands; the flag-bit arithmetic dies.
  EXPECT_EQ(CountOp(*f, Op::kICmp), 1u) << ir::Print(*f);
  EXPECT_EQ(CountOp(*f, Op::kLShr), 0u) << ir::Print(*f);
  bool found_slt = false;
  for (const auto& block : f->blocks()) {
    for (const auto& inst : block->insts()) {
      if (inst->op() == Op::kICmp && inst->pred == Pred::kSlt) {
        found_slt = true;
      }
    }
  }
  EXPECT_TRUE(found_slt) << ir::Print(*f);
  EXPECT_TRUE(ir::Verify(*f).ok());
}

TEST(InstCombinePass, NegatedIcmpFolds) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Global* g = m.AddGlobal("vr_rax", true);
  Instruction* x = b.GLoad(g);
  Instruction* cmp = b.ICmp(Pred::kEq, x, b.Const(5));
  Instruction* inv = b.Xor(cmp, b.Const(1));
  b.Ret(inv);
  InstCombine(*f, m);
  DeadCodeElim(*f);
  Instruction* ret = f->entry()->terminator();
  ASSERT_TRUE(ret->operand(0)->is_inst());
  auto* folded = static_cast<Instruction*>(ret->operand(0));
  EXPECT_EQ(folded->op(), Op::kICmp);
  EXPECT_EQ(folded->pred, Pred::kNe);
}

TEST(MemOptPass, ForwardsLoadsAndRespectsFences) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Value* addr = m.GetConstant(0x601000);
  Instruction* l1 = b.Load(8, addr);
  Instruction* l2 = b.Load(8, addr);  // forwardable
  b.Fence(FenceOrder::kAcquire);
  Instruction* l3 = b.Load(8, addr);  // pinned by the fence
  Instruction* sum = b.Add(b.Add(l1, l2), l3);
  b.Ret(sum);

  EXPECT_TRUE(MemOpt(*f));
  DeadCodeElim(*f);
  EXPECT_EQ(CountOp(*f, Op::kLoad), 2u) << ir::Print(*f);
}

TEST(MemOptPass, DistinctOffsetsFromSameBaseDoNotAlias) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Global* g = m.AddGlobal("vr_rsp", true);
  Instruction* base = b.GLoad(g);
  Instruction* slot_a = b.Sub(base, b.Const(8));
  Instruction* slot_b = b.Sub(base, b.Const(16));
  Instruction* v = b.Load(8, slot_a);
  b.Store(8, slot_b, b.Const(1));   // disjoint: must not kill the load
  Instruction* v2 = b.Load(8, slot_a);
  b.Ret(b.Add(v, v2));

  EXPECT_TRUE(MemOpt(*f));
  DeadCodeElim(*f);
  EXPECT_EQ(CountOp(*f, Op::kLoad), 1u) << ir::Print(*f);
}

TEST(MemOptPass, DeadStoreEliminatedWithinBlock) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Value* addr = m.GetConstant(0x601000);
  b.Store(8, addr, b.Const(1));  // dead: overwritten below
  b.Store(8, addr, b.Const(2));
  b.Ret(b.Const(0));
  EXPECT_TRUE(MemOpt(*f));
  EXPECT_EQ(CountOp(*f, Op::kStore), 1u);
}

TEST(MemOptPass, ReleaseFencePinsEarlierStores) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Value* addr = m.GetConstant(0x601000);
  b.Store(8, addr, b.Const(1));  // observable after the release fence
  b.Fence(FenceOrder::kRelease);
  b.Store(8, addr, b.Const(2));
  b.Ret(b.Const(0));
  MemOpt(*f);
  EXPECT_EQ(CountOp(*f, Op::kStore), 2u);
}

// --- No-motion-across-fences regression suite ----------------------------
// The static concurrency analyzer's soundness argument (DESIGN.md §4e)
// assumes no IR pass moves, merges, or deletes a guest memory access across
// a fence, an atomic, or a call. Each test pairs the blocked transformation
// with its positive control so a pass that silently stops optimizing at all
// cannot masquerade as "respects barriers".

TEST(FenceMotion, StoreForwardingBlockedByAcquireFence) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  IRBuilder b(&m);
  b.SetInsertBlock(f->AddBlock("entry"));
  Value* addr = m.GetConstant(0x601000);
  b.Store(8, addr, b.Const(7));
  b.Fence(FenceOrder::kAcquire);
  Instruction* reload = b.Load(8, addr);  // must re-read: fence in between
  b.Ret(reload);
  MemOpt(*f);
  DeadCodeElim(*f);
  EXPECT_EQ(CountOp(*f, Op::kLoad), 1u) << ir::Print(*f);
}

TEST(FenceMotion, StoreForwardingControlWithoutFence) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  IRBuilder b(&m);
  b.SetInsertBlock(f->AddBlock("entry"));
  Value* addr = m.GetConstant(0x601000);
  b.Store(8, addr, b.Const(7));
  Instruction* reload = b.Load(8, addr);  // forwardable
  b.Ret(reload);
  EXPECT_TRUE(MemOpt(*f));
  DeadCodeElim(*f);
  EXPECT_EQ(CountOp(*f, Op::kLoad), 0u) << ir::Print(*f);
}

TEST(FenceMotion, SeqCstFenceIsAFullBarrier) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  IRBuilder b(&m);
  b.SetInsertBlock(f->AddBlock("entry"));
  Value* addr = m.GetConstant(0x601000);
  Value* flag = m.GetConstant(0x602000);
  b.Store(8, addr, b.Const(1));  // not dead: seq_cst publishes it
  Instruction* l1 = b.Load(8, flag);
  b.Fence(FenceOrder::kSeqCst);
  b.Store(8, addr, b.Const(2));
  Instruction* l2 = b.Load(8, flag);  // not redundant across seq_cst
  b.Ret(b.Add(l1, l2));
  MemOpt(*f);
  DeadCodeElim(*f);
  EXPECT_EQ(CountOp(*f, Op::kStore), 2u) << ir::Print(*f);
  EXPECT_EQ(CountOp(*f, Op::kLoad), 2u) << ir::Print(*f);
}

TEST(FenceMotion, AtomicsAreBarriersForLoadsAndStores) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  IRBuilder b(&m);
  b.SetInsertBlock(f->AddBlock("entry"));
  Value* addr = m.GetConstant(0x601000);
  Value* flag = m.GetConstant(0x602000);
  Value* lock = m.GetConstant(0x603000);
  b.Store(8, addr, b.Const(1));  // a racing reader may observe it at the rmw
  Instruction* l1 = b.Load(8, flag);
  b.AtomicRmw(ir::RmwOp::kAdd, 8, lock, b.Const(1));
  Instruction* l2 = b.Load(8, flag);  // not redundant across the atomic
  b.Store(8, addr, b.Const(2));  // does not make the first store dead
  b.Ret(b.Add(l1, l2));
  MemOpt(*f);
  DeadCodeElim(*f);
  EXPECT_EQ(CountOp(*f, Op::kLoad), 2u) << ir::Print(*f);
  EXPECT_EQ(CountOp(*f, Op::kStore), 2u) << ir::Print(*f);
}

TEST(FenceMotion, CallsAreBarriers) {
  Module m;
  Function* callee = m.AddFunction("callee", 0, false);
  {
    IRBuilder cb(&m);
    cb.SetInsertBlock(callee->AddBlock("entry"));
    cb.Ret();
  }
  Function* f = m.AddFunction("f", 0, true);
  IRBuilder b(&m);
  b.SetInsertBlock(f->AddBlock("entry"));
  Value* addr = m.GetConstant(0x601000);
  Value* flag = m.GetConstant(0x602000);
  b.Store(8, addr, b.Const(1));  // observable by the callee
  Instruction* l1 = b.Load(8, flag);
  b.Call(callee, {});
  Instruction* l2 = b.Load(8, flag);  // callee may have written it
  b.Store(8, addr, b.Const(2));  // ...so the first store is not dead
  b.Ret(b.Add(l1, l2));
  MemOpt(*f);
  DeadCodeElim(*f);
  EXPECT_EQ(CountOp(*f, Op::kLoad), 2u) << ir::Print(*f);
  EXPECT_EQ(CountOp(*f, Op::kStore), 2u) << ir::Print(*f);
}

TEST(FenceMotion, LocalCseNeverMergesLoads) {
  // CSE is for pure ops only; two syntactically identical loads are NOT the
  // same value in a multithreaded guest (another thread can write between
  // them), fences present or not. Redundant-load elimination belongs to
  // MemOpt, which knows the barrier rules.
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  IRBuilder b(&m);
  b.SetInsertBlock(f->AddBlock("entry"));
  Value* addr = m.GetConstant(0x601000);
  Instruction* l1 = b.Load(8, addr);
  Instruction* l2 = b.Load(8, addr);
  b.Ret(b.Add(l1, l2));
  LocalCse(*f);
  EXPECT_EQ(CountOp(*f, Op::kLoad), 2u) << ir::Print(*f);
}

TEST(DeadFlagElimPass, RemovesUnreadFlagStores) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* bb = f->AddBlock("entry");
  IRBuilder b(&m);
  b.SetInsertBlock(bb);
  Global* zf = m.AddGlobal("fl_zf", true);
  Global* cf = m.AddGlobal("fl_cf", true);
  b.GStore(zf, b.Const(1));  // dead: overwritten below, never read
  b.GStore(cf, b.Const(1));  // dead: never read before ret
  b.GStore(zf, b.Const(0));  // dead at ret (flags are not live across rets)
  b.Ret(b.Const(0));
  EXPECT_TRUE(DeadFlagElim(*f));
  EXPECT_EQ(CountOp(*f, Op::kGlobalStore), 0u);
}

TEST(DeadFlagElimPass, KeepsFlagsReadAcrossBlocks) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* a = f->AddBlock("a");
  BasicBlock* c = f->AddBlock("c");
  IRBuilder b(&m);
  b.SetInsertBlock(a);
  Global* zf = m.AddGlobal("fl_zf", true);
  b.GStore(zf, b.Const(1));  // read in the successor: must stay
  b.Br(c);
  b.SetInsertBlock(c);
  Instruction* v = b.GLoad(zf);
  b.Ret(v);
  DeadFlagElim(*f);
  EXPECT_EQ(CountOp(*f, Op::kGlobalStore), 1u);
}

TEST(SimplifyCfgPass, FoldsConstantBranchesAndPrunes) {
  Module m;
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* taken = f->AddBlock("taken");
  BasicBlock* dead = f->AddBlock("dead");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.CondBr(m.GetConstant(1), taken, dead);
  b.SetInsertBlock(taken);
  b.Ret(b.Const(7));
  b.SetInsertBlock(dead);
  b.Ret(b.Const(8));
  EXPECT_TRUE(SimplifyCfg(*f));
  // dead pruned, taken merged into entry.
  EXPECT_EQ(f->blocks().size(), 1u) << ir::Print(*f);
  EXPECT_TRUE(ir::Verify(*f).ok());
}

TEST(PipelineIdempotence, SecondRunChangesNothingStructurally) {
  // Build a small lifted-shaped function and check the pipeline reaches a
  // fixpoint (size stable on re-run).
  Module m;
  Global* rax = m.AddGlobal("vr_rax", true);
  Global* rcx = m.AddGlobal("vr_rcx", true);
  Function* f = m.AddFunction("f", 0, true);
  BasicBlock* entry = f->AddBlock("entry");
  BasicBlock* loop = f->AddBlock("loop");
  BasicBlock* done = f->AddBlock("done");
  IRBuilder b(&m);
  b.SetInsertBlock(entry);
  b.GStore(rax, b.Const(0));
  b.GStore(rcx, b.Const(10));
  b.Br(loop);
  b.SetInsertBlock(loop);
  Instruction* acc = b.GLoad(rax);
  Instruction* n = b.GLoad(rcx);
  b.GStore(rax, b.Add(acc, n));
  Instruction* n2 = b.Sub(n, b.Const(1));
  b.GStore(rcx, n2);
  b.CondBr(b.ICmp(Pred::kNe, n2, b.Const(0)), loop, done);
  b.SetInsertBlock(done);
  b.Ret(b.GLoad(rax));

  ASSERT_TRUE(RunPipeline(m).ok());
  size_t size_after_first = TotalInsts(*f);
  ASSERT_TRUE(RunPipeline(m).ok());
  EXPECT_EQ(TotalInsts(*f), size_after_first);
}

}  // namespace
}  // namespace polynima::opt

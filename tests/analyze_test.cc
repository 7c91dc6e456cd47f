// Tests for the static concurrency analyzer (ctest label: analyze).
//
// Three layers, mirroring the subsystem's structure:
//   - Escape classification on hand-built IR: stack slots stay private,
//     stored pointers escape, phi-merged bases keep their region, calls and
//     atomics are conservative boundaries.
//   - Race detection on the compiled racebench workloads: every racy_*
//     program yields at least one pair with guest-address diagnostics, every
//     safe_* program yields zero (the precision bar), and safe_heap's
//     private buffer earns kHeapLocal witnesses + static fence elision that
//     the TSO checker re-verifies against the sealed StaticCert.
//   - Cross-validation against schedule exploration: any workload where
//     exploration observes more than one outcome (a dynamically confirmed
//     race) must already be flagged by the static detector, and the
//     statically-clean workloads must explore to a single outcome.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/analyze/analyze.h"
#include "src/cc/compiler.h"
#include "src/check/tso.h"
#include "src/check/witness.h"
#include "src/fenceopt/static_elide.h"
#include "src/ir/builder.h"
#include "src/recomp/recompiler.h"
#include "src/sched/explore.h"
#include "src/workloads/workloads.h"

namespace polynima::analyze {
namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::IRBuilder;

// --- Escape classification on hand-built IR ------------------------------

// Externals table for hand-built tests: slot 0 is malloc.
const std::vector<std::string> kMallocTable = {"malloc"};

struct TestModule {
  ir::Module m;
  ir::Global* rsp = nullptr;
  ir::Global* rax = nullptr;
  ir::Global* rdi = nullptr;
  Function* f = nullptr;
  IRBuilder b{&m};

  explicit TestModule(const char* name = "f") {
    rsp = m.AddGlobal("vr_rsp", false, 0);
    rax = m.AddGlobal("vr_rax", false, 0);
    rdi = m.AddGlobal("vr_rdi", false, 0);
    f = m.AddFunction(name, 0, false);
    b.SetInsertBlock(f->AddBlock("entry"));
  }

  EscapeResult Analyze() const {
    check::RegionDeriver deriver(*f, kMallocTable);
    return AnalyzeEscapes(*f, m, deriver, kMallocTable);
  }
};

// Finds the classification of `inst` in `r`; the access must exist.
const AccessInfo& AccessOf(const EscapeResult& r, const Instruction* inst) {
  for (const AccessInfo& a : r.accesses) {
    if (a.inst == inst) {
      return a;
    }
  }
  ADD_FAILURE() << "access not classified";
  static AccessInfo missing;
  return missing;
}

TEST(Escape, StackSlotIsStackLocal) {
  TestModule t;
  Instruction* sp = t.b.GLoad(t.rsp);
  Instruction* slot = t.b.Sub(sp, t.b.Const(8));
  Instruction* spill = t.b.Store(8, slot, t.b.Const(42));
  Instruction* reload = t.b.Load(8, slot);
  t.b.Ret();
  EscapeResult r = t.Analyze();
  EXPECT_FALSE(r.stack_escaped);
  EXPECT_EQ(AccessOf(r, spill).region, Region::kStackLocal);
  EXPECT_EQ(AccessOf(r, reload).region, Region::kStackLocal);
  EXPECT_EQ(AccessOf(r, reload).addr_kind, AddrKind::kStackSym);
  EXPECT_EQ(r.stack_local, 2);
  EXPECT_EQ(r.shared, 0);
}

TEST(Escape, StoredStackPointerEscapesTheFrame) {
  // Publishing a pointer into the frame (store to a constant/global address)
  // means another thread may reach the frame: every stack access degrades to
  // shared.
  TestModule t;
  Instruction* sp = t.b.GLoad(t.rsp);
  Instruction* slot = t.b.Sub(sp, t.b.Const(8));
  t.b.Store(8, t.b.Const(0x5000), slot);  // leak the frame pointer
  Instruction* local = t.b.Store(8, slot, t.b.Const(1));
  t.b.Ret();
  EscapeResult r = t.Analyze();
  EXPECT_TRUE(r.stack_escaped);
  EXPECT_NE(r.stack_escape_reason, "");
  EXPECT_EQ(AccessOf(r, local).region, Region::kShared);
  EXPECT_EQ(r.stack_local, 0);
}

TEST(Escape, PrivateAllocationIsHeapLocal) {
  TestModule t;
  Instruction* call =
      t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  (void)call;
  Instruction* p = t.b.GLoad(t.rax);
  Instruction* init = t.b.Store(8, p, t.b.Const(7));
  Instruction* use = t.b.Load(8, p);
  t.b.GStore(t.rax, t.b.Const(0));  // don't return the pointer
  t.b.Ret();
  EscapeResult r = t.Analyze();
  ASSERT_EQ(r.sites.size(), 1u);
  EXPECT_FALSE(r.sites[0].escaped);
  EXPECT_EQ(AccessOf(r, init).region, Region::kHeapLocal);
  EXPECT_EQ(AccessOf(r, use).region, Region::kHeapLocal);
  EXPECT_EQ(AccessOf(r, use).addr_kind, AddrKind::kHeapSym);
  EXPECT_EQ(r.heap_local, 2);
}

TEST(Escape, OffsetArithmeticKeepsHeapProvenance) {
  // ptr + loaded-index: the index has `other` provenance but no region bits,
  // so the base-plus-offset rule keeps the address PureHeap instead of
  // degrading the whole buffer to shared (DESIGN.md §4e).
  TestModule t;
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* p = t.b.GLoad(t.rax);
  Instruction* index = t.b.Load(8, t.b.Sub(t.b.GLoad(t.rsp), t.b.Const(16)));
  Instruction* elem = t.b.Add(p, index);
  Instruction* use = t.b.Store(8, elem, t.b.Const(1));
  t.b.GStore(t.rax, t.b.Const(0));  // don't return the pointer
  t.b.Ret();
  EscapeResult r = t.Analyze();
  EXPECT_EQ(AccessOf(r, use).region, Region::kHeapLocal);
}

TEST(Escape, StoredHeapPointerEscapesTheSite) {
  TestModule t;
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* p = t.b.GLoad(t.rax);
  t.b.Store(8, t.b.Const(0x5000), p);  // publish the allocation
  Instruction* use = t.b.Load(8, p);
  t.b.Ret();
  EscapeResult r = t.Analyze();
  ASSERT_EQ(r.sites.size(), 1u);
  EXPECT_TRUE(r.sites[0].escaped);
  EXPECT_NE(r.sites[0].reason, "");
  EXPECT_EQ(AccessOf(r, use).region, Region::kShared);
  EXPECT_EQ(r.heap_local, 0);
}

TEST(Escape, FrameEscapeSpillsStackSavedSites) {
  // A heap pointer spilled to the (still-private) stack is fine — until the
  // frame itself escapes, at which point a foreign thread could read the
  // spill slot, so the allocation site must escape transitively.
  TestModule t;
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* p = t.b.GLoad(t.rax);
  Instruction* sp = t.b.GLoad(t.rsp);
  Instruction* slot = t.b.Sub(sp, t.b.Const(8));
  t.b.Store(8, slot, p);                  // spill: not yet an escape
  t.b.Store(8, t.b.Const(0x5000), slot);  // now the frame leaks
  Instruction* use = t.b.Load(8, p);
  t.b.Ret();
  EscapeResult r = t.Analyze();
  ASSERT_EQ(r.sites.size(), 1u);
  EXPECT_TRUE(r.stack_escaped);
  EXPECT_TRUE(r.sites[0].escaped);
  EXPECT_EQ(AccessOf(r, use).region, Region::kShared);
}

TEST(Escape, ReturnedAllocationEscapes) {
  // A pointer still live in vr_rax at a return is handed to the caller —
  // the allocation outlives the frame and must not be classified private.
  TestModule t;
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* p = t.b.GLoad(t.rax);
  Instruction* use = t.b.Store(8, p, t.b.Const(7));
  t.b.Ret();  // vr_rax still derives from the allocation
  EscapeResult r = t.Analyze();
  ASSERT_EQ(r.sites.size(), 1u);
  EXPECT_TRUE(r.sites[0].escaped);
  EXPECT_EQ(AccessOf(r, use).region, Region::kShared);
}

TEST(Escape, CallArgumentIsConservativeBoundary) {
  // Holding a tracked pointer in an argument register at any call site
  // escapes it — the callee may publish it.
  TestModule t;
  Function* callee = t.m.AddFunction("callee", 0, false);
  {
    IRBuilder cb(&t.m);
    cb.SetInsertBlock(callee->AddBlock("entry"));
    cb.Ret();
  }
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* p = t.b.GLoad(t.rax);
  t.b.GStore(t.rdi, p);
  t.b.Call(callee, {});
  Instruction* use = t.b.Load(8, p);
  t.b.Ret();
  EscapeResult r = t.Analyze();
  ASSERT_EQ(r.sites.size(), 1u);
  EXPECT_TRUE(r.sites[0].escaped);
  EXPECT_EQ(AccessOf(r, use).region, Region::kShared);
}

TEST(Escape, PhiMergedStackBasesStayLocal) {
  // Two stack-derived addresses merged at a join keep the pure-stack
  // provenance; merging stack with heap degrades to shared.
  TestModule t;
  BasicBlock* entry = t.b.block();
  BasicBlock* left = t.f->AddBlock("left");
  BasicBlock* right = t.f->AddBlock("right");
  BasicBlock* join = t.f->AddBlock("join");
  Instruction* sp = t.b.GLoad(t.rsp);
  Instruction* a = t.b.Sub(sp, t.b.Const(8));
  Instruction* c = t.b.Sub(sp, t.b.Const(16));
  t.b.CondBr(t.b.Const(1), left, right);
  (void)entry;
  t.b.SetInsertBlock(left);
  t.b.Br(join);
  t.b.SetInsertBlock(right);
  t.b.Br(join);
  t.b.SetInsertBlock(join);
  Instruction* phi = t.b.Phi();
  IRBuilder::AddIncoming(phi, a, left);
  IRBuilder::AddIncoming(phi, c, right);
  Instruction* use = t.b.Store(8, phi, t.b.Const(3));
  t.b.Ret();
  EscapeResult r = t.Analyze();
  EXPECT_EQ(AccessOf(r, use).region, Region::kStackLocal);
}

TEST(Escape, PhiMixingStackAndHeapDegradesToShared) {
  TestModule t;
  BasicBlock* left = t.f->AddBlock("left");
  BasicBlock* right = t.f->AddBlock("right");
  BasicBlock* join = t.f->AddBlock("join");
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* heap = t.b.GLoad(t.rax);
  Instruction* stack = t.b.Sub(t.b.GLoad(t.rsp), t.b.Const(8));
  t.b.CondBr(t.b.Const(1), left, right);
  t.b.SetInsertBlock(left);
  t.b.Br(join);
  t.b.SetInsertBlock(right);
  t.b.Br(join);
  t.b.SetInsertBlock(join);
  Instruction* phi = t.b.Phi();
  IRBuilder::AddIncoming(phi, heap, left);
  IRBuilder::AddIncoming(phi, stack, right);
  Instruction* use = t.b.Store(8, phi, t.b.Const(3));
  t.b.Ret();
  EscapeResult r = t.Analyze();
  EXPECT_EQ(AccessOf(r, use).region, Region::kShared);
  EXPECT_EQ(AccessOf(r, use).addr_kind, AddrKind::kSym);
}

TEST(Escape, AtomicOperandEscapes) {
  // Atomicity is a sharing intent: an allocation used atomically is not
  // thread-private no matter what the dataflow proves.
  TestModule t;
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* p = t.b.GLoad(t.rax);
  Instruction* rmw = t.b.AtomicRmw(ir::RmwOp::kAdd, 8, p, t.b.Const(1));
  t.b.Ret();
  EscapeResult r = t.Analyze();
  ASSERT_EQ(r.sites.size(), 1u);
  EXPECT_TRUE(r.sites[0].escaped);
  const AccessInfo& a = AccessOf(r, rmw);
  EXPECT_EQ(a.region, Region::kShared);
  EXPECT_TRUE(a.is_atomic);
  EXPECT_TRUE(a.is_write);
}

TEST(Escape, SpilledThenReloadedPointerEscapesAtCall) {
  // The memory-laundering hole: a malloc'd pointer spilled to a stack slot
  // and reloaded is still the same pointer. If the reload dropped the
  // allocation site, publishing it (argument register at a call) would be a
  // no-op for escape and the site would be certified private — unsound fence
  // elision on genuinely shared memory. The per-slot stack residue keeps the
  // site attached through the round-trip.
  TestModule t;
  Function* callee = t.m.AddFunction("callee", 0, false);
  {
    IRBuilder cb(&t.m);
    cb.SetInsertBlock(callee->AddBlock("entry"));
    cb.Ret();
  }
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* p = t.b.GLoad(t.rax);
  Instruction* slot = t.b.Sub(t.b.GLoad(t.rsp), t.b.Const(8));
  t.b.Store(8, slot, p);                  // spill: not yet an escape
  Instruction* reload = t.b.Load(8, slot);
  t.b.GStore(t.rdi, reload);              // publish the laundered copy
  t.b.Call(callee, {});
  Instruction* use = t.b.Store(8, p, t.b.Const(1));
  t.b.GStore(t.rax, t.b.Const(0));  // don't return the pointer
  t.b.Ret();
  EscapeResult r = t.Analyze();
  ASSERT_EQ(r.sites.size(), 1u);
  EXPECT_TRUE(r.sites[0].escaped);
  EXPECT_EQ(AccessOf(r, use).region, Region::kShared);
  EXPECT_EQ(r.heap_local, 0);
}

TEST(Escape, SpilledAndReloadedLocallyStaysPrivate) {
  // Precision guard for the laundering fix: a spill/reload that never feeds
  // an escape sink must not cost the site its privacy — otherwise every
  // register-pressure spill would defeat heap-local classification.
  TestModule t;
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* p = t.b.GLoad(t.rax);
  Instruction* slot = t.b.Sub(t.b.GLoad(t.rsp), t.b.Const(8));
  t.b.Store(8, slot, p);
  Instruction* reload = t.b.Load(8, slot);
  t.b.Load(8, reload);  // dereference only: not a sink
  Instruction* init = t.b.Store(8, p, t.b.Const(7));
  t.b.GStore(t.rax, t.b.Const(0));
  t.b.Ret();
  EscapeResult r = t.Analyze();
  ASSERT_EQ(r.sites.size(), 1u);
  EXPECT_FALSE(r.sites[0].escaped);
  EXPECT_EQ(AccessOf(r, init).region, Region::kHeapLocal);
}

TEST(Escape, ReloadFromHeapObjectCarriesHeldSites) {
  // Laundering through a private heap object instead of the stack: storing p
  // into q and reloading it from q must keep p's site on the reload, so
  // publishing the reload escapes p (while q itself stays private).
  TestModule t;
  Function* callee = t.m.AddFunction("callee", 0, false);
  {
    IRBuilder cb(&t.m);
    cb.SetInsertBlock(callee->AddBlock("entry"));
    cb.Ret();
  }
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* p = t.b.GLoad(t.rax);
  t.b.CallIntrinsic(ir::Intrinsic::kExtCall, {t.b.Const(0)});
  Instruction* q = t.b.GLoad(t.rax);
  t.b.Store(8, q, p);                     // p held by private q
  Instruction* reload = t.b.Load(8, q);
  t.b.GStore(t.rdi, reload);              // publish the laundered copy
  t.b.Call(callee, {});
  t.b.GStore(t.rax, t.b.Const(0));
  t.b.Ret();
  EscapeResult r = t.Analyze();
  ASSERT_EQ(r.sites.size(), 2u);
  EXPECT_TRUE(r.sites[0].escaped);   // p: published via the reload
  EXPECT_FALSE(r.sites[1].escaped);  // q: never leaves the frame
}

// --- Race detection on the racebench workloads ---------------------------

struct Built {
  std::unique_ptr<recomp::Recompiler> recompiler;
  std::unique_ptr<recomp::RecompiledBinary> binary;
  AnalysisResult analysis;
};

// Compiles workload `name` at its default opt level and recompiles it.
// `analyze` selects the production path (RecompileOptions::analyze: stamp,
// elide, mint a StaticCert); the analysis result is recomputed over the
// final program either way so tests can inspect it directly.
const Built& CachedBuild(const std::string& name, bool analyze = false) {
  static auto* cache = new std::map<std::pair<std::string, bool>, Built>();
  auto key = std::make_pair(name, analyze);
  auto it = cache->find(key);
  if (it == cache->end()) {
    const workloads::Workload* w = workloads::FindWorkload(name);
    POLY_CHECK(w != nullptr) << name;
    cc::CompileOptions cc_options;
    cc_options.name = name;
    cc_options.opt_level = w->default_opt;
    auto image = cc::Compile(w->source, cc_options);
    POLY_CHECK(image.ok()) << image.status().ToString();
    Built built;
    recomp::RecompileOptions options;
    options.analyze = analyze;
    built.recompiler =
        std::make_unique<recomp::Recompiler>(*image, options);
    auto binary = built.recompiler->Recompile();
    POLY_CHECK(binary.ok()) << binary.status().ToString();
    built.binary =
        std::make_unique<recomp::RecompiledBinary>(std::move(*binary));
    built.analysis = AnalyzeProgram(built.binary->program);
    it = cache->emplace(key, std::move(built)).first;
  }
  return it->second;
}

TEST(Race, RacyWorkloadsReportPairs) {
  // racy_helper_spawn hides its pthread_create inside a helper function —
  // it is racy only because the spawn-window dataflow is interprocedural.
  for (const char* name :
       {"racy_counter", "racy_lastwrite", "racy_helper_spawn"}) {
    SCOPED_TRACE(name);
    const AnalysisResult& a = CachedBuild(name).analysis;
    EXPECT_TRUE(a.races.Racy());
    EXPECT_GE(a.races.thread_roots, 2);
    // Diagnostics carry resolvable guest addresses and a writing side.
    for (const RacePair& p : a.races.pairs) {
      EXPECT_NE(p.a.guest_address, 0u);
      EXPECT_NE(p.b.guest_address, 0u);
      EXPECT_TRUE(p.a.is_write || p.b.is_write);
      EXPECT_NE(p.a.function, "");
      EXPECT_NE(p.reason, "");
    }
    EXPECT_FALSE(RaceHintAddresses(a.races).empty());
  }
}

TEST(Race, SafeWorkloadsAreClean) {
  // The precision bar: zero pairs on every race-free twin. These programs
  // cover mutex locksets, atomic pairs, join-quiescence, and private-heap
  // classification respectively.
  for (const char* name :
       {"safe_mutex", "safe_atomic", "safe_join", "safe_heap"}) {
    SCOPED_TRACE(name);
    const AnalysisResult& a = CachedBuild(name).analysis;
    EXPECT_FALSE(a.races.Racy())
        << a.races.pairs.front().a.function << " vs "
        << a.races.pairs.front().b.function << " ("
        << a.races.pairs.front().reason << ")";
  }
}

TEST(Race, SafeHeapProvesItsBufferPrivate) {
  const AnalysisResult& a = CachedBuild("safe_heap").analysis;
  EXPECT_GE(a.alloc_sites, 1);
  EXPECT_EQ(a.escaped_sites, 0);
  EXPECT_GE(a.heap_local, 1);
}

// Hand-built two-thread program for the lockset resolver: main spawns two
// instances of `worker`; worker stores a mutex address in vr_rdi, optionally
// makes an intervening external call (which clobbers the caller-saved
// argument registers), locks, writes a shared global, and unlocks.
lift::LiftedProgram BuildLockProgram(bool clobber_between) {
  lift::LiftedProgram program;
  program.module = std::make_shared<ir::Module>();
  ir::Module& m = *program.module;
  ir::Global* rdi = m.AddGlobal("vr_rdi", false, 0);
  ir::Global* rdx = m.AddGlobal("vr_rdx", false, 0);
  program.externals = {"pthread_create", "pthread_mutex_lock",
                       "pthread_mutex_unlock", "print_i64"};

  Function* worker = m.AddFunction("worker", 0, false);
  {
    IRBuilder b(&m);
    b.SetInsertBlock(worker->AddBlock("entry"));
    b.GStore(rdi, b.Const(0x9000));  // &mtx
    if (clobber_between) {
      // print_i64: clobbers rdi
      b.CallIntrinsic(ir::Intrinsic::kExtCall, {b.Const(3)});
    }
    // pthread_mutex_lock
    b.CallIntrinsic(ir::Intrinsic::kExtCall, {b.Const(1)});
    b.Store(8, b.Const(0x8000), b.Const(1));    // shared write
    b.GStore(rdi, b.Const(0x9000));
    // pthread_mutex_unlock
    b.CallIntrinsic(ir::Intrinsic::kExtCall, {b.Const(2)});
    b.Ret();
  }

  Function* main_fn = m.AddFunction("main", 0, false);
  {
    IRBuilder b(&m);
    b.SetInsertBlock(main_fn->AddBlock("entry"));
    for (int i = 0; i < 2; ++i) {
      b.GStore(rdx, b.Const(0x2000));  // worker entry (arg 2)
      b.CallIntrinsic(ir::Intrinsic::kExtCall, {b.Const(0)});  // pthread_create
    }
    b.Ret();
  }

  program.functions_by_entry = {{0x1000, main_fn}, {0x2000, worker}};
  program.entry = 0x1000;
  return program;
}

TEST(Race, CallClobberInvalidatesLockRegister) {
  // The mutex-address constant is stale after an intervening call: vr_rdi is
  // caller-saved, so print_i64 may have overwritten it and the lock operand
  // is unknown. Resolving it anyway would fabricate lockset protection and
  // suppress the worker-vs-worker self-race on 0x8000.
  lift::LiftedProgram program = BuildLockProgram(/*clobber_between=*/true);
  AnalysisResult a = AnalyzeProgram(program);
  EXPECT_TRUE(a.races.Racy());
}

TEST(Race, ResolvedLockSuppressesSelfRace) {
  // Converse guard: with no intervening clobber the constant resolves, both
  // instances provably hold {0x9000} at the write, and no pair is reported.
  lift::LiftedProgram program = BuildLockProgram(/*clobber_between=*/false);
  AnalysisResult a = AnalyzeProgram(program);
  EXPECT_FALSE(a.races.Racy())
      << a.races.pairs.front().a.function << " ("
      << a.races.pairs.front().reason << ")";
}

TEST(Race, AnalysisJsonValidates) {
  const AnalysisResult& a = CachedBuild("racy_counter").analysis;
  json::Value v = a.ToJson();
  Status st = obs::ValidateAnalysisJson(v);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// --- StaticCert elision + TSO re-verification ----------------------------

TEST(StaticCert, ElidedBuildPassesTsoWithHeapWitnesses) {
  // The acceptance-criterion path: safe_heap's scratch buffer is proven
  // private, its fences are statically elided under a sealed cert, and the
  // TSO checker independently re-derives every stamped access.
  const Built& built = CachedBuild("safe_heap", /*analyze=*/true);
  const auto& options = built.recompiler->options();
  ASSERT_TRUE(options.static_cert.has_value());
  const check::StaticCert& cert = *options.static_cert;
  EXPECT_TRUE(cert.Sealed());
  EXPECT_GE(cert.heap_witnesses, 1);
  EXPECT_EQ(cert.race_pairs, 0);

  check::TsoCheckOptions check_options;
  check_options.static_cert = &cert;
  check_options.externals = &built.binary->program.externals;
  check::TsoCheckReport r =
      check::CheckModule(*built.binary->program.module, check_options);
  EXPECT_TRUE(r.ok()) << r.Summary();
  EXPECT_EQ(r.heap_witnesses_consumed,
            static_cast<size_t>(cert.heap_witnesses));
}

TEST(StaticCert, ForgedHeapWitnessIsRejected) {
  // Stamping kHeapLocal on an access the deriver cannot prove heap-private
  // must be reported as a forgery, cert or no cert.
  const Built& built = CachedBuild("safe_heap", /*analyze=*/true);
  const check::StaticCert& cert = *built.recompiler->options().static_cert;

  // Deep-copy-free variant: recompile fresh so the cached module stays
  // pristine for other tests.
  const workloads::Workload* w = workloads::FindWorkload("safe_heap");
  cc::CompileOptions cc_options;
  cc_options.name = "safe_heap";
  cc_options.opt_level = w->default_opt;
  auto image = cc::Compile(w->source, cc_options);
  ASSERT_TRUE(image.ok());
  recomp::RecompileOptions options;
  options.analyze = true;
  recomp::Recompiler recompiler(*image, options);
  auto binary = recompiler.Recompile();
  ASSERT_TRUE(binary.ok());

  // Forge: stamp kHeapLocal on the first unwitnessed access. Whatever it
  // addresses, it is by construction not a proven-private allocation (those
  // were all stamped by ApplyStaticElision), so re-derivation must fail.
  bool forged = false;
  for (auto& [addr, fn] : binary->program.functions_by_entry) {
    (void)addr;
    for (auto& b : fn->blocks()) {
      for (auto& inst : b->insts()) {
        if (!forged &&
            (inst->op() == ir::Op::kStore || inst->op() == ir::Op::kLoad) &&
            inst->fence_witness == ir::FenceWitness::kNone) {
          inst->fence_witness = ir::FenceWitness::kHeapLocal;
          forged = true;
        }
      }
    }
  }
  ASSERT_TRUE(forged);
  check::TsoCheckOptions check_options;
  check_options.static_cert = &cert;
  check_options.externals = &binary->program.externals;
  check::TsoCheckReport r =
      check::CheckModule(*binary->program.module, check_options);
  ASSERT_FALSE(r.ok());
  bool saw_forgery = false;
  for (const auto& v : r.violations) {
    saw_forgery |= v.kind == "forged-witness";
  }
  EXPECT_TRUE(saw_forgery) << r.Summary();
}

TEST(StaticCert, TamperedCertIsUnsealed) {
  const Built& built = CachedBuild("safe_heap", /*analyze=*/true);
  check::StaticCert cert = *built.recompiler->options().static_cert;
  ASSERT_TRUE(cert.Sealed());
  cert.heap_witnesses += 1;
  EXPECT_FALSE(cert.Sealed());
}

TEST(StaticCert, ElidedBuildRunsIdentically) {
  // Functional equivalence of the statically-elided build under the default
  // schedule (the schedule-space check lives in the CrossValidation suite).
  const Built& plain = CachedBuild("safe_heap", /*analyze=*/false);
  const Built& elided = CachedBuild("safe_heap", /*analyze=*/true);
  ASSERT_GE(elided.analysis.heap_local, 1);
  auto a = plain.recompiler->RunAdditive(*plain.binary, {});
  auto b = elided.recompiler->RunAdditive(*elided.binary, {});
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_TRUE(a->ok) << a->fault_message;
  ASSERT_TRUE(b->ok) << b->fault_message;
  EXPECT_EQ(a->output, b->output);
  EXPECT_EQ(a->exit_code, b->exit_code);
}

// --- Cross-validation: dynamic races ⊆ static report ---------------------

sched::OutcomeSet Explore(const Built& built,
                          const std::set<uint64_t>& hints) {
  sched::ExploreOptions options;
  options.seed = 1;
  options.strategy = sched::ExploreOptions::Strategy::kPct;
  options.budget = 48;
  options.preemption_hints = hints;
  sched::RunFn run = [&built](sched::Scheduler* scheduler) {
    exec::ExecOptions exec_options;
    exec_options.seed = 1;
    exec_options.scheduler = scheduler;
    exec::ExecResult r = built.binary->Run({}, exec_options);
    sched::Outcome outcome;
    outcome.ok = r.ok;
    outcome.exit_code = r.exit_code;
    outcome.output = r.output;
    outcome.fault_message = r.fault_message;
    outcome.state_digest = r.state_digest;
    return outcome;
  };
  return sched::EnumerateOutcomes(run, options.seed, options);
}

TEST(CrossValidation, DynamicRacesAreStaticallyReported) {
  // The soundness direction of the acceptance criteria: any workload where
  // schedule exploration can produce two distinct outcomes has a dynamically
  // confirmed race, and the static detector must already report it. The
  // racy workloads double as non-vacuousness controls — exploration (seeded
  // with the detector's own preemption hints) must actually exhibit their
  // races.
  for (const char* name :
       {"racy_counter", "racy_lastwrite", "racy_helper_spawn", "safe_mutex",
        "safe_atomic", "safe_join", "safe_heap"}) {
    SCOPED_TRACE(name);
    const Built& built = CachedBuild(name);
    // Warm the CFG under the default schedule so exploration never trips
    // over control-flow misses.
    auto warm = built.recompiler->RunAdditive(*built.binary, {});
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    sched::OutcomeSet outcomes =
        Explore(built, RaceHintAddresses(built.analysis.races));
    bool dynamic_race = outcomes.outcomes.size() > 1;
    bool static_race = built.analysis.races.Racy();
    if (dynamic_race) {
      EXPECT_TRUE(static_race)
          << "dynamically confirmed race missed by the static detector";
    }
    if (std::string(name).rfind("racy_", 0) == 0) {
      EXPECT_TRUE(dynamic_race) << "seeded race never exhibited in "
                                << outcomes.runs << " runs";
    } else {
      EXPECT_FALSE(static_race);
      EXPECT_EQ(outcomes.outcomes.size(), 1u)
          << "safe workload diverged: " << outcomes.runs << " runs";
    }
  }
}

}  // namespace
}  // namespace polynima::analyze

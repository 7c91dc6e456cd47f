// Tests for the multithreaded x86 VM: arithmetic semantics, control flow,
// externals, thread scheduling determinism, data-race observability in
// precise-race mode, and spinlock correctness with lock-prefixed atomics.
#include <gtest/gtest.h>

#include "src/binary/builder.h"
#include "src/vm/vm.h"
#include "src/x86/assembler.h"

namespace polynima::vm {
namespace {

using binary::Image;
using binary::ImageBuilder;
using x86::Cond;
using x86::I3;
using x86::Inst;
using x86::I0;
using x86::I1;
using x86::I2;
using x86::Label;
using x86::MemRef;
using x86::Mnemonic;
using x86::Operand;
using x86::Reg;

MemRef Abs(uint64_t addr) {
  MemRef m;
  m.disp = static_cast<int32_t>(addr);
  return m;
}

MemRef BaseDisp(Reg base, int32_t disp = 0) {
  MemRef m;
  m.base = base;
  m.disp = disp;
  return m;
}

RunResult RunImage(const Image& image, VmOptions options = {},
                   std::vector<std::vector<uint8_t>> inputs = {}) {
  ExternalLibrary library;
  Vm vm(image, &library, options);
  vm.SetInputs(std::move(inputs));
  return vm.Run();
}

// Builds: sum = 1+2+...+10, print_i64(sum), return 0.
Image SumProgram() {
  ImageBuilder b("sum");
  uint64_t print_i64 = b.Extern("print_i64");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  Label loop = a.NewLabel();
  a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRax), Operand::R(Reg::kRax)));
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRcx), Operand::I(1)));
  a.Bind(loop);
  a.Emit(I2(Mnemonic::kAdd, 8, Operand::R(Reg::kRax), Operand::R(Reg::kRcx)));
  a.Emit(I2(Mnemonic::kAdd, 8, Operand::R(Reg::kRcx), Operand::I(1)));
  a.Emit(I2(Mnemonic::kCmp, 8, Operand::R(Reg::kRcx), Operand::I(10)));
  a.Jcc(Cond::kLe, loop);
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi), Operand::R(Reg::kRax)));
  a.CallAbs(print_i64);
  a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRax), Operand::R(Reg::kRax)));
  a.Emit(I0(Mnemonic::kRet));
  return b.Build();
}

TEST(VmTest, SumLoop) {
  RunResult r = RunImage(SumProgram());
  ASSERT_TRUE(r.ok) << r.fault_message;
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_EQ(r.output, "55");
  EXPECT_GT(r.wall_time, 0u);
}

TEST(VmTest, DeterministicAcrossRuns) {
  RunResult r1 = RunImage(SumProgram());
  RunResult r2 = RunImage(SumProgram());
  EXPECT_EQ(r1.wall_time, r2.wall_time);
  EXPECT_EQ(r1.instructions, r2.instructions);
}

TEST(VmTest, GlobalDataAndFunctionCall) {
  ImageBuilder b("global");
  auto& d = b.data();
  uint64_t counter_addr = d.CurrentAddress();
  d.Dq(uint64_t{7});

  auto& a = b.code();
  // callee: rax = [counter] * rdi; ret
  Label callee = a.NewLabel();
  a.Bind(callee);
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax),
            Operand::M(Abs(counter_addr))));
  a.Emit(I2(Mnemonic::kImul, 8, Operand::R(Reg::kRax), Operand::R(Reg::kRdi)));
  a.Emit(I0(Mnemonic::kRet));

  // main: rdi = 6; call callee; ret (exit code = 42)
  uint64_t entry = a.CurrentAddress();
  b.SetEntry(entry);
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi), Operand::I(6)));
  a.Call(callee);
  a.Emit(I0(Mnemonic::kRet));

  RunResult r = RunImage(b.Build());
  ASSERT_TRUE(r.ok) << r.fault_message;
  EXPECT_EQ(r.exit_code, 42);
}

TEST(VmTest, FlagsSignedComparisons) {
  // Computes: (-5 < 3), (3 > -5), (7 == 7) via setcc; exit code packs them.
  ImageBuilder b("flags");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRax), Operand::R(Reg::kRax)));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRcx), Operand::I(-5)));
  a.Emit(I2(Mnemonic::kCmp, 8, Operand::R(Reg::kRcx), Operand::I(3)));
  Inst setl = I1(Mnemonic::kSetcc, 1, Operand::R(Reg::kRax));
  setl.cond = Cond::kL;
  a.Emit(setl);  // rax = 1
  a.Emit(I2(Mnemonic::kShl, 8, Operand::R(Reg::kRax), Operand::I(1)));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdx), Operand::I(3)));
  a.Emit(I2(Mnemonic::kCmp, 8, Operand::R(Reg::kRdx), Operand::I(-5)));
  Inst setg = I1(Mnemonic::kSetcc, 1, Operand::R(Reg::kRbx));
  setg.cond = Cond::kG;
  a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRbx), Operand::R(Reg::kRbx)));
  a.Emit(I2(Mnemonic::kCmp, 8, Operand::R(Reg::kRdx), Operand::I(-5)));
  a.Emit(setg);
  a.Emit(I2(Mnemonic::kOr, 8, Operand::R(Reg::kRax), Operand::R(Reg::kRbx)));
  a.Emit(I0(Mnemonic::kRet));
  RunResult r = RunImage(b.Build());
  ASSERT_TRUE(r.ok) << r.fault_message;
  EXPECT_EQ(r.exit_code, 3);  // (1 << 1) | 1
}

TEST(VmTest, DivisionAndSignExtension) {
  // rax = -100 / 7 = -14 (C truncation), remainder -2 in rdx.
  ImageBuilder b("div");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax), Operand::I(-100)));
  a.Emit(I0(Mnemonic::kCqo, 8));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRcx), Operand::I(7)));
  a.Emit(I1(Mnemonic::kIdiv, 8, Operand::R(Reg::kRcx)));
  // exit code = quotient * 100 + |remainder|: -14 * 100 - (-2) => -1398
  a.Emit(I3(Mnemonic::kImul, 8, Operand::R(Reg::kRax),
            Operand::R(Reg::kRax), Operand::I(100)));
  a.Emit(I2(Mnemonic::kAdd, 8, Operand::R(Reg::kRax), Operand::R(Reg::kRdx)));
  a.Emit(I0(Mnemonic::kRet));
  RunResult r = RunImage(b.Build());
  ASSERT_TRUE(r.ok) << r.fault_message;
  EXPECT_EQ(r.exit_code, -1402);  // -1400 + (-2)
}

TEST(VmTest, DivideByZeroFaults) {
  ImageBuilder b("div0");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax), Operand::I(1)));
  a.Emit(I0(Mnemonic::kCqo, 8));
  a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRcx), Operand::R(Reg::kRcx)));
  a.Emit(I1(Mnemonic::kIdiv, 8, Operand::R(Reg::kRcx)));
  a.Emit(I0(Mnemonic::kRet));
  RunResult r = RunImage(b.Build());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.fault_message.find("divide"), std::string::npos);
}

// rdx:rax = -2^127 divided by -1: the one quotient that overflows even in
// 128 bits. It must fault like every other overflowing idiv, with no
// undefined behaviour in the VM (the asan-ubsan preset checks that).
TEST(VmTest, Int128MinDividedByMinusOneFaults) {
  ImageBuilder b("div_ovf");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdx), Operand::I(INT64_MIN)));
  a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRax), Operand::R(Reg::kRax)));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRcx), Operand::I(-1)));
  a.Emit(I1(Mnemonic::kIdiv, 8, Operand::R(Reg::kRcx)));
  a.Emit(I0(Mnemonic::kRet));
  RunResult r = RunImage(b.Build());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.fault_message.find("integer division overflow"),
            std::string::npos)
      << r.fault_message;
}

TEST(VmTest, WildMemoryAccessFaults) {
  ImageBuilder b("wild");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax),
            Operand::M(Abs(0x123))));  // unmapped low page
  a.Emit(I0(Mnemonic::kRet));
  RunResult r = RunImage(b.Build());
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.fault_message.find("memory access violation"), std::string::npos);
}

TEST(VmTest, Ud2Faults) {
  ImageBuilder b("ud2");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I0(Mnemonic::kUd2));
  RunResult r = RunImage(b.Build());
  EXPECT_FALSE(r.ok);
}

TEST(VmTest, JumpTableDispatch) {
  // switch(rdi) via jump table; exit code = 10/20/30 depending on selector.
  for (int sel = 0; sel < 3; ++sel) {
    ImageBuilder b("jumptable");
    auto& a = b.code();
    Label table = a.NewLabel();
    Label c0 = a.NewLabel(), c1 = a.NewLabel(), c2 = a.NewLabel();
    b.SetEntry(a.CurrentAddress());
    a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi),
              Operand::I(sel)));
    a.MovLabelAddress(Reg::kRax, table);
    MemRef slot;
    slot.base = Reg::kRax;
    slot.index = Reg::kRdi;
    slot.scale = 8;
    a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax), Operand::M(slot)));
    a.Emit(I1(Mnemonic::kJmp, 8, Operand::R(Reg::kRax)));
    a.Align(8);
    a.Bind(table);  // data-in-code: jump table
    a.Dq(c0);
    a.Dq(c1);
    a.Dq(c2);
    a.Bind(c0);
    a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(10)));
    a.Emit(I0(Mnemonic::kRet));
    a.Bind(c1);
    a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(20)));
    a.Emit(I0(Mnemonic::kRet));
    a.Bind(c2);
    a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(30)));
    a.Emit(I0(Mnemonic::kRet));
    RunResult r = RunImage(b.Build());
    ASSERT_TRUE(r.ok) << r.fault_message;
    EXPECT_EQ(r.exit_code, (sel + 1) * 10);
  }
}

// Multithreaded image: N threads, each adds 1 to a shared counter `iters`
// times. If `use_lock`, the increment is `lock add`; otherwise a plain
// (splittable) add.
Image CounterProgram(int nthreads, int iters, bool use_lock) {
  ImageBuilder b("counter");
  uint64_t pthread_create = b.Extern("pthread_create");
  uint64_t pthread_join = b.Extern("pthread_join");
  auto& d = b.data();
  uint64_t counter = d.CurrentAddress();
  d.Dq(uint64_t{0});
  uint64_t tids = d.CurrentAddress();
  for (int i = 0; i < nthreads; ++i) {
    d.Dq(uint64_t{0});
  }

  auto& a = b.code();
  // worker: for (i = 0; i < iters; ++i) counter += 1; return 0;
  Label worker = a.NewLabel();
  a.Bind(worker);
  Label wl = a.NewLabel();
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRcx), Operand::I(iters)));
  a.Bind(wl);
  Inst add = I2(Mnemonic::kAdd, 8, Operand::M(Abs(counter)), Operand::I(1));
  add.lock = use_lock;
  a.Emit(add);
  a.Emit(I2(Mnemonic::kSub, 8, Operand::R(Reg::kRcx), Operand::I(1)));
  a.Jcc(Cond::kNe, wl);
  a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRax), Operand::R(Reg::kRax)));
  a.Emit(I0(Mnemonic::kRet));

  // main: spawn N workers, join, return counter.
  uint64_t entry = a.CurrentAddress();
  b.SetEntry(entry);
  for (int i = 0; i < nthreads; ++i) {
    a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi),
              Operand::I(static_cast<int64_t>(tids + 8u * i))));
    a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRsi), Operand::R(Reg::kRsi)));
    a.MovLabelAddress(Reg::kRdx, worker);
    a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRcx), Operand::R(Reg::kRcx)));
    a.CallAbs(pthread_create);
  }
  for (int i = 0; i < nthreads; ++i) {
    a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi),
              Operand::M(Abs(tids + 8u * i))));
    a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRsi), Operand::R(Reg::kRsi)));
    a.CallAbs(pthread_join);
  }
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax),
            Operand::M(Abs(counter))));
  a.Emit(I0(Mnemonic::kRet));
  return b.Build();
}

TEST(VmThreads, LockedCounterIsExact) {
  VmOptions opts;
  opts.precise_races = true;
  RunResult r = RunImage(CounterProgram(4, 500, /*use_lock=*/true), opts);
  ASSERT_TRUE(r.ok) << r.fault_message;
  EXPECT_EQ(r.exit_code, 2000);
}

TEST(VmThreads, UnlockedCounterLosesUpdatesInPreciseRaceMode) {
  // With non-atomic read-modify-write increments, some seed must exhibit a
  // lost update. (Any seed losing updates proves races are observable.)
  bool lost = false;
  for (uint64_t seed = 1; seed <= 10 && !lost; ++seed) {
    VmOptions opts;
    opts.seed = seed;
    opts.precise_races = true;
    RunResult r = RunImage(CounterProgram(4, 500, /*use_lock=*/false), opts);
    ASSERT_TRUE(r.ok) << r.fault_message;
    ASSERT_LE(r.exit_code, 2000);
    if (r.exit_code < 2000) {
      lost = true;
    }
  }
  EXPECT_TRUE(lost);
}

TEST(VmThreads, ParallelSpeedup) {
  // 4 threads at 500 iterations should take well under 4x the simulated time
  // of 1 thread at 2000 iterations.
  RunResult serial = RunImage(CounterProgram(1, 2000, true));
  RunResult parallel = RunImage(CounterProgram(4, 500, true));
  ASSERT_TRUE(serial.ok);
  ASSERT_TRUE(parallel.ok);
  EXPECT_LT(parallel.wall_time, serial.wall_time * 2 / 3);
}

// Spinlock via lock cmpxchg: threads acquire, increment unprotected counter,
// release. Counter must be exact even in precise race mode because the
// critical section serializes.
Image SpinlockProgram(int nthreads, int iters) {
  ImageBuilder b("spinlock");
  uint64_t pthread_create = b.Extern("pthread_create");
  uint64_t pthread_join = b.Extern("pthread_join");
  auto& d = b.data();
  uint64_t lockw = d.CurrentAddress();
  d.Dq(uint64_t{0});
  uint64_t counter = d.CurrentAddress();
  d.Dq(uint64_t{0});
  uint64_t tids = d.CurrentAddress();
  for (int i = 0; i < nthreads; ++i) {
    d.Dq(uint64_t{0});
  }

  auto& a = b.code();
  Label worker = a.NewLabel();
  a.Bind(worker);
  Label outer = a.NewLabel(), acquire = a.NewLabel(), retry = a.NewLabel();
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRbx), Operand::I(iters)));
  a.Bind(outer);
  // acquire: while (!CAS(lock, 0, 1)) pause;
  a.Bind(acquire);
  a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRax), Operand::R(Reg::kRax)));
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRcx), Operand::I(1)));
  Inst cas = I2(Mnemonic::kCmpxchg, 8, Operand::M(Abs(lockw)),
                Operand::R(Reg::kRcx));
  cas.lock = true;
  a.Emit(cas);
  Label got = a.NewLabel();
  a.Jcc(Cond::kE, got);
  a.Bind(retry);
  a.Emit(I0(Mnemonic::kPause));
  a.Jmp(acquire);
  a.Bind(got);
  // critical section: plain RMW increment (safe only under the lock).
  a.Emit(I2(Mnemonic::kAdd, 8, Operand::M(Abs(counter)), Operand::I(1)));
  // release: store 0.
  a.Emit(I2(Mnemonic::kMov, 8, Operand::M(Abs(lockw)), Operand::I(0)));
  a.Emit(I2(Mnemonic::kSub, 8, Operand::R(Reg::kRbx), Operand::I(1)));
  a.Jcc(Cond::kNe, outer);
  a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRax), Operand::R(Reg::kRax)));
  a.Emit(I0(Mnemonic::kRet));

  uint64_t entry = a.CurrentAddress();
  b.SetEntry(entry);
  for (int i = 0; i < nthreads; ++i) {
    a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi),
              Operand::I(static_cast<int64_t>(tids + 8u * i))));
    a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRsi), Operand::R(Reg::kRsi)));
    a.MovLabelAddress(Reg::kRdx, worker);
    a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRcx), Operand::R(Reg::kRcx)));
    a.CallAbs(pthread_create);
  }
  for (int i = 0; i < nthreads; ++i) {
    a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi),
              Operand::M(Abs(tids + 8u * i))));
    a.Emit(I2(Mnemonic::kXor, 4, Operand::R(Reg::kRsi), Operand::R(Reg::kRsi)));
    a.CallAbs(pthread_join);
  }
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax),
            Operand::M(Abs(counter))));
  a.Emit(I0(Mnemonic::kRet));
  return b.Build();
}

class SpinlockSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SpinlockSeeds, SpinlockProtectsPlainIncrement) {
  VmOptions opts;
  opts.seed = GetParam();
  opts.precise_races = true;
  RunResult r = RunImage(SpinlockProgram(4, 200), opts);
  ASSERT_TRUE(r.ok) << r.fault_message;
  EXPECT_EQ(r.exit_code, 800);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpinlockSeeds,
                         ::testing::Values(1, 2, 3, 7, 11, 99));

TEST(VmExternals, QsortWithGuestComparator) {
  ImageBuilder b("qsort");
  uint64_t qsort_addr = b.Extern("qsort");
  auto& d = b.data();
  uint64_t arr = d.CurrentAddress();
  const int64_t values[] = {5, -3, 9, 0, 7, -8, 2, 2};
  for (int64_t v : values) {
    d.Dq(static_cast<uint64_t>(v));
  }

  auto& a = b.code();
  // cmp(a, b): return *(i64*)a - *(i64*)b clamped to {-1,0,1} via flags.
  Label cmp = a.NewLabel();
  a.Bind(cmp);
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax),
            Operand::M(BaseDisp(Reg::kRdi))));
  a.Emit(I2(Mnemonic::kSub, 8, Operand::R(Reg::kRax),
            Operand::M(BaseDisp(Reg::kRsi))));
  a.Emit(I0(Mnemonic::kRet));

  uint64_t entry = a.CurrentAddress();
  b.SetEntry(entry);
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi),
            Operand::I(static_cast<int64_t>(arr))));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRsi), Operand::I(8)));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdx), Operand::I(8)));
  a.MovLabelAddress(Reg::kRcx, cmp);
  a.CallAbs(qsort_addr);
  // exit code = arr[0] (should be -8)
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax), Operand::M(Abs(arr))));
  a.Emit(I0(Mnemonic::kRet));

  RunResult r = RunImage(b.Build());
  ASSERT_TRUE(r.ok) << r.fault_message;
  EXPECT_EQ(r.exit_code, -8);
}

TEST(VmExternals, MallocMemcpyStrlen) {
  ImageBuilder b("libc");
  uint64_t malloc_addr = b.Extern("malloc");
  uint64_t strcpy_addr = b.Extern("strcpy");
  uint64_t strlen_addr = b.Extern("strlen");
  auto& d = b.data();
  uint64_t hello = d.CurrentAddress();
  d.Dstr("hello world");

  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi), Operand::I(64)));
  a.CallAbs(malloc_addr);
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRbx), Operand::R(Reg::kRax)));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi), Operand::R(Reg::kRax)));
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRsi),
            Operand::I(static_cast<int64_t>(hello))));
  a.CallAbs(strcpy_addr);
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi), Operand::R(Reg::kRbx)));
  a.CallAbs(strlen_addr);
  a.Emit(I0(Mnemonic::kRet));
  RunResult r = RunImage(b.Build());
  ASSERT_TRUE(r.ok) << r.fault_message;
  EXPECT_EQ(r.exit_code, 11);
}

TEST(VmTransfers, HookSeesIndirectTargets) {
  std::vector<TransferEvent> events;
  Image img = SumProgram();
  ExternalLibrary library;
  Vm vm(img, &library, {});
  vm.SetTransferHook([&](const TransferEvent& e) { events.push_back(e); });
  RunResult r = vm.Run();
  ASSERT_TRUE(r.ok);
  // Expect: 10 loop branches, 1 call, 1 ret (to exit magic).
  int jumps = 0, calls = 0, rets = 0;
  for (const auto& e : events) {
    switch (e.kind) {
      case TransferEvent::Kind::kJump:
        ++jumps;
        break;
      case TransferEvent::Kind::kCall:
        ++calls;
        break;
      case TransferEvent::Kind::kRet:
        ++rets;
        break;
    }
  }
  EXPECT_EQ(jumps, 10);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(rets, 1);
}

TEST(VmTest, ImageSerializationRoundTrip) {
  Image img = SumProgram();
  std::vector<uint8_t> data = img.Serialize();
  auto back = Image::Deserialize(data);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->entry_point, img.entry_point);
  EXPECT_EQ(back->segments.size(), img.segments.size());
  EXPECT_EQ(back->segments[0].bytes, img.segments[0].bytes);
  EXPECT_EQ(back->externals, img.externals);
  RunResult r = RunImage(*back);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.output, "55");
}

}  // namespace
}  // namespace polynima::vm

// Validates every evaluation workload end-to-end: the mcc source compiles at
// O0 and O2, the original binary runs in the VM, Polynima recompiles it, and
// the recompiled output matches the original exactly. This is the substance
// of the paper's "we report correct outputs across all the test cases that
// we run" (§4.2) — here it is enforced by CI for every workload.
#include <gtest/gtest.h>

#include "src/cc/compiler.h"
#include "src/recomp/recompiler.h"
#include "src/vm/vm.h"
#include "src/workloads/workloads.h"

namespace polynima::workloads {
namespace {

struct Case {
  const Workload* workload;
  int opt_level;
};

// gtest prints a `Case` as its raw bytes, so every case's ctest name holds
// the heap address of its Workload. With address randomisation off, the heap
// starts on the page after .bss, and a change to src/ that moves the end of
// .bss across a page renames up to 98 cases. This reserve sets where .bss
// ends (`readelf -SW tests/workloads_test`): 0x2c00 bytes put it at
// 0x19e7c8, in the page it ended in before src/ lost three pages of code.
// When a change moves that end to another page, resize the reserve and
// compare `setarch -R` listings run from build/tests before and after.
[[gnu::used]] char bss_reserve[0x2c00];

std::vector<Case> AllCases() {
  std::vector<Case> cases;
  for (const auto* suite :
       {&Phoenix(), &Gapbs(false), &Gapbs(true), &CkitSpinlocks(), &Apps(),
        &SpecLike(), &Indirect()}) {
    for (const Workload& w : *suite) {
      cases.push_back({&w, 0});
      cases.push_back({&w, 2});
    }
  }
  return cases;
}

class WorkloadEquivalence : public ::testing::TestWithParam<Case> {};

TEST_P(WorkloadEquivalence, RecompiledMatchesOriginal) {
  const Workload& w = *GetParam().workload;
  cc::CompileOptions cc_options;
  cc_options.name = w.name;
  cc_options.opt_level = GetParam().opt_level;
  cc_options.landing_pads = w.landing_pads;
  auto image = cc::Compile(w.source, cc_options);
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  std::vector<std::vector<uint8_t>> inputs = w.make_inputs(/*scale=*/0);

  vm::ExternalLibrary library;
  vm::Vm virtual_machine(*image, &library, {});
  virtual_machine.SetInputs(inputs);
  vm::RunResult original = virtual_machine.Run();
  ASSERT_TRUE(original.ok) << "original: " << original.fault_message;
  ASSERT_FALSE(original.output.empty());

  recomp::Recompiler recompiler(*image, {});
  auto binary = recompiler.Recompile();
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  auto result = recompiler.RunAdditive(*binary, inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->ok) << "recompiled: " << result->fault_message;
  EXPECT_EQ(result->output, original.output);
  EXPECT_EQ(result->exit_code, original.exit_code);
}

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return info.param.workload->suite + "_" + info.param.workload->name + "_O" +
         std::to_string(info.param.opt_level);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadEquivalence,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(Workloads, RegistryIsComplete) {
  EXPECT_EQ(Phoenix().size(), 7u);
  EXPECT_EQ(Gapbs(true).size(), 8u);
  EXPECT_EQ(Gapbs(false).size(), 8u);
  EXPECT_EQ(CkitSpinlocks().size(), 11u);
  EXPECT_EQ(Apps().size(), 4u);
  EXPECT_EQ(SpecLike().size(), 9u);
  EXPECT_EQ(Indirect().size(), 2u);
  EXPECT_NE(FindWorkload("fnptr_dispatch"), nullptr);
  EXPECT_NE(FindWorkload("histogram"), nullptr);
  EXPECT_NE(FindWorkload("ck_mcs"), nullptr);
  EXPECT_EQ(FindWorkload("nonexistent"), nullptr);
}

TEST(Workloads, LightFtpExploitChangesBehaviour) {
  // The CVE-2023-24042 sequence: LIST writes FileName and blocks the
  // handler; USER overwrites FileName; CONNECT unblocks the handler, which
  // then lists the overwritten path.
  const Workload* w = FindWorkload("lightftp");
  ASSERT_NE(w, nullptr);
  cc::CompileOptions options;
  options.name = "lightftp";
  options.opt_level = 2;
  auto image = cc::Compile(w->source, options);
  ASSERT_TRUE(image.ok()) << image.status().ToString();

  auto run = [&](const std::string& commands) {
    const std::string fs("pub\0data\0/etc/passwd\0", 21);
    std::vector<std::vector<uint8_t>> inputs = {
        std::vector<uint8_t>(commands.begin(), commands.end()),
        std::vector<uint8_t>(fs.begin(), fs.end())};
    vm::ExternalLibrary library;
    vm::Vm virtual_machine(*image, &library, {});
    virtual_machine.SetInputs(inputs);
    return virtual_machine.Run();
  };

  vm::RunResult benign = run("LIST pub\nCONNECT\nQUIT\n");
  ASSERT_TRUE(benign.ok) << benign.fault_message;
  EXPECT_NE(benign.output.find("150 LIST pub"), std::string::npos);

  vm::RunResult exploit =
      run("LIST pub\nUSER /etc/passwd\nCONNECT\nQUIT\n");
  ASSERT_TRUE(exploit.ok) << exploit.fault_message;
  // The handler lists the overwritten path: directory traversal.
  EXPECT_NE(exploit.output.find("150 LIST /etc/passwd"), std::string::npos);
}

}  // namespace
}  // namespace polynima::workloads

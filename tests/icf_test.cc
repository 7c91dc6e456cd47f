// Tests for sound indirect control-flow recovery (--cfg-sound, DESIGN.md
// §4i): the icf pass proves masked const-table dispatch sites complete and
// leaves mutable-slot sites open, the sealed CfgCert rejects forged and
// stale copies (falling back to dynamic recovery), certified functions take
// zero uncovered-edge deopts at every tier, and the sound build is
// bit-identical to the unsound build (output, steps, state digest).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/cc/compiler.h"
#include "src/check/witness.h"
#include "src/obs/metrics.h"
#include "src/obs/tierprof.h"
#include "src/recomp/recompiler.h"
#include "src/vm/vm.h"
#include "src/workloads/workloads.h"

namespace polynima {
namespace {

binary::Image CompileWorkload(const workloads::Workload& w, int opt_level) {
  cc::CompileOptions options;
  options.name = w.name;
  options.opt_level = opt_level;
  options.landing_pads = w.landing_pads;
  auto image = cc::Compile(w.source, options);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return std::move(*image);
}

const workloads::Workload& Named(const std::string& name) {
  const workloads::Workload* w = workloads::FindWorkload(name);
  EXPECT_NE(w, nullptr) << name;
  return *w;
}

std::string VmReference(const binary::Image& image,
                        const std::vector<std::vector<uint8_t>>& inputs,
                        int* exit_code) {
  vm::ExternalLibrary library;
  vm::Vm virtual_machine(image, &library, {});
  virtual_machine.SetInputs(inputs);
  vm::RunResult r = virtual_machine.Run();
  EXPECT_TRUE(r.ok) << r.fault_message;
  *exit_code = r.exit_code;
  return r.output;
}

// All three fnptr_dispatch sites index a const .rodata table through a
// masked selector: every site proves complete and every function is covered.
TEST(IcfAnalysis, ProvesAllMaskedTableSites) {
  const workloads::Workload& w = Named("fnptr_dispatch");
  binary::Image image = CompileWorkload(w, 2);

  recomp::RecompileOptions options;
  options.cfg_sound = true;
  recomp::Recompiler recompiler(std::move(image), options);
  auto binary = recompiler.Recompile();
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();

  const recomp::RecompileStats& stats = recompiler.stats();
  EXPECT_GT(stats.icf_landing_pads, 0);
  EXPECT_EQ(stats.icf_sites_proven, 3);
  EXPECT_EQ(stats.icf_sites_open, 0);
  EXPECT_EQ(stats.icf_certs_rejected, 0u);

  ASSERT_TRUE(recompiler.options().cfg_cert.has_value());
  const check::CfgCert& cert = *recompiler.options().cfg_cert;
  EXPECT_TRUE(cert.Sealed());
  EXPECT_TRUE(check::VerifyCfgCert(cert, recompiler.image()));
  EXPECT_EQ(cert.sites.size(), 3u);
  // Every proven target set is non-empty, sorted, and a subset of the
  // landing pads (the sites dispatch through one 8-entry table).
  for (const check::CfgCert::Site& site : cert.sites) {
    ASSERT_FALSE(site.targets.empty());
    EXPECT_LE(site.targets.size(), 8u);
    EXPECT_TRUE(std::is_sorted(site.targets.begin(), site.targets.end()));
  }
  // All-proven program: every function with an indirect site is covered.
  EXPECT_FALSE(cert.covered_functions.empty());

  // The run still produces the VM-reference output with no dynamic recovery.
  std::vector<std::vector<uint8_t>> inputs = w.make_inputs(0);
  int ref_exit = 0;
  std::string reference = VmReference(recompiler.image(), inputs, &ref_exit);
  auto result = recompiler.RunAdditive(*binary, inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->ok) << result->fault_message;
  EXPECT_EQ(result->output, reference);
  EXPECT_EQ(result->exit_code, ref_exit);
  EXPECT_EQ(stats.additive_rounds, 0);
}

// switchboard mixes both verdicts: the const vtable sites prove complete,
// the mutable .data audit hook must stay open (any store could retarget it).
TEST(IcfAnalysis, MutableHookSiteStaysOpen) {
  const workloads::Workload& w = Named("switchboard");
  binary::Image image = CompileWorkload(w, 2);

  recomp::RecompileOptions options;
  options.cfg_sound = true;
  recomp::Recompiler recompiler(std::move(image), options);
  auto binary = recompiler.Recompile();
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();

  const recomp::RecompileStats& stats = recompiler.stats();
  EXPECT_EQ(stats.icf_sites_proven, 2);
  EXPECT_EQ(stats.icf_sites_open, 1);

  ASSERT_TRUE(recompiler.options().cfg_cert.has_value());
  const check::CfgCert& cert = *recompiler.options().cfg_cert;
  EXPECT_EQ(cert.sites.size(), 2u);
  EXPECT_EQ(cert.sites_open, 1);
  // sweep() contains the open hook site, so it must NOT be covered; the
  // covered set is exactly the functions whose sites all proved.
  for (const check::CfgCert::Site& site : cert.sites) {
    EXPECT_TRUE(site.is_call);
  }

  std::vector<std::vector<uint8_t>> inputs = w.make_inputs(0);
  int ref_exit = 0;
  std::string reference = VmReference(recompiler.image(), inputs, &ref_exit);
  auto result = recompiler.RunAdditive(*binary, inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->ok) << result->fault_message;
  EXPECT_EQ(result->output, reference);
}

// Unit-level seal checks: any field tamper breaks the seal, and a sealed
// cert still fails verification against a different image (stale).
TEST(CfgCert, SealDetectsTamperAndStaleBinding) {
  binary::Image image = CompileWorkload(Named("fnptr_dispatch"), 2);
  recomp::RecompileOptions options;
  options.cfg_sound = true;
  recomp::Recompiler recompiler(std::move(image), options);
  ASSERT_TRUE(recompiler.Recompile().ok());
  ASSERT_TRUE(recompiler.options().cfg_cert.has_value());
  check::CfgCert cert = *recompiler.options().cfg_cert;
  ASSERT_TRUE(check::VerifyCfgCert(cert, recompiler.image()));

  // Flipped checksum: unsealed.
  check::CfgCert forged = cert;
  forged.checksum ^= 1;
  EXPECT_FALSE(forged.Sealed());
  EXPECT_FALSE(check::VerifyCfgCert(forged, recompiler.image()));

  // A widened target set re-sealed by the attacker: the checksum matches the
  // forged fields, but re-sealing is detectable only through binding — so
  // tamper WITHOUT re-seal must break Sealed().
  check::CfgCert widened = cert;
  ASSERT_FALSE(widened.sites.empty());
  widened.sites[0].targets.push_back(0xdead000);
  EXPECT_FALSE(widened.Sealed());
  EXPECT_FALSE(check::VerifyCfgCert(widened, recompiler.image()));

  // Sealed but bound to a different binary: stale.
  binary::Image other = CompileWorkload(Named("switchboard"), 2);
  EXPECT_NE(check::BinaryKey(other), cert.binary_key);
  EXPECT_FALSE(check::VerifyCfgCert(cert, other));
}

// A forged certificate supplied to the recompiler is rejected, counted, and
// re-derived from scratch; the build still runs correctly.
TEST(CfgCert, RecompilerRejectsForgedCertAndFallsBack) {
  const workloads::Workload& w = Named("fnptr_dispatch");
  binary::Image image = CompileWorkload(w, 2);

  // Mint a genuine cert first.
  recomp::RecompileOptions mint_options;
  mint_options.cfg_sound = true;
  recomp::Recompiler minter(image, mint_options);
  ASSERT_TRUE(minter.Recompile().ok());
  ASSERT_TRUE(minter.options().cfg_cert.has_value());
  check::CfgCert forged = *minter.options().cfg_cert;
  forged.sites[0].targets.push_back(0xdead000);  // widen without re-sealing

  recomp::RecompileOptions options;
  options.cfg_sound = true;
  options.cfg_cert = forged;
  recomp::Recompiler recompiler(std::move(image), options);
  auto binary = recompiler.Recompile();
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(recompiler.stats().icf_certs_rejected, 1u);
  // Fallback re-derived a genuine certificate.
  ASSERT_TRUE(recompiler.options().cfg_cert.has_value());
  EXPECT_TRUE(
      check::VerifyCfgCert(*recompiler.options().cfg_cert, recompiler.image()));
  EXPECT_EQ(recompiler.stats().icf_sites_proven, 3);

  std::vector<std::vector<uint8_t>> inputs = w.make_inputs(0);
  int ref_exit = 0;
  std::string reference = VmReference(recompiler.image(), inputs, &ref_exit);
  auto result = recompiler.RunAdditive(*binary, inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->ok) << result->fault_message;
  EXPECT_EQ(result->output, reference);
}

// A certificate minted for a different binary (stale) is likewise rejected.
TEST(CfgCert, RecompilerRejectsStaleCertFromOtherBinary) {
  binary::Image other = CompileWorkload(Named("switchboard"), 2);
  recomp::RecompileOptions mint_options;
  mint_options.cfg_sound = true;
  recomp::Recompiler minter(std::move(other), mint_options);
  ASSERT_TRUE(minter.Recompile().ok());
  check::CfgCert stale = *minter.options().cfg_cert;

  const workloads::Workload& w = Named("fnptr_dispatch");
  binary::Image image = CompileWorkload(w, 2);
  recomp::RecompileOptions options;
  options.cfg_sound = true;
  options.cfg_cert = stale;  // sealed, but bound to switchboard
  recomp::Recompiler recompiler(std::move(image), options);
  auto binary = recompiler.Recompile();
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  EXPECT_EQ(recompiler.stats().icf_certs_rejected, 1u);
  EXPECT_EQ(recompiler.stats().icf_sites_proven, 3);

  std::vector<std::vector<uint8_t>> inputs = w.make_inputs(0);
  int ref_exit = 0;
  std::string reference = VmReference(recompiler.image(), inputs, &ref_exit);
  auto result = recompiler.RunAdditive(*binary, inputs);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->ok) << result->fault_message;
  EXPECT_EQ(result->output, reference);
}

struct RunSnapshot {
  std::string output;
  int64_t exit_code = 0;
  uint64_t steps = 0;
  uint64_t state_digest = 0;
};

RunSnapshot RunOnce(const workloads::Workload& w, bool cfg_sound, int tier,
                    uint64_t tier_threshold) {
  binary::Image image = CompileWorkload(w, 2);
  recomp::RecompileOptions options;
  options.cfg_sound = cfg_sound;
  recomp::Recompiler recompiler(std::move(image), options);
  auto binary = recompiler.Recompile();
  EXPECT_TRUE(binary.ok()) << binary.status().ToString();
  exec::ExecOptions exec_options;
  exec_options.tier = tier;
  exec_options.tier_threshold = tier_threshold;
  exec_options.record_state_digest = true;
  auto result = recompiler.RunAdditive(*binary, w.make_inputs(0), exec_options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok) << result->fault_message;
  return {result->output, result->exit_code, result->steps,
          result->state_digest};
}

// The contract the whole pass is built around: sound mode changes no
// observable execution property — output, exit code, interpreter step count,
// and state digest are bit-identical across tiers 0/1/2.
TEST(IcfParity, SoundAndUnsoundRunsAreBitIdentical) {
  for (const char* name : {"fnptr_dispatch", "switchboard"}) {
    const workloads::Workload& w = Named(name);
    for (int tier : {0, 1, 2}) {
      RunSnapshot unsound = RunOnce(w, /*cfg_sound=*/false, tier, 0);
      RunSnapshot sound = RunOnce(w, /*cfg_sound=*/true, tier, 0);
      EXPECT_EQ(sound.output, unsound.output) << name << " tier " << tier;
      EXPECT_EQ(sound.exit_code, unsound.exit_code) << name;
      EXPECT_EQ(sound.steps, unsound.steps) << name << " tier " << tier;
      EXPECT_EQ(sound.state_digest, unsound.state_digest)
          << name << " tier " << tier;
    }
  }
}

// Certified functions keep zero uncovered-edge guards: at tiers 1 and 2 the
// tierprof must show no uncovered-edge deopt in any covered function and the
// exec.deopt_uncovered_certified counter must stay zero.
TEST(IcfCoverage, CertifiedFunctionsTakeNoUncoveredEdgeDeopts) {
  for (const char* name : {"fnptr_dispatch", "switchboard"}) {
    const workloads::Workload& w = Named(name);
    binary::Image image = CompileWorkload(w, 2);
    recomp::RecompileOptions options;
    options.cfg_sound = true;
    recomp::Recompiler recompiler(std::move(image), options);
    auto binary = recompiler.Recompile();
    ASSERT_TRUE(binary.ok()) << binary.status().ToString();
    ASSERT_TRUE(recompiler.options().cfg_cert.has_value());
    std::set<uint64_t> certified(
        recompiler.options().cfg_cert->covered_functions.begin(),
        recompiler.options().cfg_cert->covered_functions.end());
    ASSERT_FALSE(certified.empty()) << name;

    for (int tier : {1, 2}) {
      obs::MetricsRegistry metrics;
      obs::TierProf tierprof;
      exec::ExecOptions exec_options;
      exec_options.tier = tier;
      exec_options.cfg_certified_entries = certified;
      exec_options.obs.metrics = &metrics;
      exec_options.obs.tierprof = &tierprof;
      auto result =
          recompiler.RunAdditive(*binary, w.make_inputs(0), exec_options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_TRUE(result->ok) << result->fault_message;

      EXPECT_EQ(metrics.CounterValue(obs::Counter::kExecDeoptUncoveredCert),
                0u)
          << name << " tier " << tier;
      for (const obs::TierProf::FnStats& fn : tierprof.functions()) {
        if (certified.count(fn.entry) != 0) {
          EXPECT_EQ(fn.deopts[obs::TierProf::kDeoptUncoveredEdge], 0u)
              << name << " tier " << tier << " fn entry " << std::hex
              << fn.entry;
        }
      }
    }
  }
}

}  // namespace
}  // namespace polynima

// End-to-end benchmark of the recompiler, one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Ops run in passes, one op per program per pass, for about --seconds:
// each op is Recompiler::Recompile followed by RunAdditive, checked against
// the original binary's VM run. Set-up (guest compile, seeded inputs,
// reference VM runs) comes first and is repeated between passes, at least
// three times. With --trace 0 the last stdout line is a JSON
// object with the end-to-end metrics; with --trace 1 one extra traced pass
// follows and the JSON carries the per-layer metrics.
// Samples go to BENCH_perfbench_<workload>.json and spans to
// spans_<workload>.json under $POLYNIMA_BENCH_DIR (default: the working
// directory). README.md defines every metric.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "perfbench/programs.h"
#include "perfbench/traced.h"
#include "src/support/thread_pool.h"
#include "src/vm/code_buffer.h"

namespace polynima::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Set-up runs at least kMinSetups times; between ops it is repeated while
// it has taken less than kSetupShare of the run.
constexpr size_t kMinSetups = 3;
constexpr double kSetupShare = 0.1;
// Passes per run at least, however long a pass takes: an indirect_sound
// pass is two icf recompiles of several seconds each.
constexpr int kMinPasses = 3;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      continue;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else {
      return false;
    }
    if (end == value || *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// The highest percentile with at least ten samples beyond it: the sample
// at 0-based rank n-11, i.e. p(100*(n-10)/n). Below 21 samples that is not
// above the median, and the median stands in.
struct Tail {
  double value = 0;
  double percentile = 50;
};

Tail TailOf(std::vector<double> v) {
  const size_t n = v.size();
  if (n < 21) {
    return {Median(v), 50};
  }
  std::sort(v.begin(), v.end());
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) /
                         static_cast<double>(n)};
}

// The 90th percentile by nearest rank from the top: the sample with n/10
// samples above it, which is the highest one below ten samples.
double P90(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() - 1 - v.size() / 10];
}

std::string OutPath(const std::string& file) {
  const char* dir = std::getenv("POLYNIMA_BENCH_DIR");
  return dir == nullptr ? file : std::string(dir) + "/" + file;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  // In the result line, and so in BENCHMARK.json. Op times are printed
  // only: the host's speed moves every timing by up to 2x within minutes,
  // further than a bound of at most 25% allows (README.md, Noise).
  bool gated = true;
};

void PrintResult(bool correct, int attempted, int failed,
                 const std::vector<Metric>& metrics) {
  json::Object values;
  for (const Metric& m : metrics) {
    if (!m.gated) {
      continue;
    }
    json::Object entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    values[m.name] = std::move(entry);
  }
  json::Object result;
  result["correct"] = correct;
  result["attempted"] = attempted;
  result["failed"] = failed;
  result["metrics"] = std::move(values);
  std::printf("%s\n", json::Value(std::move(result)).Dump().c_str());
}

// Where the traced pass's time went: the recompile stages' share of the
// replayed recompile and each stage's share of the stages, then the run's
// and the rebuilds' share of the op.
void PrintSplit(const TracedPass& pass) {
  double recompile_ms = 0;
  double op_ms = 0;
  for (const TracedProgram& t : pass.programs) {
    recompile_ms += static_cast<double>(t.recompile_ns) / 1e6;
    op_ms += static_cast<double>(t.op_ns) / 1e6;
  }
  const char* const kStages[] = {"cfg", "lift", "opt", "analyze", "check",
                                 "icf"};
  double stages_ms = 0;
  for (const char* stage : kStages) {
    stages_ms += pass.Value(std::string(stage) + ".ms");
  }
  std::printf("recompile stages %.2f ms, %.1f%% of %.2f ms of recompile:",
              stages_ms, 100.0 * stages_ms / recompile_ms, recompile_ms);
  for (const char* stage : kStages) {
    std::printf(" %s %.1f%%", stage,
                100.0 * pass.Value(std::string(stage) + ".ms") / stages_ms);
  }
  std::printf("\nexec %.1f%% and recomp rebuilds %.1f%% of %.2f ms of ops\n",
              100.0 * pass.Value("exec.ms") / op_ms,
              100.0 * pass.Value("recomp.rebuild_ms") / op_ms,
              op_ms);
}

// Per-program samples of the untraced passes.
struct Samples {
  std::vector<double> recompile_ms;
  std::vector<double> run_ms;
  std::vector<double> op_ms;
  uint64_t guest_instrs = 0;
  double run_s = 0;
  double normalized = 0;
  int loops = 0;
  std::string module_text;  // first op's recompiled module (trace mode)
};

int Run(const Args& args) {
  const WorkloadSpec* spec = FindSpec(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return Usage();
  }
  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d, "
              "%zu programs, %d recompile workers, tier %d%s\n",
              spec->name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, spec->programs.size(),
              ThreadPool::ResolveJobs(0), spec->tier,
              spec->tier == 2 && !vm::CodeBuffer::Supported()
                  ? " (no executable mappings: capped at 1)"
                  : "");

  bench::BenchReport report("perfbench_" + spec->name);
  report.Config("workload", spec->name);
  report.Config("seed", static_cast<int64_t>(args.seed));
  report.Config("seconds", args.seconds);
  report.Config("trace", args.trace);

  int attempted = 0;
  int failed = 0;
  auto account = [&](const std::string& program, const std::string& failure) {
    ++attempted;
    if (!failure.empty()) {
      ++failed;
      std::printf("  FAILED %s: %s\n", program.c_str(), failure.c_str());
    }
  };

  // The first set-up's programs are measured. Set-up is repeated between
  // ops, so that its samples see the host at the same times as the ops.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  const uint64_t start = NowNs();
  auto set_up = [&] {
    const uint64_t t0 = NowNs();
    std::vector<Program> set = SetUp(*spec, args.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total_s += setup_s.back();
    report.Sample("setup_s", setup_s.back());
    return set;
  };
  const std::vector<Program> programs = set_up();

  // Measured passes: past kMinPasses, another one starts only while the
  // mean pass so far still fits in the budget. Set-ups do not count
  // towards it.
  auto ops_s = [&] {
    return static_cast<double>(NowNs() - start) / 1e9 - setup_total_s;
  };
  std::vector<Samples> samples(programs.size());
  int passes = 0;
  do {
    for (size_t i = 0; i < programs.size(); ++i) {
      while (setup_total_s < kSetupShare * (setup_total_s + ops_s())) {
        set_up();
      }
      const bool keep_text = args.trace && passes == 0;
      OpResult op = RunOp(*spec, programs[i], args.seed, keep_text);
      account(programs[i].workload->name, op.failure);
      Samples& s = samples[i];
      if (keep_text) {
        s.module_text = std::move(op.module_text);
      }
      if (!op.failure.empty()) {
        continue;
      }
      const bench::BenchReport::Labels labels = {
          {"program", programs[i].workload->name}};
      s.recompile_ms.push_back(static_cast<double>(op.recompile_ns) / 1e6);
      s.run_ms.push_back(static_cast<double>(op.run_ns) / 1e6);
      s.op_ms.push_back(s.recompile_ms.back() + s.run_ms.back());
      report.Sample("recompile_ms", s.recompile_ms.back(), labels);
      report.Sample("run_ms", s.run_ms.back(), labels);
      s.run_s += static_cast<double>(op.run_ns) / 1e9;
      s.guest_instrs += op.guest_instrs;
      s.normalized = op.normalized;
      s.loops = op.loops;
    }
    ++passes;
  } while (passes < kMinPasses || ops_s() + ops_s() / passes <= args.seconds);
  const double elapsed_s = ops_s();
  while (setup_s.size() < kMinSetups) {
    set_up();
  }

  std::printf("\n%d passes in %.1f s; %zu set-ups in %.1f s, median %.3f s\n",
              passes, elapsed_s, setup_s.size(), setup_total_s,
              Median(setup_s));
  std::printf("%-18s %4s %10s %9s %9s %9s %9s %9s %5s %7s\n", "program",
              "ops", "recomp p50", "tail", "run p50", "tail", "op p50",
              "tail", "loops", "norm");
  std::vector<double> recompile_p50, recompile_tail, run_p50, run_tail;
  std::vector<double> op_p50, op_tail;
  std::vector<double> normalized;
  std::vector<uint64_t> untraced_op_ns(programs.size(), 0);
  uint64_t guest_instrs = 0;
  double run_s = 0;
  for (size_t i = 0; i < programs.size(); ++i) {
    const Samples& s = samples[i];
    if (s.recompile_ms.empty()) {
      continue;
    }
    const Tail rt = TailOf(s.recompile_ms);
    const Tail xt = TailOf(s.run_ms);
    const Tail ot = TailOf(s.op_ms);
    std::printf("%-18s %4zu %10.3f %9.3f %9.3f %9.3f %9.3f %9.3f %5d %7.4f"
                "  (ms; tail = p%.0f)\n",
                programs[i].workload->name.c_str(), s.recompile_ms.size(),
                Median(s.recompile_ms), rt.value, Median(s.run_ms), xt.value,
                Median(s.op_ms), ot.value, s.loops, s.normalized,
                rt.percentile);
    op_p50.push_back(Median(s.op_ms));
    op_tail.push_back(ot.value);
    recompile_p50.push_back(Median(s.recompile_ms));
    recompile_tail.push_back(rt.value);
    run_p50.push_back(Median(s.run_ms));
    run_tail.push_back(xt.value);
    normalized.push_back(s.normalized);
    untraced_op_ns[i] = static_cast<uint64_t>(s.op_ms.back() * 1e6);
    guest_instrs += s.guest_instrs;
    run_s += s.run_s;
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", P90(setup_s), "s"},
        {"recompile_ms.p50", bench::Geomean(recompile_p50), "ms", false},
        {"recompile_ms.tail", bench::Geomean(recompile_tail), "ms", false},
        {"run_ms.p50", bench::Geomean(run_p50), "ms", false},
        {"run_ms.tail", bench::Geomean(run_tail), "ms", false},
        {"op_ms.p50", bench::Geomean(op_p50), "ms", false},
        {"op_ms.tail", bench::Geomean(op_tail), "ms", false},
        {"guest_mips",
         run_s > 0 ? static_cast<double>(guest_instrs) / run_s / 1e6 : 0,
         "Minstr/s", false},
        {"normalized_runtime", bench::Geomean(normalized), "ratio"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    std::printf("\n");
    for (const Metric& m : metrics) {
      std::printf("%-20s %16.6f %-9s%s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.gated ? "" : " (printed only)");
    }
  } else {
    std::vector<std::string> reference_modules;
    for (Samples& s : samples) {
      reference_modules.push_back(std::move(s.module_text));
    }
    obs::TraceSink sink;
    TracedPass pass = RunTracedPass(*spec, programs, args.seed,
                                    reference_modules, untraced_op_ns, sink);
    std::printf("\ntraced pass (one op per program):\n");
    std::printf("%-18s %10s %10s %6s\n", "program", "op", "recompile",
                "loops");
    for (const TracedProgram& t : pass.programs) {
      account(t.name, t.failure);
      std::printf("%-18s %7.2f ms %7.2f ms %6d\n", t.name.c_str(),
                  static_cast<double>(t.op_ns) / 1e6,
                  static_cast<double>(t.recompile_ns) / 1e6, t.loops);
    }
    PrintSplit(pass);
    std::printf("\n%-30s %16s %-9s %s\n", "metric", "value", "unit",
                "source");
    for (const LayerMetric& m : pass.metrics) {
      std::printf("%-30s %16.6f %-9s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.source.c_str());
      metrics.push_back({m.name, m.value, m.unit});
    }
    const std::string spans_path = OutPath("spans_" + spec->name + ".json");
    const Status written = sink.WriteTo(spans_path);
    std::printf("spans: %s\n", written.ok() ? spans_path.c_str()
                                            : written.ToString().c_str());
  }
  for (const Metric& m : metrics) {
    report.Sample(m.name, m.value);
  }
  const bool correct = failed == 0 && recompile_p50.size() == programs.size();
  std::printf("%-20s %16d\n%-20s %16d\n%-20s %16.6f\n", "attempted",
              attempted, "failed", failed, "failed_frac",
              static_cast<double>(failed) / attempted);
  report.Write();
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace polynima::perfbench

int main(int argc, char** argv) {
  polynima::perfbench::Args args;
  if (!polynima::perfbench::ParseArgs(argc, argv, args)) {
    return polynima::perfbench::Usage();
  }
  return polynima::perfbench::Run(args);
}

#!/usr/bin/env bash
# Full local CI: configure, build and test the `default` preset (warnings
# are errors), then the labelled suites and CLI end-to-end checks on the
# same build tree, then perfbench's determinism test, then the `asan-ubsan`
# preset. Stops at the first red step.
#
# Usage: scripts/ci.sh [-j N]
#   -j N   parallelism for builds and ctest (default: nproc)
#
# POLYNIMA_SEED is forwarded to the test processes, so
#   POLYNIMA_SEED=7 scripts/ci.sh
# sweeps the randomized suites over a different seed region.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs=$(nproc)
while getopts "j:" opt; do
  case "$opt" in
    j) jobs="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

step() {
  echo
  echo "=== $* ==="
}

step "configure+build: default"
cmake --preset default -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build --preset default -j "$jobs"

step "ctest: default"
ctest --preset default -j "$jobs"

step "ctest: sched (schedule-exploration suite)"
ctest --preset sched -j "$jobs"

step "ctest: obs (observability suite)"
ctest --preset obs -j "$jobs"

step "ctest: analyze (static concurrency analyzer suite)"
ctest --preset analyze -j "$jobs"

step "ctest: exec (tiered execution backend suite)"
ctest --preset exec -j "$jobs"

step "obs: traced+metered recompile, schema-validated"
# A real CLI run with every sink attached, then the structural validator over
# each artifact — CI fails on malformed OR empty observability output.
obsdir=$(mktemp -d)
trap 'rm -rf "$obsdir"' EXIT
cat > "$obsdir/counter.c" <<'EOF'
extern void print_i64(long v);
extern int pthread_create(long* tid, long attr, long (*fn)(long), long arg);
extern int pthread_join(long tid, long* ret);
long counter = 0;
long worker(long arg) {
  for (int i = 0; i < 1000; i++) __atomic_fetch_add(&counter, 1, 5);
  return 0;
}
int main() {
  long tids[4];
  for (int i = 0; i < 4; i++) pthread_create(&tids[i], 0, worker, i);
  for (int i = 0; i < 4; i++) pthread_join(tids[i], 0);
  print_i64(counter);
  return 0;
}
EOF
polynima=build/src/tools/polynima
"$polynima" compile "$obsdir/counter.c" -o "$obsdir/counter.plyb" -O0
"$polynima" recompile "$obsdir/counter.plyb" -p "$obsdir/proj" --check-tso \
  --trace-out "$obsdir/trace.json" --metrics-out "$obsdir/metrics.json" \
  --report-out "$obsdir/run.json"
"$polynima" run "$obsdir/counter.plyb" -p "$obsdir/proj" \
  --profile "$obsdir/profile.json"
"$polynima" report --validate "$obsdir/trace.json" "$obsdir/metrics.json" \
  "$obsdir/run.json" "$obsdir/profile.json"

step "analyze: static race detection + certified elision, schema-validated"
# The racy example must be flagged, its race-free twin must stay clean, and
# the analyzed recompile (static fence elision under a StaticCert, TSO
# cross-check on) must produce a report that validates.
cat > "$obsdir/racy.c" <<'EOF'
extern void print_i64(long v);
extern int pthread_create(long* tid, long attr, long (*fn)(long), long arg);
extern int pthread_join(long tid, long* ret);
long counter = 0;
long worker(long arg) {
  for (int i = 0; i < 100; i++) counter = counter + 1;
  return 0;
}
int main() {
  long tids[2];
  for (int i = 0; i < 2; i++) pthread_create(&tids[i], 0, worker, i);
  for (int i = 0; i < 2; i++) pthread_join(tids[i], 0);
  print_i64(counter);
  return 0;
}
EOF
"$polynima" compile "$obsdir/racy.c" -o "$obsdir/racy.plyb" -O2
"$polynima" analyze "$obsdir/racy.plyb" | tee "$obsdir/racy.txt"
grep -q "^RACE" "$obsdir/racy.txt" || {
  echo "FAIL: seeded race not reported" >&2; exit 1; }
# counter.c from the obs step is the atomic (race-free) twin.
"$polynima" analyze "$obsdir/counter.plyb" | tee "$obsdir/clean.txt"
grep -q "^RACE" "$obsdir/clean.txt" && {
  echo "FAIL: race reported on race-free program" >&2; exit 1; }
"$polynima" recompile "$obsdir/racy.plyb" --analyze --check-tso \
  --report-out "$obsdir/analyze-run.json"
"$polynima" report --validate "$obsdir/analyze-run.json"

step "exec: tier-1 CLI run matches tier 0, schema-validated"
# The same multithreaded binary through both execution tiers — the printed
# final counter must agree, and the tier-1 run report must validate.
"$polynima" run "$obsdir/counter.plyb" -p "$obsdir/proj" --tier 0 \
  | tee "$obsdir/tier0.txt"
"$polynima" run "$obsdir/counter.plyb" -p "$obsdir/proj" --tier 1 \
  --report-out "$obsdir/tier1-run.json" | tee "$obsdir/tier1.txt"
diff "$obsdir/tier0.txt" "$obsdir/tier1.txt" || {
  echo "FAIL: tier-1 output diverged from tier 0" >&2; exit 1; }
"$polynima" report --validate "$obsdir/tier1-run.json"

step "exec: tier-2 CLI run matches tier 0, schema-validated"
# Same binary through the native tier (silently capped at tier 1 on hosts
# without executable mappings — the diff must hold either way).
"$polynima" run "$obsdir/counter.plyb" -p "$obsdir/proj" --tier 2 \
  --report-out "$obsdir/tier2-run.json" | tee "$obsdir/tier2.txt"
diff "$obsdir/tier0.txt" "$obsdir/tier2.txt" || {
  echo "FAIL: tier-2 output diverged from tier 0" >&2; exit 1; }
"$polynima" report --validate "$obsdir/tier2-run.json"

step "exec: tier-prof telemetry artifact + perf map, schema-validated"
# The hot kernel again at the native tier, now with the telemetry recorder
# attached: the run output must stay identical to tier 0 (observability is
# free), the polynima-tierprof/v1 artifact and the enclosing run report must
# validate (which cross-checks it against the exec.* counters), the rendered
# report must show the run actually resided in tier 2 where the host runs
# native code, and every perf-map row must agree with the artifact's
# installed-code map. (The containment check against the live CodeBuffer
# mappings runs in-process in exec_tiered_test.)
"$polynima" run "$obsdir/counter.plyb" -p "$obsdir/proj" --tier 2 \
  --tier-prof "$obsdir/tierprof.json" --perf-map "$obsdir/perf.map" \
  --report-out "$obsdir/tierprof-run.json" | tee "$obsdir/tierprof.txt"
diff "$obsdir/tier0.txt" "$obsdir/tierprof.txt" || {
  echo "FAIL: tier-prof run output diverged from tier 0" >&2; exit 1; }
"$polynima" report --validate "$obsdir/tierprof.json" \
  "$obsdir/tierprof-run.json"
"$polynima" report "$obsdir/tierprof.json" | tee "$obsdir/tierprof-report.txt"
python3 - "$obsdir" <<'EOF'
import json, re, sys
d = sys.argv[1]
doc = json.load(open(d + "/tierprof.json"))
totals = doc["totals"]
report = open(d + "/tierprof-report.txt").read()
if totals["tier2_translations"] > 0:
    m = re.search(
        r"residency \(steps retired\): tier0=\d+ tier1=\d+ tier2=(\d+)",
        report)
    assert m, "no residency line in rendered report"
    assert int(m.group(1)) > 0, "tier-2 residency zero despite translations"
else:
    print("note: no executable mappings; tier-2 residency check waived")
ranges = {(e["addr"], e["size"], e["symbol"]) for e in doc["code_map"]}
rows = set()
for line in open(d + "/perf.map"):
    addr, size, symbol = line.split(" ", 2)
    row = (int(addr, 16), int(size, 16), symbol.strip())
    assert row[1] > 0 and row[2].startswith("tier2:"), row
    rows.add(row)
assert rows == ranges, "perf map and artifact code_map disagree"
print("perf map: %d symbol(s) consistent with the artifact code map"
      % len(rows))
EOF

step "analyze: certified cfmiss elision (--cfg-sound), cross-checked"
# A function-pointer interpreter compiled with endbr64 landing pads: every
# masked table dispatch must prove complete, the certified tier-2 run must
# retire zero uncovered-edge deopts inside CfgCert-covered functions, and
# the program output must be byte-identical to the unsound build.
cat > "$obsdir/dispatch.c" <<'EOF'
extern void print_i64(long v);
long op_add(long a, long b) { return a + b; }
long op_xor(long a, long b) { return a ^ b; }
long op_dbl(long a, long b) { return a * 2 + b; }
long op_min(long a, long b) { return a < b ? a : b; }
const long (*ops[4])(long, long) = { op_add, op_xor, op_dbl, op_min };
int main() {
  long acc = 1;
  long x = 12345;
  for (long i = 0; i < 20000; i++) {
    x = x * 1103515245 + 12345;
    long b = (x >> 16) & 255;
    acc = ops[b & 3](acc, b);
  }
  print_i64(acc & 0xffffff);
  return 0;
}
EOF
"$polynima" compile "$obsdir/dispatch.c" -o "$obsdir/dispatch.plyb" -O2 \
  --landing-pads
"$polynima" run "$obsdir/dispatch.plyb" --tier 2 \
  | tee "$obsdir/dispatch-unsound.txt"
"$polynima" run "$obsdir/dispatch.plyb" --cfg-sound --tier 2 \
  --tier-prof "$obsdir/icf-tierprof.json" \
  --report-out "$obsdir/icf-run.json" | tee "$obsdir/dispatch-sound.txt"
# The sound run prepends its coverage summary; everything below it must
# match the unsound build (grep on both sides normalizes the final newline).
diff <(grep -v "cfg-sound:" "$obsdir/dispatch-sound.txt") \
  <(grep -v "cfg-sound:" "$obsdir/dispatch-unsound.txt") || {
  echo "FAIL: --cfg-sound run output diverged from unsound build" >&2
  exit 1; }
"$polynima" report --validate "$obsdir/icf-run.json" \
  "$obsdir/icf-tierprof.json"
python3 - "$obsdir" <<'EOF'
import json, sys
d = sys.argv[1]
icf = json.load(open(d + "/icf-run.json"))["icf"]
assert icf["sites_total"] > 0 and icf["sites_open"] == 0, icf
covered = {f["entry"]: f["name"] for f in icf["covered_functions"]}
assert covered, "no CfgCert-covered functions"
prof = json.load(open(d + "/icf-tierprof.json"))
bad = [(fn["name"], fn["deopts"]["uncovered_edge"])
       for fn in prof["functions"]
       if fn["entry"] in covered and fn["deopts"]["uncovered_edge"] > 0]
assert not bad, "uncovered-edge deopts in certified functions: %r" % bad
print("icf: %d/%d sites proven, %d covered function(s), "
      "0 uncovered-edge deopts in certified code"
      % (icf["sites_proven"], icf["sites_total"], len(covered)))
EOF

step "perfbench: build + determinism of counts and normalized_runtime"
# perfbench/ is a CMake package of its own over src/, and nothing else builds
# it. Each workload must report the same work counts and the same
# normalized_runtime on two passes at one seed.
cmake -S perfbench -B build/perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build/perfbench --target perfbench_determinism_test -j "$jobs"
build/perfbench/perfbench_determinism_test spec_static phoenix_t2 \
  indirect_sound spec_additive

step "configure+build: asan-ubsan"
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$jobs"

step "ctest: asan-ubsan"
ctest --preset asan-ubsan -j "$jobs"

echo
echo "CI green."

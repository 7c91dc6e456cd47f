#!/usr/bin/env python3
"""Builds the perfbench package from source, then runs one benchmark process.

Usage (from the repository root):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build tree is $CARGO_TARGET_DIR/perfbench when that variable is set,
else .bench_build/perfbench under the repository root; the first run
configures and builds it (about a minute on 4 cores), later runs only check
that it is up to date. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. Sample and span files are written to
the build tree's reports/ directory. Exits non-zero, without a result, when
the build fails, e.g. when the polynima sources are missing.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_checked(cmd):
    """Runs a build step with its output on stderr; True when it succeeded."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(out):
    # A configure step that failed leaves a cache but no build system.
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_checked(cmd):
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return run_checked(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])


def main():
    # On SIGTERM, unwind through main's `finally` so the benchmark process
    # is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    reports = os.path.join(out, "reports")
    os.makedirs(reports, exist_ok=True)
    env = dict(os.environ, POLYNIMA_BENCH_DIR=reports)
    proc = subprocess.Popen([os.path.join(out, "perfbench")] + sys.argv[1:], env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())

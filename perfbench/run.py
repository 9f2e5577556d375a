#!/usr/bin/env python3
"""End-to-end benchmark of liquid3d: build from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The first call configures and builds
perfbench/ (the liquid3d library, serve_daemon and the benchmark program) in
$CARGO_TARGET_DIR, default .bench_build; later calls rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result.  Full records (host, sample counts, spans) land in
<build>/results/.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("paper-grid", "steady-wire", "session-mix", "sweep-4layer")


def build(build_dir):
    src = os.path.join("perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", src, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target",
           "l3d_perfbench", "serve_daemon"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isfile(os.path.join("perfbench", "CMakeLists.txt")):
        print("run.py: run from the root of the source tree", file=sys.stderr)
        return 2
    if not build(build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    cmd = [os.path.join(build_dir, "l3d_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(build_dir, "liquid3d", "serve_daemon"),
           "--out", os.path.join(build_dir, "results")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

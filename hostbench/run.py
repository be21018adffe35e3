#!/usr/bin/env python3
"""Build and run the host-time benchmark.

Run from the repository root:

    python3 hostbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

Builds hostbench/main.exe with dune in the release profile (the dev
profile's -opaque understates MIPS by ~30%) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs it with the given
arguments. Spans of a --trace 1 run are written under
<build dir>/hostbench-traces. The last line of standard output is the
benchmark's JSON result.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    here = os.path.relpath(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("hostbench: no dune-project and lib/ here; run from the repository root",
              file=sys.stderr)
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir, "--profile", "release",
         "./" + here + "/main.exe"],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("hostbench: release build failed", file=sys.stderr)
        return build.returncode
    trace_dir = os.path.join(build_dir, "hostbench-traces")
    os.makedirs(trace_dir, exist_ok=True)
    exe = os.path.join(build_dir, "default", here, "main.exe")
    try:
        return subprocess.run([exe, "--trace-dir", trace_dir] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("hostbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/bench.exe from the
checkout's sources with dune (into $CARGO_TARGET_DIR when set, else
_build), then runs it with the same arguments.  The last line of
standard output is the benchmark's JSON result.  Exits non-zero without
a result when the repository's sources are not there to build.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    fail("dune is not installed")


def main():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("the repository sources are missing (no %s next to perfbench/)" % need)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or "_build"
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = dune_command() + [
        "build", "--root", ".", "--build-dir", build_dir, "./perfbench/bench.exe",
    ]
    try:
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if done.returncode != 0:
        fail("build failed")
    exe = os.path.join(ROOT, build_dir, "default", "perfbench", "bench.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run timed out")


if __name__ == "__main__":
    sys.exit(main())

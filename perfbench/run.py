#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune into .bench_build/ (the dune cache is
off, so nothing is written outside the checkout), runs it with the same
arguments and passes its standard output through: the last line is the
JSON result.  Exits non-zero, without a result, when the checkout is not
a buildable copy of the repository.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    root = os.getcwd()
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(root, need)):
            fail("run from the root of a repository checkout (missing %s)" % need)
    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    events = os.path.join(root, BUILD_DIR, "runtime-events")
    os.makedirs(events, exist_ok=True)
    env["OCAML_RUNTIME_EVENTS_DIR"] = events
    env.pop("OCAML_RUNTIME_EVENTS_PRESERVE", None)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=880)
    if build.returncode != 0:
        fail("build failed")
    try:
        run = subprocess.run([EXE] + sys.argv[1:], env=env, timeout=175)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

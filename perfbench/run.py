#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe and the bussyn_cli daemon with dune inside
this checkout, then runs the benchmark, whose last stdout line is the
JSON result.  See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
CLI = os.path.join("_build", "default", "bin", "bussyn_cli.exe")


def fail(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def git_rev():
    # Look at this directory only, never a repository above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    for needed in ("dune-project", "lib", "bin", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("%s not found: run from the root of a full checkout" % needed)
    # Keep every build product inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe", "./bin/bussyn_cli.exe"],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    # An in-process workload runs on one CPU, so the host-speed kernel
    # and the ops it corrects see the same core (see harness.ml).
    # serve-mix keeps every CPU: its client, daemon and worker overlap.
    argv = sys.argv[1:]
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else None
    if workload != "serve-mix" and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cmd = [EXE] + argv + ["--cli", CLI, "--git-rev", git_rev()]
    sys.exit(subprocess.run(cmd, env=env).returncode)


if __name__ == "__main__":
    main()

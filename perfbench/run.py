#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the libraries, the ischedc
daemon and the benchmark executable (perfbench/bench.exe) with dune,
then runs it; its last stdout line is the JSON result.  Exits
non-zero, without a result line, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("tables-s100", "ablations-s1", "serve-mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not os.path.isfile("dune-project"):
        sys.exit("perfbench: run from the repository root (no dune-project here)")
    # Keep every file the build and the run write inside the checkout.
    tmp = os.path.join(os.getcwd(), ".perfbench", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe", "./bin/ischedc.exe"],
        stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("perfbench: build failed")

    cmd = [os.path.join("_build", "default", "perfbench", "bench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--ischedc", os.path.join("_build", "default", "bin", "ischedc.exe")]
    # Its own process group, so a timed-out run takes the serve daemon
    # it spawned down with it.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run timed out")
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload plan|simulate|serve --seed N \
        --seconds N --trace 0|1

Builds the benchmark (perfbench/bench.exe) and the cfalloc CLI with dune,
then runs the benchmark, which prints one JSON result object as the last
line of its standard output.  Usage errors exit 2; a failed build, a
failed output check or a timeout exit 1.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("plan", "simulate", "serve")
TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not all(os.path.exists(os.path.join(root, p))
               for p in ("dune-project", "lib", "bin", "examples/loops")):
        print("error: perfbench must run inside a source checkout "
              "(dune-project, lib/, bin/, examples/loops/)", file=sys.stderr)
        return 1

    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe",
         "./bin/cfalloc.exe"],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("error: build failed", file=sys.stderr)
        return 1

    # Relative paths throughout: the server's Unix socket lives under the
    # checkout, and socket paths are limited to about 100 bytes.
    command = ["_build/default/perfbench/bench.exe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    # The benchmark process runs on one CPU and the serve workload's server
    # on another: unpinned, the scheduler's placement of the two processes
    # changed serve throughput by up to 2x between runs of one seed.
    cpus = sorted(os.sched_getaffinity(0))
    pin = None
    if len(cpus) >= 2 and shutil.which("taskset"):
        pin = {cpus[0]}
        command += ["--server-cpu", str(cpus[1])]
    # A session of its own, so that a timeout also kills the server the
    # benchmark started.
    bench = subprocess.Popen(
        command, cwd=root, env=env, start_new_session=True,
        preexec_fn=(lambda: os.sched_setaffinity(0, pin)) if pin else None)
    try:
        return bench.wait(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        while True:
            try:
                os.killpg(bench.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        print(f"error: benchmark exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

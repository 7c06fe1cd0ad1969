#!/usr/bin/env python3
"""Builds the DOP benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload coop_read|sockets \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the library, concordd and dop_bench, Release)
into .bench_build/perfbench; later runs only re-check the build. Build
output goes to stderr. The benchmark's own stdout is passed through: a
report line, then the result line
{"correct", "attempted", "failed", "metrics"}. Scratch files (sockets,
span dumps) stay under .bench_build/work.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
WORKLOADS = ("coop_read", "sockets")
# A run must end within 180 s; this leaves room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "txn", "client_tm.h")):
        fail("no CONCORD sources next to perfbench/; run from a full checkout")
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    # The compiler's temporary files stay in the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)
    return os.path.join(BUILD_DIR, "dop_bench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR]
    # In a process group of its own, so the concordd processes it spawns
    # can be killed with it if it dies or hangs.
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    if stdout is None:
        fail("dop_bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        fail("dop_bench exited with code %d" % child.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()

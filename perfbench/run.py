#!/usr/bin/env python3
"""Build and run the Table-4 end-to-end benchmark (perfbench/t4bench.ml).

From the root of a checkout of the repository:

    python3 perfbench/run.py --workload t4-root --seed 1 --seconds 30 --trace 0

The benchmark is built with dune into .bench_build/ in the checkout, with
dune's shared cache off so nothing is written outside the checkout. Build
output goes to stderr. The benchmark's last stdout line is its JSON result;
the exit code is the benchmark's own (1 when a cell failed), or 2 when the
checkout is incomplete or the build fails, or 3 on a timeout.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "t4bench.exe")
# The first build in a fresh checkout compiles the whole solver.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 178


def run(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it. Returns the exit code, or None on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--seconds", type=float, default=60)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
                "./perfbench/t4bench.exe"],
               BUILD_TIMEOUT_S, env=env, stdout=sys.stderr)
    if code != 0:
        print("run.py: build failed" if code is not None
              else "run.py: build timed out", file=sys.stderr)
        return 2

    code = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)],
               RUN_TIMEOUT_S)
    if code is None:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())

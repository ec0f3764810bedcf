"""Benchmark entry point: one workload, each part in a fresh process.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a child process with
one BLAS thread (OpenBLAS otherwise spins a second worker through the whole
training loop).  With ``--trace 0`` two more children run set-up only, and
``setup_s`` is the median of the three set-ups.  The last line of standard
output is the result object; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk-train", "wide-train", "desk-bench")
DEADLINE_S = 170.0


def child(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--spawned-at", repr(time.perf_counter()),
           *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.perf_counter()),
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="edgesched benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "edgesched" / "__init__.py").is_file():
        print(f"no edgesched sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    try:
        if args.trace:
            result = child(args, [], deadline)
        else:
            setups = [child(args, ["--setup-only"], deadline)["setup_s"]]
            result = child(args, [], deadline)
            setups.append(result["metrics"]["setup_s"]["value"])
            setups.append(child(args, ["--setup-only"], deadline)["setup_s"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError,
            IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

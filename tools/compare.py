"""Benchmark a parent revision against this checkout in alternated pairs.

    python3 tools/compare.py --parent HEAD~1 --tag learner_step
    python3 tools/compare.py --parent main --workloads desk-train --pairs 10 --tag T
    python3 tools/compare.py --parent main --pairs 0 --tag T   # bytes only

The parent tree is exported from git with ``git archive REV | tar -x``
into a temporary directory; the change tree is the checkout itself, its
files as they are on disk (``--repo`` names another checkout).

First the bytes: each tree runs ``tools/artifact_hashes.py``,
``tools/search_hashes.py`` and ``tools/oracle_hashes.py`` on its own
``src``, and the lines are compared with their trailing ``N us/call`` or
``N.NN ms/call`` field masked.  ``bytes`` in the record holds, per tool,
each side's line count, whether every line matched and the first
differing pairs (or the error that stopped a side), and ``match`` over all
three.

Then the speed, unless ``--pairs`` is 0.  Pair k of
a workload runs each tree's ``perfbench/run.py`` once with ``--seed k+1``,
``--trace 0`` and ``BENCHMARK.json``'s ``run_seconds``, the parent first
in even pairs and the change first in odd ones, one run at a time, so
that a slow stretch of the host falls on both sides alike.

The record goes to ``BENCH_<tag>.json`` in the change tree.  Per workload
it holds every pair (seed, order, each side's metrics, ``loop_ops``,
attempted and failed operations), and per end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles, the parent's
interquartile range, how many pairs the change won (strictly better in the
metric's direction), the change of the median, whether that change is a
gain larger than the parent's interquartile range, and the headroom to the
metric's bound (the bound less the relative worsening of the median;
negative is outside the bound).  ``nrr_match`` says whether every
``*_nrr`` metric was equal on both sides for every seed, ``runs_failed``
counts runs that exited with an error, timed out, printed no JSON result
line or wrote no fresh record, and ``ops_failed`` the operations
perfbench's checks failed, per side.  The commits, whether the change tree
had uncommitted edits to tracked files, and the host come first.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import zip_longest
from pathlib import Path

from harness import ROOT, export_tree, host_record

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600
HASH_TOOLS = ("artifact_hashes", "search_hashes", "oracle_hashes")
TIME_FIELD = re.compile(r" \d+(?:\.\d+)? [um]s/call$")
# differing line pairs kept per tool
MAX_DIFFS = 5


def run(tree: Path, *args: str) -> subprocess.CompletedProcess | dict:
    """Run the script and arguments ``args`` in ``tree`` with this Python;
    the finished process if it exited 0, else ``{"error": ...}``."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=tree,
                              capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}"}
    return proc


def run_side(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line, and the
    ``loop_ops`` of the record it wrote, or the error that stopped it."""
    record = tree / "perfbench" / "out" / f"{workload}-s{seed}-t0.json"
    started = time.time()
    proc = run(tree, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0")
    if isinstance(proc, dict):
        return proc
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        # a record older than the run is another run's
        if record.stat().st_mtime < started:
            return {"error": f"no fresh record {record.name}"}
        return {
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "loop_ops": json.loads(record.read_text()).get("loop_ops"),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"]}
    except (LookupError, TypeError, AttributeError, ValueError,
            OSError) as err:
        return {"error": f"{type(err).__name__}: {err}"}


def tool_lines(tree: Path, tool: str) -> dict:
    """The output lines of ``tools/<tool>.py`` in ``tree``, on the tree's
    own ``src``, with the time field masked; or the error that stopped it."""
    proc = run(tree, f"tools/{tool}.py")
    if isinstance(proc, dict):
        return proc
    return {"lines": [TIME_FIELD.sub("", line)
                      for line in proc.stdout.splitlines()]}


def byte_check(trees: dict) -> dict:
    """Each hash tool's lines on both trees, compared."""
    tools = {}
    for tool in HASH_TOOLS:
        out = {s: tool_lines(trees[s], tool) for s in SIDES}
        errors = {s: o["error"] for s, o in out.items() if "error" in o}
        if errors:
            tools[tool] = {"match": False, "errors": errors}
        else:
            parent, change = out["parent"]["lines"], out["change"]["lines"]
            differ = [[a, b] for a, b in zip_longest(parent, change)
                      if a != b]
            tools[tool] = {"lines": {"parent": len(parent),
                                     "change": len(change)},
                           "match": not differ, "differ": differ[:MAX_DIFFS]}
        print(f"bytes {tool}: {'match' if tools[tool]['match'] else 'DIFFER'}"
              f" {errors or ''}", file=sys.stderr, flush=True)
    return {"match": all(t["match"] for t in tools.values()), "tools": tools}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                 if len(values) > 1 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3}


def summarise(pairs: list[dict], spec: dict) -> dict | None:
    """The figures of one end-to-end metric over the pairs both sides
    completed; None if no pair has it."""
    name, lower = spec["name"], spec["better"] == "lower"
    done = [p for p in pairs if all(name in p[s].get("metrics", {})
                                    for s in SIDES)]
    if not done:
        return None
    parent = [p["parent"]["metrics"][name] for p in done]
    change = [p["change"]["metrics"][name] for p in done]
    par, chg = spread(parent), spread(change)
    iqr = par["q3"] - par["q1"]
    gain = (par["median"] - chg["median"]) * (1 if lower else -1)
    worse = -gain / abs(par["median"]) if par["median"] else 0.0
    return {
        "better": spec["better"], "bound": spec["bound"], "pairs": len(done),
        "parent": par, "change": chg, "parent_iqr": iqr,
        "change_wins": sum((c < p) if lower else (c > p)
                           for p, c in zip(parent, change)),
        "median_rel_change": (chg["median"] - par["median"]) / par["median"]
        if par["median"] else 0.0,
        "gain_beyond_parent_iqr": gain > iqr,
        "bound_headroom": spec["bound"] - worse,
    }


def nrr_match(pairs: list[dict]) -> bool:
    """Whether every ``*_nrr`` metric is equal on both sides of every pair."""
    return all(
        p["parent"]["metrics"].get(k) == v
        for p in pairs if all("metrics" in p[s] for s in SIDES)
        for k, v in p["change"]["metrics"].items() if k.endswith("_nrr"))


def git(repo: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="git revision of the tree to compare against")
    ap.add_argument("--tag", required=True,
                    help="the record is written to BENCH_<tag>.json")
    ap.add_argument("--workloads", nargs="+",
                    help="workload names (default: all of BENCHMARK.json)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternated pairs per workload; 0 checks the "
                         "bytes alone")
    ap.add_argument("--repo", type=Path, default=ROOT,
                    help="the change tree, a git checkout")
    args = ap.parse_args(argv)
    change = args.repo.resolve()
    bench = json.loads((change / "BENCHMARK.json").read_text())
    workloads = (args.workloads or [w["name"] for w in bench["workloads"]]
                 if args.pairs else [])
    seconds = bench["run_seconds"]
    record = {
        "tag": args.tag,
        "parent": {"rev": args.parent},
        "change": {"commit": git(change, "rev-parse", "HEAD"),
                   "uncommitted": bool(git(change, "status", "--porcelain",
                                           "--untracked-files=no"))},
        "host": host_record(),
        "seconds": seconds,
        "bytes": None,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="compare-parent-") as tmp:
        parent = Path(tmp)
        record["parent"]["commit"] = export_tree(args.parent, parent, change)
        trees = {"parent": parent, "change": change}
        record["bytes"] = byte_check(trees)
        for workload in workloads:
            pairs = []
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": k + 1, "first": order[0]}
                for side in order:
                    tic = time.perf_counter()
                    pair[side] = run_side(trees[side], workload, k + 1,
                                          seconds)
                    print(f"{workload} pair {k + 1}/{args.pairs} {side}: "
                          f"{time.perf_counter() - tic:.0f} s "
                          f"{pair[side].get('error', '')}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            metrics = {spec["name"]: summarise(pairs, spec)
                       for spec in bench["end_to_end"]}
            record["workloads"][workload] = {
                "pairs": pairs,
                "metrics": {k: v for k, v in metrics.items() if v is not None},
                "nrr_match": nrr_match(pairs),
                "runs_failed": sum("error" in p[s] for p in pairs
                                   for s in SIDES),
                "ops_failed": {s: sum(p[s].get("failed", 0) for p in pairs)
                               for s in SIDES},
            }
    out = change / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

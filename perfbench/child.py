"""Child process of ``run.py``: one workload, or its set-up alone.

Set-up is timed from the parent's ``time.perf_counter()`` just before the
spawn (the clock is system-wide).  A finder on ``sys.meta_path`` closes a
reference-speed stretch at every module import, so the imports are timed
at reference speed like the rest of set-up.
"""

from __future__ import annotations

import argparse
import importlib.abc
import json
import logging
import sys

import refclock


class TickOnImport(importlib.abc.MetaPathFinder):
    """Ticks a stretch clock whenever a module is looked up; finds nothing."""

    def __init__(self, clock: refclock.StretchClock):
        self.clock = clock

    def find_spec(self, name, path, target=None):
        self.clock.tick()
        return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.perf_counter() of the parent just before spawning")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    clock = refclock.StretchClock()
    clock.start(at=args.spawned_at)
    finder = TickOnImport(clock)
    sys.meta_path.insert(0, finder)
    try:
        import workload
    finally:
        sys.meta_path.remove(finder)
    # run_benchmark logs a warning per draw on which the oracle lost
    # (oracle_nrr reports that); keep stderr for the benchmark's own lines
    logging.getLogger("edgesched").setLevel(logging.ERROR)
    w = workload.Workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if args.setup_only:
        print(json.dumps({"setup_s": w.setup(clock)}))
        return 0
    metrics = w.run(clock)
    workload.OUT_DIR.mkdir(exist_ok=True)
    w.info["metrics"] = metrics
    (workload.OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(w.info, indent=1) + "\n")
    for line in w.notes + w.fail.reasons:
        print("check:", line, file=sys.stderr)
    print(json.dumps({"correct": not w.notes, "attempted": w.fail.attempted,
                      "failed": w.fail.failed,
                      "metrics": {k: {"value": v, "unit": workload.UNITS[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

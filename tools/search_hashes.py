"""Run the annealing search over fixed draw sets and print what it returned.

    python3 tools/search_hashes.py
    python3 tools/search_hashes.py --src ../other/src   # another checkout

The sets, each a pure function of its seeds:

- ``desk``: 200 draws of the default 10x2 scenario, each an ASA-200 search
  from a random start (``bench.asa_only``, generator seeded with the draw
  index);
- ``desk-g``: the same 200 draws, a budget-50 search from the greedy
  placement;
- ``10x5``, ``20x3``, ``30x5`` and ``50x5``: 50 draws of
  ``random_scenario(N, M, rng_seed=1)``, each an ASA-200 search from a
  random start;
- ``wide``: 50 draws of the default scenario section at 30x5 (the dense
  50 m area, seed 1), each a budget-55 search from the greedy placement,
  the shape of a training search late in a 30x5 run.

One line per set: the sha256 of every result's placement, objective,
improvements and steps and of the generator's next draw after the call;
then how the calls were scored: the share that started on the loop scorer,
the share that handed over from the loop to window scoring, and the share
of iterations scored in windows (``-`` where a checkout has no such
scorer or hand-over); and the mean wall time per search call in us (the
evaluator build is not timed).  A change that promises identical search
results runs this on both checkouts and compares the digests.

The us column follows the host as much as the code: one checkout, one BLAS
thread, read 796 us per ``desk`` call in one run and 1275-1286 us in two
runs 40 minutes later on 2 shared vCPUs.  A speed comparison through it
needs alternated runs of both checkouts in one sitting; a figure copied
from an earlier run says little.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import time

from harness import bench_draws, default_scenario, parse_args


def draw_sets():
    """(name, scenario, channels, run) per set; run maps (k, scen, ch, ev, rng)."""
    from edgesched.annealing import AnnealConfig, BudgetState, search
    from edgesched.bench import asa_only, greedy_baseline
    from edgesched.mec import random_scenario

    def asa_200(scen, ch, ev, rng):
        return asa_only(scen, ch, AnnealConfig(), 200, rng, evaluator=ev)

    def from_greedy(budget):
        def run(scen, ch, ev, rng):
            return search(greedy_baseline(scen, ch), scen, ch, AnnealConfig(),
                          BudgetState(budget), rng, evaluator=ev)
        return run

    desk = default_scenario()
    yield "desk", desk, bench_draws(desk, 200), asa_200
    yield "desk-g", desk, bench_draws(desk, 200), from_greedy(50)
    for n, m in ((10, 5), (20, 3), (30, 5), (50, 5)):
        scen = random_scenario(n, m, rng_seed=1)
        yield f"{n}x{m}", scen, bench_draws(scen, 50), asa_200
    wide = default_scenario(n_ues=30, n_mecs=5)
    yield "wide", wide, bench_draws(wide, 50), from_greedy(55)


def main(argv=None) -> int:
    parse_args(__doc__, argv)
    import numpy as np

    from edgesched import annealing
    from edgesched.allocator import Evaluator

    loop_search = getattr(annealing, "_loop_search", None)
    batch_search = getattr(annealing, "_batch_search", None)
    hands_over = hasattr(annealing, "COLD_RUN")
    tally = {"loop": 0, "handover": 0, "windows": 0}

    def started_on_loop(*a, **k):
        tally["loop"] += 1
        return loop_search(*a, **k)

    def windows(ev, keep, cfg, blocks, start, *a, **k):
        res = batch_search(ev, keep, cfg, blocks, start, *a, **k)
        tally["handover"] += start > 0
        tally["windows"] += res.steps - start
        return res

    if loop_search is not None:
        annealing._loop_search = started_on_loop
    if hands_over:
        annealing._batch_search = windows
    try:
        for name, scen, chans, run in draw_sets():
            digest = hashlib.sha256()
            tally.update(dict.fromkeys(tally, 0))
            spent, iters = 0.0, 0
            for k, ch in enumerate(chans):
                ev = Evaluator(scen, ch)
                rng = np.random.default_rng(k)
                tic = time.perf_counter()
                res = run(scen, ch, ev, rng)
                spent += time.perf_counter() - tic
                iters += res.steps
                digest.update(res.decision.assign.astype(np.int64).tobytes())
                digest.update(struct.pack("<dq", res.objective, res.steps))
                for it, value in res.improvements:
                    digest.update(struct.pack("<qd", it, value))
                digest.update(struct.pack("<d", rng.random()))
            calls = len(chans)
            loop = ("-" if loop_search is None
                    else f"{tally['loop'] / calls:.2f}")
            handover, window_iters = (
                (f"{tally['handover'] / calls:.2f}",
                 f"{tally['windows'] / iters:.2f}") if hands_over
                else ("-", "-"))
            print(f"{name:<6} {digest.hexdigest()} loop {loop} handover "
                  f"{handover} windows {window_iters} "
                  f"{spent / calls * 1e6:.0f} us/call", flush=True)
    finally:
        if loop_search is not None:
            annealing._loop_search = loop_search
        if hands_over:
            annealing._batch_search = batch_search
    return 0


if __name__ == "__main__":
    sys.exit(main())

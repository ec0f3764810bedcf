"""Run the exact oracle over fixed draw sets and print what it returned.

    python3 tools/oracle_hashes.py
    python3 tools/oracle_hashes.py --src ../other/src   # another checkout

The sets, each a pure function of its seeds:

- ``desk``: 200 draws of the default 10x2 scenario, each started from an
  ASA-200 placement;
- ``10xM``: 30 draws of the default scenario with M = 1..5 MECs, each
  started from the greedy placement;
- ``30x5`` and ``20x3``: 5 draws of ``random_scenario(N, M, rng_seed=1)``,
  started from greedy, where the node limit binds;
- ``wide``: 5 draws of the default scenario section at 30x5 (the dense
  50 m area, seed 1), started from greedy: the scenario of the benchmark's
  wide-train workload.

One line per set: the sha256 of every returned placement and latency, the
number of calls that proved the optimum, the median and maximum nodes
bounded; the sha256 of ``bench.greedy_baseline``'s placement on every
draw of the set, whatever the set's start, and the share of those calls
that the gain floor's screen decided, that is, that never computed a rate
(``-`` where a checkout has no gain floor); and the mean wall time per
oracle call in ms (the start is not timed).  The oracle often proves the
same optimum from a different start, so the greedy digest is what shows a
changed greedy placement.  A change that promises identical oracle or
greedy results runs this on both checkouts and compares everything but
the times.
"""

from __future__ import annotations

import hashlib
import struct
import sys
import time

from harness import bench_draws, default_scenario, parse_args


def draw_sets():
    """(name, scenario, channels, start) per set; start maps (k, ev, ch)."""
    import numpy as np

    from edgesched.annealing import AnnealConfig
    from edgesched.bench import asa_only, greedy_baseline
    from edgesched.mec import random_scenario

    def asa_start(k, scen, ev, ch):
        return asa_only(scen, ch, AnnealConfig(), 200,
                        np.random.default_rng(k), evaluator=ev).decision.assign

    def greedy_start(k, scen, ev, ch):
        return greedy_baseline(scen, ch).assign

    desk = default_scenario()
    yield "desk", desk, bench_draws(desk, 200), asa_start
    for m in range(1, 6):
        scen = default_scenario(n_mecs=m)
        yield f"10x{m}", scen, bench_draws(scen, 30), greedy_start
    for n, m in ((30, 5), (20, 3)):
        scen = random_scenario(n, m, rng_seed=1)
        yield f"{n}x{m}", scen, bench_draws(scen, 5), greedy_start
    wide = default_scenario(n_ues=30, n_mecs=5)
    yield "wide", wide, bench_draws(wide, 5), greedy_start


def main(argv=None) -> int:
    parse_args(__doc__, argv)
    import numpy as np

    from edgesched import bench
    from edgesched.allocator import Evaluator

    rate, rate_calls = bench.data_rate, [0]

    def counted(*args):
        rate_calls[0] += 1
        return rate(*args)

    bench.data_rate = counted
    try:
        for name, scen, chans, start in draw_sets():
            digest, greedy = hashlib.sha256(), hashlib.sha256()
            nodes, exact, spent, screened = [], 0, 0.0, 0
            for k, ch in enumerate(chans):
                ev = Evaluator(scen, ch)
                incumbent = start(k, scen, ev, ch)
                tic = time.perf_counter()
                res = bench.exact_oracle(ev, incumbent)
                spent += time.perf_counter() - tic
                digest.update(res.decision.assign.astype(np.int64).tobytes())
                digest.update(struct.pack("<d", res.latency))
                nodes.append(res.nodes)
                exact += res.exact
                before = rate_calls[0]
                placed = bench.greedy_baseline(scen, ch).assign
                greedy.update(placed.astype(np.int64).tobytes())
                screened += rate_calls[0] == before
            share = (f"{screened / len(chans):.2f}"
                     if hasattr(scen.arrays, "gain_floor") else "-")
            print(f"{name:<5} {digest.hexdigest()} exact {exact}/{len(chans)} "
                  f"nodes median {float(np.median(nodes)):g} max {max(nodes)} "
                  f"greedy {greedy.hexdigest()} screened {share} "
                  f"{spent / len(chans) * 1e3:.2f} ms/call", flush=True)
    finally:
        bench.data_rate = rate
    return 0


if __name__ == "__main__":
    sys.exit(main())

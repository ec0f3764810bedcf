"""Run the exact oracle over fixed draw sets and print what it returned.

    python3 tools/oracle_hashes.py
    python3 tools/oracle_hashes.py --src ../other/src   # another checkout

The sets, each a pure function of its seeds:

- ``desk``: 200 draws of the default 10x2 scenario, each started from an
  ASA-200 placement;
- ``10xM``: 30 draws of the default scenario with M = 1..5 MECs, each
  started from the greedy placement;
- ``30x5`` and ``20x3``: 5 draws of ``random_scenario(N, M, rng_seed=1)``,
  started from greedy, where the node limit binds.

One line per set: the sha256 of every returned placement and latency, the
number of calls that proved the optimum, the median and maximum nodes
bounded, and the mean wall time per oracle call in ms (the start is not
timed).  A change that promises identical oracle results runs this on
both checkouts and compares everything but the times.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def draw_sets():
    """(name, scenario, channels, start) per set; start maps (k, ev, ch)."""
    import numpy as np

    from edgesched.annealing import AnnealConfig
    from edgesched.bench import BENCH_EPOCH_BASE, asa_only, greedy_baseline
    from edgesched.config import ExperimentConfig, build_scenario
    from edgesched.mec import random_scenario, sample_channel_state

    def channels(scen, count):
        return [sample_channel_state(scen, BENCH_EPOCH_BASE + k, 1)
                for k in range(count)]

    def asa_start(k, scen, ev, ch):
        return asa_only(scen, ch, AnnealConfig(), 200,
                        np.random.default_rng(k), evaluator=ev).decision.assign

    def greedy_start(k, scen, ev, ch):
        return greedy_baseline(scen, ch).assign

    desk_cfg = ExperimentConfig().scenario
    desk = build_scenario(desk_cfg, fallback_seed=1)
    yield "desk", desk, channels(desk, 200), asa_start
    for m in range(1, 6):
        scen = build_scenario(replace(desk_cfg, n_mecs=m), fallback_seed=1)
        yield f"10x{m}", scen, channels(scen, 30), greedy_start
    for n, m in ((30, 5), (20, 3)):
        scen = random_scenario(n, m, rng_seed=1)
        yield f"{n}x{m}", scen, channels(scen, 5), greedy_start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the edgesched package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    from edgesched.allocator import Evaluator
    from edgesched.bench import exact_oracle

    for name, scen, chans, start in draw_sets():
        digest = hashlib.sha256()
        nodes, exact, spent = [], 0, 0.0
        for k, ch in enumerate(chans):
            ev = Evaluator(scen, ch)
            incumbent = start(k, scen, ev, ch)
            tic = time.perf_counter()
            res = exact_oracle(ev, incumbent)
            spent += time.perf_counter() - tic
            digest.update(res.decision.assign.astype(np.int64).tobytes())
            digest.update(struct.pack("<d", res.latency))
            nodes.append(res.nodes)
            exact += res.exact
        print(f"{name:<5} {digest.hexdigest()} exact {exact}/{len(chans)} "
              f"nodes median {float(np.median(nodes)):g} max {max(nodes)} "
              f"{spent / len(chans) * 1e3:.2f} ms/call", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Train reference configurations and print the sha256 of every artifact.

    python3 tools/artifact_hashes.py              # every tools/configs/*.yaml
    python3 tools/artifact_hashes.py tools/configs/default.yaml
    python3 tools/artifact_hashes.py --src ../other/src   # another checkout

Each config runs the same pipeline as ``edgesched train --config FILE``
into a temporary directory, one at a time in this process, then the
benchmark with the oracle on the reloaded set, as ``edgesched bench
--oracle --out DIR`` would.  One line per artifact: config name, file name,
sha256.  Two more lines per config hash what no artifact holds, so a change
to it alone would pass every other line: ``pretrain_trace``, the
autoencoder's pretraining losses as float64 bytes, and ``schedule``, the
placement (int64), frequencies and powers (float64) that the reloaded
policy makes on each bench draw, in draw order, through the online path
``encode_channel`` -> ``decide`` -> ``evaluate``; ``bench.csv`` shows them
only as means.  A refactor that promises byte-identical outputs runs this
on both checkouts and compares the lines.  Wall-clock values are left out:
``timings.csv``, and the two decision-time columns of ``bench.csv``.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from harness import ROOT, bench_draws, parse_args

ARTIFACTS = ("epochs.csv", "policy.json", "sae.json", "scenario_resolved.yaml",
             "bench.csv")
TRACE, SCHEDULE = "pretrain_trace", "schedule"


def untimed(data: bytes) -> bytes:
    """``bench.csv`` without its ``decision_time_s`` and
    ``decision_time_mean_s`` columns, the second and third."""
    return b"\r\n".join(b",".join(cells[:1] + cells[3:]) for cells in
                        (line.split(b",") for line in data.split(b"\r\n")))


def main(argv=None) -> int:
    args = parse_args(__doc__, argv, configs=dict(
        nargs="*", type=Path,
        default=sorted((ROOT / "tools" / "configs").glob("*.yaml"))))
    import numpy as np
    from edgesched.agent import decide
    from edgesched.allocator import evaluate
    from edgesched.config import load_config, override
    from edgesched.experiment import (bench_experiment, load_artifacts,
                                      train_experiment)

    def show(config: str, name: str, data: bytes) -> None:
        print(f"{config:<14} {name:<24} {hashlib.sha256(data).hexdigest()}",
              flush=True)

    def schedules(cfg, out: str) -> bytes:
        art = load_artifacts(cfg, Path(out))
        scen = art.scenario
        parts = []
        for ch in bench_draws(scen, cfg.bench.n_channels, art.seeds.channel):
            dec = decide(art.policy, art.compressor.encode_channel(ch).vector,
                         scen.n_ues, scen.n_mecs)
            alloc = evaluate(dec, scen, ch)
            parts += [dec.assign, alloc.freqs, alloc.powers]
        return b"".join(p.tobytes() for p in parts)

    for path in args.configs:
        with tempfile.TemporaryDirectory() as out:
            cfg = override(load_config(path), out=out)
            trace = train_experiment(cfg, out).sae_trace
            oracle = replace(cfg.bench, with_oracle=True)
            bench_experiment(replace(cfg, bench=oracle), out)
            for name in ARTIFACTS:
                data = (Path(out) / name).read_bytes()
                show(path.stem, name,
                     untimed(data) if name == "bench.csv" else data)
            show(path.stem, TRACE, np.array(trace, dtype=float).tobytes())
            show(path.stem, SCHEDULE, schedules(cfg, out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
``encode_channel`` -> ``decide`` -> ``allocate_frequencies`` ->
``max_power_assignment``; ``bench.csv`` shows them only as means.  A
refactor that promises byte-identical outputs runs this on both checkouts
and compares the lines.  Wall-clock values are left out: ``timings.csv``,
and the two decision-time columns of ``bench.csv``.
"""

from __future__ import annotations

import os

# one BLAS thread, as ``import edgesched`` would set had numpy not come first
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("epochs.csv", "policy.json", "sae.json", "scenario_resolved.yaml",
             "bench.csv")
TRACE, SCHEDULE = "pretrain_trace", "schedule"


def untimed(data: bytes) -> bytes:
    """``bench.csv`` without its ``decision_time_s`` and
    ``decision_time_mean_s`` columns, the second and third."""
    return b"\r\n".join(b",".join(cells[:1] + cells[3:]) for cells in
                        (line.split(b",") for line in data.split(b"\r\n")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="*", type=Path, default=sorted(
        (ROOT / "tools" / "configs").glob("*.yaml")))
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the edgesched package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np
    from edgesched.agent import decide
    from edgesched.allocator import allocate_frequencies, max_power_assignment
    from edgesched.config import load_config, override
    from edgesched.experiment import (bench_experiment, load_artifacts,
                                      train_experiment)
    from edgesched.mec import BENCH_EPOCH_BASE, sample_channel_state

    def show(config: str, name: str, data: bytes) -> None:
        print(f"{config:<14} {name:<24} {hashlib.sha256(data).hexdigest()}",
              flush=True)

    def schedules(cfg, out: str) -> bytes:
        art = load_artifacts(cfg, Path(out))
        scen = art.scenario
        parts = []
        for k in range(cfg.bench.n_channels):
            ch = sample_channel_state(scen, BENCH_EPOCH_BASE + k,
                                      art.seeds.channel)
            dec = decide(art.policy, art.compressor.encode_channel(ch).vector,
                         scen.n_ues, scen.n_mecs)
            parts += [dec.assign, allocate_frequencies(dec, scen),
                      max_power_assignment(scen, dec)]
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

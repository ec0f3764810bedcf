"""Train reference configurations and print the sha256 of every artifact.

    python3 tools/artifact_hashes.py              # every tools/configs/*.yaml
    python3 tools/artifact_hashes.py tools/configs/default.yaml
    python3 tools/artifact_hashes.py --src ../other/src   # another checkout

Each config runs the same pipeline as ``edgesched train --config FILE``
into a temporary directory, one at a time in this process, then the
benchmark with the oracle on the reloaded set, as ``edgesched bench
--oracle --out DIR`` would.  One line per artifact: config name, file name,
sha256.  A refactor that promises byte-identical outputs runs this on both
checkouts and compares the lines.  Wall-clock values are left out:
``timings.csv``, and the two decision-time columns of ``bench.csv``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = ("epochs.csv", "policy.json", "sae.json", "scenario_resolved.yaml",
             "bench.csv")


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
    from edgesched.config import load_config, override
    from edgesched.experiment import bench_experiment, train_experiment

    for path in args.configs:
        with tempfile.TemporaryDirectory() as out:
            cfg = override(load_config(path), out=out)
            train_experiment(cfg, out)
            oracle = replace(cfg.bench, with_oracle=True)
            bench_experiment(replace(cfg, bench=oracle), out)
            for name in ARTIFACTS:
                data = (Path(out) / name).read_bytes()
                if name == "bench.csv":
                    data = untimed(data)
                digest = hashlib.sha256(data)
                print(f"{path.stem:<14} {name:<24} {digest.hexdigest()}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

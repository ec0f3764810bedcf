"""The start-up the hash tools in this directory share.

Importing it sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1
unless the shell sets them, as ``import edgesched`` would had numpy not
come first: the tools import numpy before the package, and the 30x5
training run writes other bytes with two BLAS threads.  It loads neither
numpy nor ``edgesched``; ``parse_args`` puts the package of ``--src``
first on ``sys.path`` before any tool imports it.

A tool run as a script finds this module beside it; code that loads a
tool by path puts this directory on ``sys.path`` first.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(doc: str, argv=None, **positional) -> argparse.Namespace:
    """Parse ``argv`` with the ``positional`` arguments (name to
    ``add_argument`` keywords) and ``--src``, the tool described by
    ``doc``'s first line; then put the ``--src`` package first on
    ``sys.path``."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    for name, spec in positional.items():
        ap.add_argument(name, **spec)
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the edgesched package")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    return args


def bench_draws(scen, count: int, seed: int = 1) -> list:
    """The first ``count`` bench channel draws of ``scen`` under ``seed``."""
    from edgesched.mec import BENCH_EPOCH_BASE, sample_channel_state
    return [sample_channel_state(scen, BENCH_EPOCH_BASE + k, seed)
            for k in range(count)]


def default_scenario(**changes):
    """The default config's scenario section with ``changes``, built at
    fallback seed 1."""
    from edgesched.config import ExperimentConfig, build_scenario
    return build_scenario(replace(ExperimentConfig().scenario, **changes),
                          fallback_seed=1)

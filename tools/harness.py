"""The start-up the tools in this directory share.

Importing it sets ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` to 1
unless the shell sets them, as ``import edgesched`` would had numpy not
come first: the tools import numpy before the package, and the 30x5
training run writes other bytes with two BLAS threads.  It loads neither
numpy nor ``edgesched``; ``parse_args`` puts the package of ``--src``
first on ``sys.path`` before any tool imports it.

A tool run as a script finds this module beside it; code that loads a
tool by path puts this directory on ``sys.path`` first.  ``export_tree``
and ``host_record`` serve the tools that measure one tree against another.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import platform
import subprocess
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


def export_tree(rev: str, dest: Path, repo: Path = ROOT) -> str:
    """Write the committed files of revision ``rev`` of the git checkout
    ``repo`` into the directory ``dest``, as ``git archive REV | tar -x``
    does; returns the full hash of the commit."""
    commit = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.Popen(["git", "-C", str(repo), "archive", commit],
                               stdout=subprocess.PIPE)
    try:
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                       check=True)
    finally:
        archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")
    return commit


def host_record() -> dict:
    """The machine a measurement ran on: CPU count and model, load average,
    and the Python and numpy versions."""
    import numpy
    info = Path("/proc/cpuinfo")
    lines = info.read_text().splitlines() if info.is_file() else []
    cpu = next((line.split(":", 1)[1].strip() for line in lines
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "numpy": numpy.__version__}

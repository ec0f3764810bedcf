import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edgesched

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = ("import os, edgesched; "
         "print(os.environ['OPENBLAS_NUM_THREADS'], os.environ['OMP_NUM_THREADS'])")


def run_probe(probe, **preset):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(preset, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.split()


def threads_after_import(**preset):
    return run_probe(PROBE, **preset)


class TestBlasThreads:
    def test_import_caps_threads_at_one(self):
        assert threads_after_import() == ["1", "1"]

    def test_user_setting_wins(self):
        assert threads_after_import(OPENBLAS_NUM_THREADS="3") == ["3", "1"]


def test_every_export_resolves():
    missing = [name for name in edgesched.__all__
               if not hasattr(edgesched, name)]
    assert missing == []


def test_runtime_imports_no_scipy():
    probe = ("import sys, edgesched, edgesched.cli, edgesched.experiment; "
             "print('scipy' in sys.modules)")
    assert run_probe(probe) == ["False"]


def requirement_names(requirements):
    return {re.split(r"[<>=!~;\[ ]", r, maxsplit=1)[0].lower()
            for r in requirements}


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert requirement_names(project["dependencies"]) == {"numpy", "pyyaml"}
    assert "scipy" in requirement_names(
        project["optional-dependencies"]["test"])


def test_benchmark_tracer_wraps_live_names(monkeypatch):
    """The benchmark's ``--trace 1`` wraps package functions by name (such
    as ``annealing.mutate``); deleting one of them fails here first."""
    from edgesched import annealing
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workload = importlib.import_module("workload")
    mutate = annealing.mutate
    patches = workload.Workload("desk-bench", 1, 1.0, trace=True).traced()
    assert annealing.mutate is not mutate
    patches.restore()
    assert annealing.mutate is mutate

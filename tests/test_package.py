import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def test_package_imports_nothing_from_the_benchmark():
    """The benchmark checks the package against its own latency model, so
    the package must not import ``perfbench`` or any of its modules."""
    banned = {"perfbench"} | {p.stem for p in (ROOT / "perfbench").glob("*.py")}
    found = []
    for path in sorted((SRC / "edgesched").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [(path.name, n) for n in names
                      if n.split(".")[0] in banned]
    assert {"checks", "probes", "refclock", "workload"} <= banned
    assert found == []


def requirement_names(requirements):
    return {re.split(r"[<>=!~;\[ ]", r, maxsplit=1)[0].lower()
            for r in requirements}


def test_scipy_is_a_test_dependency_only():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert requirement_names(project["dependencies"]) == {"numpy", "pyyaml"}
    assert "scipy" in requirement_names(
        project["optional-dependencies"]["test"])


def hooked_names(path, functions):
    """(module, attribute) of every ``wrap(module, "attr", ...)`` call in the
    named functions of ``path``, also where a loop over a tuple of string
    tuples supplies the attribute."""
    found = set()
    for fn in ast.walk(ast.parse(path.read_text())):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in functions):
            continue
        loop_values = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.For) and isinstance(node.target, ast.Tuple):
                for k, var in enumerate(node.target.elts):
                    loop_values[var.id] = [row.elts[k].value
                                           for row in node.iter.elts]
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "wrap"):
                owner, attr = node.args[:2]
                values = ([attr.value] if isinstance(attr, ast.Constant)
                          else loop_values[attr.id])
                found.update((owner.id, v) for v in values)
    return found


def test_benchmark_tracer_wraps_live_names(monkeypatch):
    """The benchmark's ``--trace 1`` wraps package functions by name (such
    as ``annealing.mutate``); deleting one of them fails here first.  So
    does deleting a name it hooks while it sets up, trains and compares,
    or pretraining past ``autoencoder.reconstruction_loss_grads``, on which
    its set-up clock ticks once per step."""
    from edgesched import annealing, autoencoder
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workload = importlib.import_module("workload")
    mutate = annealing.mutate
    patches = workload.Workload("desk-bench", 1, 1.0, trace=True).traced()
    assert annealing.mutate is not mutate
    patches.restore()
    assert annealing.mutate is mutate

    hooks = hooked_names(ROOT / "perfbench" / "workload.py",
                         {"setup", "run_agent", "compare"})
    assert {("autoencoder", "reconstruction_loss_grads"),
            ("agent", "_anneal_search"), ("bench", "pso_oracle")} <= hooks
    missing = [(owner, name) for owner, name in sorted(hooks)
               if not hasattr(getattr(workload, owner), name)]
    assert missing == []

    calls = []
    loss_grads = autoencoder.reconstruction_loss_grads
    monkeypatch.setattr(autoencoder, "reconstruction_loss_grads",
                        lambda *a, **k: calls.append(1) or loss_grads(*a, **k))
    cfg = autoencoder.AutoencoderConfig(dims=[8, 6, 4], t_sae=7)
    rng = np.random.default_rng(0)
    comp = autoencoder.ChannelCompressor(cfg, 4, 2, rng=rng)
    scen = edgesched.random_scenario(4, 2, rng_seed=0)
    comp.pretrain([edgesched.sample_channel_state(scen, e).gains
                   for e in range(1, 20)], rng)
    assert len(comp.memory) > 0 and len(calls) == cfg.t_sae


def test_artifact_hashes_prints_one_digest_per_artifact(monkeypatch, capsys):
    """``tools/artifact_hashes.py``, which every byte-identical refactor is
    checked with, prints one sha256 line per artifact of a config."""
    spec = importlib.util.spec_from_file_location(
        "artifact_hashes", ROOT / "tools" / "artifact_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr(sys, "path", list(sys.path))  # main prepends --src
    config = ROOT / "tools" / "configs" / "identity_6x1.yaml"
    assert tool.main([str(config)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [[config.stem, name]
                                            for name in tool.ARTIFACTS]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line[2]) for line in lines)

import ast
import hashlib
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
TOOLS = ROOT / "tools"
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

    @pytest.mark.parametrize("tool", ["artifact_hashes", "oracle_hashes",
                                      "search_hashes", "harness", "compare"])
    def test_hash_tools_cap_threads_before_numpy(self, tool):
        """A hash tool imports numpy before ``edgesched``, so ``harness``,
        which every tool imports, caps the threads as soon as it is
        loaded, and loads no numpy itself."""
        probe = (f"import os, sys; sys.path.insert(0, {str(TOOLS)!r}); "
                 f"import {tool}; "
                 "print(os.environ['OPENBLAS_NUM_THREADS'], "
                 "os.environ['OMP_NUM_THREADS'], 'numpy' in sys.modules)")
        assert run_probe(probe) == ["1", "1", "False"]


def test_every_export_resolves():
    missing = [name for name in edgesched.__all__
               if not hasattr(edgesched, name)]
    assert missing == []


def test_runtime_imports_no_scipy():
    probe = ("import sys, edgesched, edgesched.cli, edgesched.experiment; "
             "print('scipy' in sys.modules)")
    assert run_probe(probe) == ["False"]


def test_runtime_imports_no_yaml():
    """PyYAML loads only where a config or scenario file is read or
    written, so a process that reads none does not pay for it."""
    probe = ("import sys, edgesched, edgesched.experiment; "
             "print('yaml' in sys.modules)")
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
    cfg = autoencoder.AutoencoderConfig(out_dim=4, t_sae=7)
    rng = np.random.default_rng(0)
    comp = autoencoder.ChannelCompressor(cfg, 4, 2, rng=rng)
    scen = edgesched.random_scenario(4, 2, rng_seed=0)
    comp.pretrain([edgesched.sample_channel_state(scen, e).gains
                   for e in range(1, 20)], rng)
    assert len(comp.memory) > 0 and len(calls) == cfg.t_sae


def called_names(path):
    """(module, attribute) of every attribute read on a module that ``path``
    imports with ``from edgesched import ...``."""
    tree = ast.parse(path.read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "edgesched" for alias in node.names}
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_benchmark_calls_live_names():
    """The benchmark also calls package names directly, such as
    ``experiment.agent_config``, which only the benchmark calls; deleting
    or renaming one of them fails here first."""
    calls = called_names(ROOT / "perfbench" / "workload.py")
    assert {("experiment", "agent_config"),
            ("experiment", "pretrain_compressor"), ("bench", "PsoConfig"),
            ("agent", "SeedBundle")} <= calls
    missing = [(owner, name) for owner, name in sorted(calls)
               if not hasattr(importlib.import_module(f"edgesched.{owner}"),
                              name)]
    assert missing == []


def load_tool(name, monkeypatch):
    """``tools/<name>.py`` loaded by path, with ``tools/`` first on a copy of
    ``sys.path``, where the tool finds ``harness`` and its ``main`` puts
    ``--src``."""
    monkeypatch.setattr(sys, "path", [str(TOOLS), *sys.path])
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_artifact_hashes_prints_one_digest_per_artifact(monkeypatch, capsys):
    """``tools/artifact_hashes.py``, which every byte-identical refactor is
    checked with, prints one sha256 line per artifact of a config, then one
    for its pretraining loss trace and one for its online schedules."""
    tool = load_tool("artifact_hashes", monkeypatch)
    config = TOOLS / "configs" / "identity_6x1.yaml"
    assert tool.main([str(config)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[:2] for line in lines] == [
        [config.stem, name]
        for name in (*tool.ARTIFACTS, tool.TRACE, tool.SCHEDULE)]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line[2]) for line in lines)
    # the identity compressor trains nothing: its trace is empty; the
    # schedules are not
    empty = hashlib.sha256(b"").hexdigest()
    assert lines[-2][2] == empty and lines[-1][2] != empty



def test_search_hashes_prints_one_line_per_set(monkeypatch, capsys):
    """``tools/search_hashes.py``, which a change promising identical search
    results is checked with, prints a digest, the shares of calls that
    started on the loop and that handed over to windows, the share of
    iterations scored in windows and a time per draw set."""
    tool = load_tool("search_hashes", monkeypatch)
    assert tool.main([]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == ["desk", "desk-g", "10x5", "20x3",
                                           "30x5", "50x5", "wide"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line[1]) for line in lines)
    assert all(line[2:7:2] == ["loop", "handover", "windows"]
               and line[9] == "us/call" for line in lines)
    loop, handover, windows = ({line[0]: float(line[k]) for line in lines}
                               for k in (3, 5, 7))
    assert loop["desk"] == loop["desk-g"] == 1.0
    assert loop["30x5"] == loop["50x5"] == 0.0
    assert windows["30x5"] == windows["50x5"] == 1.0
    assert loop["wide"] <= 0.1
    assert all(handover[name] <= loop[name] for name in loop)
    assert handover["desk"] > 0.5


def test_oracle_hashes_prints_one_line_per_set(monkeypatch, capsys):
    """``tools/oracle_hashes.py``, which a change promising identical oracle
    results is checked with, prints a digest, the proven share, node counts,
    greedy's digest and screened share and a time per draw set; here on
    each set's first draw only."""
    tool = load_tool("oracle_hashes", monkeypatch)
    full = tool.draw_sets
    monkeypatch.setattr(tool, "draw_sets", lambda: (
        (name, scen, chans[:1], start)
        for name, scen, chans, start in full()))
    assert tool.main([]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [line[0] for line in lines] == ["desk", "10x1", "10x2", "10x3",
                                           "10x4", "10x5", "30x5", "20x3",
                                           "wide"]
    assert all(re.fullmatch(r"[0-9a-f]{64}", line[1]) for line in lines)
    assert all(line[2] == "exact" and re.fullmatch(r"[01]/1", line[3])
               and line[-1] == "ms/call" for line in lines)
    assert lines[0][3] == "1/1"  # every desk draw is proven
    assert all(line[9] == "greedy" and re.fullmatch(r"[0-9a-f]{64}", line[10])
               and line[11] == "screened"
               and line[12] in ("0.00", "1.00") for line in lines)
    assert lines[0][12] == "1.00"  # the first desk draw clears every floor


def test_readme_library_use_runs(capsys):
    """README's "Library use" block runs as written, so a changed signature
    cannot leave it stale."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme,
                      re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert float(capsys.readouterr().out) > 0

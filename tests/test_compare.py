"""``tools/compare.py`` against a stub checkout whose ``perfbench/run.py``
prints fixed metrics and logs every call."""

import json
import subprocess

import pytest

from test_package import load_tool

STUB_RUN = '''\
import argparse, json, os
from pathlib import Path
ap = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    ap.add_argument(flag)
a = ap.parse_args()
tree = Path(__file__).resolve().parent.parent
side = (tree / "SIDE").read_text().strip()
seed = int(a.seed)
with open(os.environ["STUB_LOG"], "a") as log:
    log.write(f"{side} {a.workload} {seed} {a.seconds} {a.trace}\\n")
out = tree / "perfbench" / "out"
out.mkdir(exist_ok=True)
(out / f"{a.workload}-s{seed}-t{a.trace}.json").write_text(
    json.dumps({"loop_ops": 100 + seed}))
fast = side == "change"
metrics = {"setup_s": (0.9 if fast else 1.0) + seed / 1000,
           "ops_per_s": 110.0 if fast else 100.0,
           "online_nrr": 0.5 + seed / 100}
print("noise")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"}
                              for k, v in metrics.items()}}))
'''

BENCHMARK = {
    "command": ["python3", "perfbench/run.py"], "paths": ["perfbench"],
    "run_seconds": 2,
    "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
        {"name": "online_nrr", "unit": "ratio", "better": "higher",
         "bound": 0.03}],
}


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
         *args], check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def stub_repo(tmp_path):
    """A git checkout whose committed tree says ``parent`` and whose files
    on disk say ``change``."""
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (repo / "SIDE").write_text("parent\n")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    (repo / "SIDE").write_text("change\n")
    return repo


def test_pairs_alternate_and_the_record_holds_the_figures(
        stub_repo, tmp_path, monkeypatch, capsys):
    log = tmp_path / "calls.log"
    monkeypatch.setenv("STUB_LOG", str(log))
    tool = load_tool("compare", monkeypatch)
    assert tool.main(["--parent", "HEAD", "--pairs", "3", "--tag", "t",
                      "--repo", str(stub_repo)]) == 0
    calls = [line.split() for line in log.read_text().splitlines()]
    order = [["parent", "change"], ["change", "parent"], ["parent", "change"]]
    assert calls == [[side, w, str(k + 1), "2", "0"]
                     for w in ("w1", "w2") for k in range(3)
                     for side in order[k]]

    path = stub_repo / "BENCH_t.json"
    assert capsys.readouterr().out.strip() == str(path)
    rec = json.loads(path.read_text())
    assert rec["tag"] == "t" and rec["seconds"] == 2
    assert rec["parent"] == {"rev": "HEAD", "commit": git(stub_repo,
                                                          "rev-parse", "HEAD")}
    assert rec["change"]["commit"] == rec["parent"]["commit"]
    assert rec["change"]["uncommitted"] is True
    assert set(rec["host"]) == {"nproc", "cpu", "loadavg", "python", "numpy"}
    assert list(rec["workloads"]) == ["w1", "w2"]
    for w in rec["workloads"].values():
        assert [(p["seed"], p["first"]) for p in w["pairs"]] == [
            (1, "parent"), (2, "change"), (3, "parent")]
        first = w["pairs"][0]
        assert first["parent"] == {
            "metrics": {"setup_s": 1.001, "ops_per_s": 100.0,
                        "online_nrr": 0.51},
            "loop_ops": 101, "correct": True, "attempted": 3, "failed": 0}
        assert w["nrr_match"] is True and w["runs_failed"] == 0
        assert w["ops_failed"] == {"parent": 0, "change": 0}
        setup, ops, nrr = (w["metrics"][k] for k in
                           ("setup_s", "ops_per_s", "online_nrr"))
        assert setup["parent"] == {"median": 1.002, "q1": 1.0015,
                                   "q3": 1.0025}
        assert setup["parent_iqr"] == pytest.approx(0.001)
        assert setup["change"]["median"] == pytest.approx(0.902)
        assert setup["change_wins"] == ops["change_wins"] == 3
        assert nrr["change_wins"] == 0 and not nrr["gain_beyond_parent_iqr"]
        assert setup["gain_beyond_parent_iqr"] and ops["gain_beyond_parent_iqr"]
        assert setup["median_rel_change"] == pytest.approx(-0.1 / 1.002)
        assert setup["bound_headroom"] == pytest.approx(0.25 + 0.1 / 1.002)
        assert ops["bound_headroom"] == pytest.approx(0.3)
        assert nrr["bound_headroom"] == pytest.approx(0.03)
        assert setup["better"] == "lower" and setup["pairs"] == 3


def test_a_failed_run_is_recorded_not_summarised(stub_repo, tmp_path,
                                                 monkeypatch):
    monkeypatch.setenv("STUB_LOG", str(tmp_path / "calls.log"))
    run = stub_repo / "perfbench" / "run.py"
    run.write_text("import sys\nsys.exit('no sources')\n")
    tool = load_tool("compare", monkeypatch)
    assert tool.main(["--parent", "HEAD", "--pairs", "2", "--tag", "t",
                      "--workloads", "w2", "--repo", str(stub_repo)]) == 0
    w = json.loads((stub_repo / "BENCH_t.json").read_text())["workloads"]
    assert list(w) == ["w2"]
    assert w["w2"]["runs_failed"] == 2 and w["w2"]["metrics"] == {}
    assert all("no sources" in p["change"]["error"] for p in w["w2"]["pairs"])
    assert all("metrics" in p["parent"] for p in w["w2"]["pairs"])

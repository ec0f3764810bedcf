import csv
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest

import edgesched
from edgesched import experiment
from edgesched.cli import main as cli_main
from edgesched.config import config_from_dict, dump_scenario
from edgesched.experiment import (HELDOUT_EPOCH_BASE, PRETRAIN_EPOCH_BASE,
                                  bench_experiment, dynamic_experiment,
                                  heldout_accuracy, load_artifacts,
                                  pretrain_compressor, train_experiment)
from edgesched.agent import SeedBundle, run
from edgesched.autoencoder import SAE_FORMAT, ChannelCompressor
from edgesched.mec import (MecSpec, RadioParams, Scenario, Task, UeSpec,
                           random_scenario)
from edgesched.neural import load_checkpoint


def tiny_config(**extra):
    doc = {
        "seed": 5,
        "scenario": {"n_ues": 4, "n_mecs": 2},
        "sae": {"t_sae": 40, "pretrain_samples": 60},
        "drl": {"t_drl": 20, "phi": 5},
        "asa": {"t_sa_init": 4},
        "bench": {"n_channels": 4, "asa_budget": 30},
        "dynamic": {"mec_counts": [1, 2], "nrr_stride": 5,
                    "accuracy_samples": 20},
    }
    doc.update(extra)
    return config_from_dict(doc)


class TestEpochNamespaces:
    def test_disjoint_from_training_and_bench(self):
        assert PRETRAIN_EPOCH_BASE > 1_000_000
        assert HELDOUT_EPOCH_BASE > PRETRAIN_EPOCH_BASE + 100_000


class TestTrain:
    def test_artifact_files(self, tmp_path):
        cfg = tiny_config()
        art = train_experiment(cfg, tmp_path)
        assert len(art.result.logs) == 20
        for name in ("scenario_resolved.yaml", "sae.json", "policy.json",
                     "epochs.csv", "timings.csv"):
            assert (tmp_path / name).exists(), name
        # checkpoint carries the master seed
        doc = json.loads((tmp_path / "policy.json").read_text())
        assert doc["seed"] == 5

    def test_deterministic_outputs(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        train_experiment(tiny_config(), a)
        train_experiment(tiny_config(), b)
        for name in ("epochs.csv", "policy.json", "sae.json",
                     "scenario_resolved.yaml"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_compressing_autoencoder_at_one_server(self, tmp_path):
        # pretraining and the refresh at epoch 200 both train the
        # autoencoder on rows of one entry, the smallest of which is 0
        cfg = config_from_dict({
            "scenario": {"n_ues": 4, "n_mecs": 1},
            "sae": {"out_dim": 2, "t_sae": 40, "pretrain_samples": 60},
            "drl": {"t_drl": 200}})
        art = train_experiment(cfg, tmp_path)
        assert art.compressor.dims == [4, 3, 2]
        assert len(art.sae_trace) == 40 and np.isfinite(art.sae_trace).all()
        assert len(art.result.logs) == 200

    def test_ue_whose_gains_are_all_the_smallest_trains(self):
        # UE 0 is equally far from both servers, and farther from them than
        # any other UE is from either, so with no fading every draw
        # rasterizes its row to [0, 0]; the row takes the all-ones shape
        ues = tuple(UeSpec(pos, Task(data_bits=8e5, cycles=1e9))
                    for pos in ((0, 50), (25, 25), (12, 20)))
        scenario = Scenario(ues=ues, mecs=(MecSpec((10, 10)),
                                           MecSpec((40, 40))),
                            radio=RadioParams(fading="deterministic"))
        cfg = tiny_config(drl={"t_drl": 200, "phi": 5})
        seeds = SeedBundle.from_master(cfg.seed)
        comp, sae_rng, trace = pretrain_compressor(cfg, scenario, seeds)
        assert all((row[:2] == 0.0).all() for row in comp.memory)
        assert len(trace) == 40 and np.isfinite(trace).all()
        # the refresh at epoch 200 trains on the same rows
        result = run(scenario, comp, cfg.drl, cfg.asa, cfg.replay, seeds,
                     sae_rng=sae_rng)
        assert len(result.logs) == 200
        assert all(np.isfinite(row.reward) for row in result.logs)

    def test_no_pretraining_samples_trains_and_primes_online(self, tmp_path):
        cfg = tiny_config(sae={"t_sae": 40, "pretrain_samples": 0})
        art = train_experiment(cfg, tmp_path)
        assert art.sae_trace == [] and len(art.result.logs) == 20
        # the compressor primed itself at the first observed channel
        assert art.compressor.primed
        assert (tmp_path / "sae.json").exists()

    def test_pretrain_uses_dedicated_stream(self):
        cfg = tiny_config()
        from edgesched.agent import SeedBundle
        from edgesched.config import build_scenario

        scen = build_scenario(cfg.scenario, fallback_seed=cfg.seed)
        seeds = SeedBundle.from_master(cfg.seed)
        comp, _, trace = pretrain_compressor(cfg, scen, seeds)
        assert trace and comp.primed
        acc = heldout_accuracy(comp, scen, seeds, n_samples=10)
        assert 0.0 <= acc <= 1.0

    def test_load_artifacts_round_trip(self, tmp_path):
        cfg = tiny_config()
        art = train_experiment(cfg, tmp_path)
        loaded = load_artifacts(cfg, tmp_path)
        assert loaded is not None
        assert loaded.scenario == art.scenario
        for wa, wb in zip(art.policy.weights, loaded.policy.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_reloaded_shifted_run_claims_no_run(self, tmp_path):
        # the files hold no final scenario or shift epoch, so a reload
        # must not make them up
        cfg = tiny_config(drl={"t_drl": 20, "phi": 5, "weight_shift_epoch": 10})
        art = train_experiment(cfg, tmp_path)
        assert art.result.shift_epoch == 10
        assert art.result.scenario_final != art.scenario
        loaded = load_artifacts(cfg, tmp_path)
        assert loaded.result is None and loaded.sae_trace is None
        assert loaded.scenario == art.scenario
        for wa, wb in zip(art.policy.weights, loaded.policy.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_load_artifacts_missing_returns_none(self, tmp_path):
        assert load_artifacts(tiny_config(), tmp_path) is None


class TestBench:
    def test_trains_when_no_artifacts(self, tmp_path):
        rep = bench_experiment(tiny_config(), tmp_path)
        assert (tmp_path / "bench.csv").exists()
        assert {s.name for s in rep.stats} == {"policy", "greedy", "random",
                                               "asa"}

    def test_reuses_trained_artifacts(self, tmp_path):
        cfg = tiny_config()
        art = train_experiment(cfg, tmp_path)
        rep = bench_experiment(cfg, tmp_path, artifacts=art)
        assert rep.n_channels == 4

    def test_reloaded_artifacts_bench_the_same(self, tmp_path):
        # a weight shift makes the run's final scenario differ from the
        # resolved one that a reload sees
        cfg = tiny_config(drl={"t_drl": 20, "phi": 5, "weight_shift_epoch": 10})
        tables = []
        for _ in range(2):  # trains on the first call, reloads on the second
            bench_experiment(cfg, tmp_path)
            with open(tmp_path / "bench.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            tables.append([{k: v for k, v in row.items()
                            if not k.startswith("decision_time")}
                           for row in rows])
        assert tables[0] == tables[1]


class TestDynamic:
    def test_sweep_rows(self, tmp_path):
        rows = dynamic_experiment(tiny_config(), tmp_path)
        assert [r["m"] for r in rows] == [1, 2]
        # M=1 with the default output size (N) compresses nothing
        assert rows[0]["compression_ratio"] == 0.0
        assert rows[0]["accuracy"] == 1.0
        assert 0.0 < rows[1]["compression_ratio"] < 1.0
        for r in rows:
            assert 0.0 <= r["f_avg"] <= 1.0001
            assert 0.0 <= r["s_avg"] <= 1.0001
            assert r["f_best"] >= r["f_avg"] - 1e-12
        lines = (tmp_path / "table3.csv").read_text().splitlines()
        assert lines[0] == ("m,accuracy,compression_ratio,f_best,f_avg,"
                            "s_best,s_avg")
        assert len(lines) == 3

    def test_drl_hidden_trains_on_every_row(self, monkeypatch):
        # one hidden width serves every server count: the ends follow M
        trained = []
        real_train = experiment.train_experiment

        def train(sub):
            trained.append(real_train(sub))
            return trained[-1]

        monkeypatch.setattr(experiment, "train_experiment", train)
        cfg = tiny_config(drl={"t_drl": 20, "phi": 5, "hidden": [16]})
        rows = dynamic_experiment(cfg)
        assert [r["m"] for r in rows] == [1, 2]
        assert [art.policy.dims for art in trained] == [[4, 16, 8],
                                                        [4, 16, 12]]

    def test_sweep_reads_sae_out_dim(self):
        cfg = tiny_config(sae={"t_sae": 40, "pretrain_samples": 60,
                               "out_dim": 2},
                          dynamic={"mec_counts": [2, 4], "nrr_stride": 5,
                                   "accuracy_samples": 20})
        rows = dynamic_experiment(cfg)
        # 4 UEs: 8 -> 2 channel entries at M = 2, 16 -> 2 at M = 4
        assert [r["compression_ratio"] for r in rows] == [0.75, 0.875]

    def test_sweep_rejects_a_scenario_file(self, tmp_path, monkeypatch):
        # without a dynamic section the config loads; the sweep still refuses
        def no_training(*args, **kwargs):
            raise AssertionError("a row trained")
        monkeypatch.setattr(experiment, "train_experiment", no_training)
        path = tmp_path / "s.yaml"
        dump_scenario(random_scenario(4, 2, rng_seed=1), path)
        cfg = config_from_dict({"scenario": {"file": str(path)}})
        with pytest.raises(ValueError, match=re.escape(
                "drop ['scenario.file']")):
            dynamic_experiment(cfg)


class TestCli:
    def test_gen_scenario(self, tmp_path, capsys):
        out = tmp_path / "scen.yaml"
        rc = cli_main(["gen-scenario", str(out), "--seed", "3", "--quiet"])
        assert rc == 0
        assert out.exists()
        assert "10 UEs / 2 MECs" in capsys.readouterr().out

    def test_train_and_inspect(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "seed: 5\n"
            "scenario: {n_ues: 3, n_mecs: 2}\n"
            "sae: {t_sae: 20, pretrain_samples: 30}\n"
            "drl: {t_drl: 8, phi: 4}\n"
            "asa: {t_sa_init: 3}\n")
        rc = cli_main(["train", "--config", str(cfg), "--out",
                       str(tmp_path / "run"), "--quiet"])
        assert rc == 0
        assert "trained 8 epochs" in capsys.readouterr().out

        rc = cli_main(["inspect-checkpoint",
                       str(tmp_path / "run" / "policy.json")])
        assert rc == 0
        text = capsys.readouterr().out
        assert "edgesched-net-v1" in text
        assert "parameters:" in text

        rc = cli_main(["inspect-checkpoint",
                       str(tmp_path / "run" / "sae.json")])
        assert rc == 0
        assert "edgesched-sae-v1" in capsys.readouterr().out

    def test_train_sae_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scenario: {n_ues: 3, n_mecs: 2}\n"
            "sae: {t_sae: 20, pretrain_samples: 30}\n"
            "dynamic: {accuracy_samples: 10}\n")
        rc = cli_main(["train-sae", "--config", str(cfg), "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "compression ratio" in out
        assert "held-out accuracy" in out

    def test_bench_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "seed: 5\n"
            "scenario: {n_ues: 3, n_mecs: 2}\n"
            "sae: {t_sae: 20, pretrain_samples: 30}\n"
            "drl: {t_drl: 8, phi: 4}\n"
            "asa: {t_sa_init: 3}\n"
            "bench: {n_channels: 3, asa_budget: 20}\n")
        rc = cli_main(["bench", "--config", str(cfg), "--out",
                       str(tmp_path / "run"), "--quiet"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "policy" in text and "greedy" in text

    def test_bench_on_trained_run_rejects_bad_drl(self, tmp_path):
        good = ("seed: 5\n"
                "scenario: {n_ues: 3, n_mecs: 2}\n"
                "sae: {t_sae: 20, pretrain_samples: 30}\n"
                "asa: {t_sa_init: 3}\n"
                "bench: {n_channels: 3, asa_budget: 20}\n")
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(good + "drl: {t_drl: 8, phi: 4}\n")
        run = tmp_path / "run"
        assert cli_main(["train", "--config", str(cfg), "--out", str(run),
                         "--quiet"]) == 0
        bad = tmp_path / "bad.yaml"
        bad.write_text(good + "drl: {t_drl: 8, phi: 0}\n")
        # bench on a complete artifact set trains nothing, so only loading
        # the config can catch the bad value
        src = Path(edgesched.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "edgesched.cli", "bench", "--config",
             str(bad), "--out", str(run), "--quiet"],
            env=env, capture_output=True, text=True)
        assert proc.returncode != 0
        assert "drl: phi must be at least 1, got 0" in proc.stderr
        assert not (run / "bench.csv").exists()

    def test_bench_rejects_a_set_trained_with_another_seed(self, tmp_path,
                                                           capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "scenario: {n_ues: 3, n_mecs: 2}\n"
            "sae: {t_sae: 20, pretrain_samples: 30}\n"
            "drl: {t_drl: 8, phi: 4}\n"
            "asa: {t_sa_init: 3}\n"
            "bench: {n_channels: 3, asa_budget: 20}\n")
        run = tmp_path / "run"
        common = ["--config", str(cfg), "--out", str(run), "--quiet"]
        assert cli_main(["train", "--seed", "3", *common]) == 0
        capsys.readouterr()
        # the config's seed is 1: its draws would bench the seed-3 policy
        assert cli_main(["bench", *common]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"edgesched: error: {run}: trained with "
                                "seed 3, but the config's seed is 1\n")
        assert not (run / "bench.csv").exists()
        assert cli_main(["bench", "--seed", "3", *common]) == 0
        assert (run / "bench.csv").exists()

    @pytest.mark.parametrize("case", [
        "malformed", "unknown-format", "missing-config",
        "missing-checkpoint", "directory", "missing-directory"])
    def test_reports_bad_file_in_one_line(self, tmp_path, capsys, case):
        bad, nope = tmp_path / "bad.json", tmp_path / "nope.json"
        bad.write_text("[1]")
        mystery = tmp_path / "mystery.json"
        mystery.write_text('{"format": "mystery"}')
        missing = f"[Errno 2] No such file or directory: '{nope}'"
        argv, message = {
            "malformed": (["inspect-checkpoint", bad],
                          f"{bad}: holds a JSON list, not an object"),
            "unknown-format": (["inspect-checkpoint", mystery],
                               f"{mystery}: unrecognised format 'mystery'"),
            "missing-config": (["train", "--config", nope], missing),
            "missing-checkpoint": (["inspect-checkpoint", nope], missing),
            "directory": (["inspect-checkpoint", tmp_path],
                          f"[Errno 21] Is a directory: '{tmp_path}'"),
            "missing-directory": (
                ["gen-scenario", "--quiet", nope / "scen.yaml"],
                f"[Errno 2] No such file or directory: "
                f"'{nope}/scen.yaml'")}[case]
        assert cli_main([str(a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"edgesched: error: {message}\n"


def inspect_checkpoint(path):
    """``edgesched inspect-checkpoint path``, its one-line error on stderr
    (exit code 2) raised again as the ``ValueError`` it reports."""
    err = io.StringIO()
    with redirect_stderr(err):
        rc = cli_main(["inspect-checkpoint", str(path)])
    if rc == 2:
        (line,) = err.getvalue().splitlines()
        raise ValueError(line.removeprefix("edgesched: error: "))
    return rc


# the readers of a checkpoint file, by name
CHECKPOINT_READERS = {
    "load_checkpoint": load_checkpoint,
    "ChannelCompressor.load": ChannelCompressor.load,
    "inspect-checkpoint": inspect_checkpoint}
# an identity compressor's sae.json, which loads
SAE_DOC = {"format": SAE_FORMAT, "n_ues": 2, "n_mecs": 1, "dims": [2],
           "lo": -1.0, "hi": 0.0, "net": None}


def malformed_checkpoints():
    """(reader, file text, error after the path) per malformed file."""
    for reader in CHECKPOINT_READERS:
        yield reader, "[1, 2]", "holds a JSON list, not an object"
        yield reader, "5", "holds a JSON int, not an object"
        yield reader, "{not json", "Expecting property name"
    for reader in ("ChannelCompressor.load", "inspect-checkpoint"):
        for key in ("net", "dims"):
            doc = {k: v for k, v in SAE_DOC.items() if k != key}
            yield reader, json.dumps(doc), f"missing key '{key}'"


@pytest.mark.parametrize("reader, text, message", list(malformed_checkpoints()))
def test_malformed_checkpoint_names_its_file(tmp_path, reader, text, message):
    p = tmp_path / "ckpt.json"
    p.write_text(json.dumps(SAE_DOC))
    comp, meta = ChannelCompressor.load(p)
    assert comp.dims == [2] and meta == {}
    p.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{p}: {message}')}"):
        CHECKPOINT_READERS[reader](p)


def test_agent_config_hidden_layers():
    from edgesched.agent import AgentConfig, build_policy
    from edgesched.experiment import agent_config
    for drl, dims in ((AgentConfig(), [8, 120, 80, 12]),
                      (AgentConfig(hidden=[30]), [8, 30, 12]),
                      (AgentConfig(hidden=[]), [8, 12])):
        assert agent_config(drl, 8, 4, 2) is drl
        net = build_policy(8, 4, 2, drl, np.random.default_rng(0))
        assert net.dims == dims

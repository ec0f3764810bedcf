import os
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
import yaml

from edgesched.agent import AgentConfig
from edgesched.annealing import T_SA_MAX, AnnealConfig
from edgesched.autoencoder import AutoencoderConfig
from edgesched.config import (BenchSection, DynamicSection, ExperimentConfig,
                              ScenarioConfig, build_scenario, config_from_dict,
                              dump_scenario, load_config, load_scenario,
                              override, scenario_to_dict)
from edgesched.mec import (EPOCH_RANGE_WIDTH, MecSpec, RadioParams, Task,
                           default_mec_positions, random_scenario)
from edgesched.replay import ReplayConfig

README = Path(__file__).resolve().parent.parent / "README.md"
TOOL_CONFIGS = Path(__file__).resolve().parent.parent / "tools" / "configs"


def scenario(**keys) -> ScenarioConfig:
    """What a config's ``scenario`` section with ``keys`` loads into."""
    return config_from_dict({"scenario": keys}).scenario


class TestScenarioConfig:
    def test_desk_defaults(self):
        cfg = ScenarioConfig()
        assert (cfg.n_ues, cfg.n_mecs) == (10, 2)
        assert cfg.f_mec_max == 4e9 and cfg.f_local_max == 2.5e8
        assert cfg.weights == {"low": 0.5, "high": 2.0}
        assert cfg.cycles == {"low": 2e8, "high": 4e9}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario(n_ue=5)

    def test_task_subdict(self):
        # the task sizes are plain scenario keys; the task mapping is gone
        cfg = scenario(data_bits=4e5)
        assert cfg.data_bits == 4e5
        assert cfg.cycles == {"low": 2e8, "high": 4e9}  # untouched default
        with pytest.raises(ValueError, match=re.escape(
                "unknown scenario keys: ['task']")):
            scenario(task={"data_bits": 4e5})

    def test_task_cycles_scalar_and_range(self):
        cfg = scenario(cycles=2e9)
        assert cfg.cycles == 2e9
        scen = build_scenario(cfg, fallback_seed=1)
        assert all(u.task.cycles == 2e9 for u in scen.ues)

        rng_cfg = scenario(cycles={"low": 1e9, "high": 3e9})
        scen = build_scenario(rng_cfg, fallback_seed=1)
        cyc = [u.task.cycles for u in scen.ues]
        assert all(1e9 <= c <= 3e9 for c in cyc)
        assert len(set(cyc)) > 1

    def test_cycles_list_rejected(self):
        # a list once reached build_scenario and raised a bare TypeError;
        # per-UE values are pinned in a scenario file
        with pytest.raises(ValueError,
                           match=r"^scenario: cycles .* scenario file"):
            scenario(n_ues=2, cycles=[1e9, 2e9])

    def test_radio_subdict(self):
        # the radio fields are plain scenario keys; the radio mapping is gone
        cfg = scenario(noise_w=1e-10, fading="deterministic")
        radio = build_scenario(cfg).radio
        assert radio.noise_w == 1e-10 and radio.fading == "deterministic"
        with pytest.raises(ValueError, match=re.escape(
                "unknown scenario keys: ['radio']")):
            scenario(radio={"noise_w": 1e-10})

    def test_mecs_subdict(self):
        # the section lays out n_mecs servers with one shared budget; the
        # mecs list is gone, and a scenario file pins positions and budgets
        cfg = scenario(n_mecs=3, f_mec_max=2e10)
        mecs = build_scenario(cfg).mecs
        assert [m.position for m in mecs] == list(default_mec_positions(3))
        assert all(m.f_max == 2e10 for m in mecs)
        with pytest.raises(ValueError, match=re.escape(
                "unknown scenario keys: ['mecs']")):
            scenario(mecs=[{"position": [5, 5]}])


class TestBuildScenario:
    def test_sampled_matches_direct_call(self):
        cfg = ScenarioConfig(rng_seed=4)
        scen = build_scenario(cfg)
        assert scen.n_ues == 10 and scen.n_mecs == 2
        assert scen.rng_seed == 4
        # weights drawn from the configured range
        assert all(0.5 <= u.weight <= 2.0 for u in scen.ues)

    def test_fallback_seed_used(self):
        a = build_scenario(ScenarioConfig(), fallback_seed=9)
        b = build_scenario(ScenarioConfig(), fallback_seed=9)
        c = build_scenario(ScenarioConfig(), fallback_seed=10)
        assert a == b
        assert a != c

    def test_explicit_ues(self, tmp_path):
        # explicit UEs are pinned in a scenario file, entry by entry
        doc = scenario_to_dict(build_scenario(scenario(n_ues=2, n_mecs=1)))
        doc["ues"][0].update(position=[1.0, 1.0], weight=3.0, cycles=2e9)
        doc["ues"][1].update(data_bits=4e5, f_local_max=5e8)
        p = tmp_path / "pinned.yaml"
        p.write_text(yaml.safe_dump(doc))
        scen = build_scenario(scenario(file=str(p)))
        assert scen.ues[0].position == (1.0, 1.0)
        assert scen.ues[0].weight == 3.0 and scen.ues[0].task.cycles == 2e9
        assert scen.ues[1].task.data_bits == 4e5
        assert scen.ues[1].f_local_max == 5e8

    def test_scalar_and_list_weights(self):
        scal = build_scenario(ScenarioConfig(n_ues=3, weights=2.5))
        assert all(u.weight == 2.5 for u in scal.ues)
        # per-UE weights are pinned in a scenario file
        with pytest.raises(ValueError, match=r"^weights .* scenario file"):
            ScenarioConfig(n_ues=3, weights=[1.0, 2.0, 3.0])


class TestScenarioFiles:
    def test_dump_load_round_trip(self, tmp_path):
        scen = random_scenario(5, 2, rng_seed=13, weights=(0.5, 2.0))
        p = tmp_path / "scen.yaml"
        dump_scenario(scen, p)
        loaded = load_scenario(p)
        assert loaded == scen

    def test_file_pointer_in_config(self, tmp_path):
        scen = random_scenario(4, 2, rng_seed=7)
        p = tmp_path / "pinned.yaml"
        dump_scenario(scen, p)
        cfg = ScenarioConfig(file=str(p))
        assert build_scenario(cfg) == scen
        # a server moved and given its own budget, which the section
        # cannot express, loads through the same pointer unchanged
        doc = yaml.safe_load(p.read_text())
        doc["mecs"][1].update(position=[30.0, 20.0], f_max=9e9)
        p.write_text(yaml.safe_dump(doc))
        edited = build_scenario(cfg)
        assert edited.mecs[0] == scen.mecs[0]
        assert edited.mecs[1] == MecSpec(position=(30.0, 20.0), f_max=9e9)
        assert edited.ues == scen.ues
        assert scenario_to_dict(edited) == doc

    def test_unknown_file_key_rejected(self, tmp_path):
        scen = random_scenario(3, 1, rng_seed=1)
        doc = scenario_to_dict(scen)
        doc["surprise"] = 1
        p = tmp_path / "bad.yaml"
        p.write_text(yaml.safe_dump(doc))
        with pytest.raises(ValueError, match="unknown scenario file"):
            load_scenario(p)

    @pytest.mark.parametrize("kind, key", [
        ("ues", "wieght"), ("mecs", "fmax"), ("radio", "bandwith_hz")])
    def test_unknown_entry_key_rejected(self, tmp_path, kind, key):
        doc = scenario_to_dict(random_scenario(3, 2, rng_seed=1))
        entry = {"ues": doc["ues"][0], "mecs": doc["mecs"][1],
                 "radio": doc["radio"]}[kind]
        entry[key] = 9.0
        p = tmp_path / "typo.yaml"
        p.write_text(yaml.safe_dump(doc))
        msg = re.escape(f"unknown scenario file {kind} keys: ['{key}']")
        with pytest.raises(ValueError, match=msg):
            load_scenario(p)
        with pytest.raises(ValueError, match=msg):
            build_scenario(ScenarioConfig(file=str(p)))

    @pytest.mark.parametrize("kind, key", [
        ("ues", "weight"), ("ues", "position"), ("mecs", "f_max"),
        (None, "area_m"), (None, "ues")])
    def test_missing_key_rejected(self, tmp_path, kind, key):
        doc = scenario_to_dict(random_scenario(3, 2, rng_seed=1))
        entry = {"ues": doc["ues"][0], "mecs": doc["mecs"][1],
                 None: doc}[kind]
        del entry[key]
        p = tmp_path / "short.yaml"
        p.write_text(yaml.safe_dump(doc))
        section = "scenario file" + (f" {kind}" if kind else "")
        msg = re.escape(f"missing {section} keys: ['{key}']")
        with pytest.raises(ValueError, match=msg):
            load_scenario(p)

    @pytest.mark.parametrize("where, key, value, message", [
        ("ues[0]", "weight", True, "weight takes no boolean, got True"),
        ("ues[0]", "weight", float("nan"),
         "weight must be a finite number, got nan"),
        ("ues[0]", "weight", float("inf"),
         "weight must be a finite number, got inf"),
        ("mecs[1]", "f_max", float("inf"),
         "f_max must be a finite number, got inf"),
        ("radio", "noise_w", float("nan"),
         "noise_w must be a finite number, got nan"),
        ("ues[0]", "cycles", "4.0e9", "cycles is the string '4.0e9' but "
         "takes no string (PyYAML reads 4.0e9 and 1e-3 as strings"),
        ("mecs[1]", "f_max", "5e10", "f_max is the string '5e10'"),
        (None, "rng_seed", 1.9, "rng_seed takes an integer, got 1.9"),
        ("ues[0]", "weight", "heavy", "weight is the string 'heavy'"),
        ("ues[0]", "position", [1.0, 2.0, 3.0],
         "position must be two finite numbers, got [1.0, 2.0, 3.0]"),
        ("mecs[0]", "position", [1.0],
         "position must be two finite numbers, got [1.0]"),
        ("radio", "bandwidth_hz", "wide", "bandwidth_hz is the string 'wide'"),
        ("ues[1]", "kappa", -1e-27,
         "kappa must be a positive finite number, got -1e-27")])
    def test_bad_value_names_file_entry_and_key(self, tmp_path, where, key,
                                                value, message):
        doc = scenario_to_dict(random_scenario(3, 2, rng_seed=1))
        kind, _, index = (where or "").rstrip("]").partition("[")
        entry = doc[kind][int(index)] if index else doc.get(kind, doc)
        entry[key] = value
        p = tmp_path / "scen.yaml"
        p.write_text(yaml.safe_dump(doc))
        prefix = f"{p}: " + (f"{where}: " if where else "")
        with pytest.raises(ValueError,
                           match="^" + re.escape(prefix + message)):
            load_scenario(p)

    @pytest.mark.parametrize("text", ["5\n", "", "[1, 2]\n"])
    def test_file_must_hold_a_mapping(self, tmp_path, text):
        p = tmp_path / "scen.yaml"
        p.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{p}: scenario file takes a mapping of keys, got")):
            load_scenario(p)

    @pytest.mark.parametrize("kind", ["mecs", "ues"])
    def test_entries_must_be_a_list_of_mappings(self, tmp_path, kind):
        doc = scenario_to_dict(random_scenario(3, 2, rng_seed=1))
        p = tmp_path / "scen.yaml"
        for value, message in ((5, "mecs and ues each take a list"),
                               ([5], f"{kind}[0]: scenario file {kind} takes "
                                     "a mapping of keys, got 5")):
            p.write_text(yaml.safe_dump({**doc, kind: value}))
            with pytest.raises(ValueError,
                               match="^" + re.escape(f"{p}: {message}")):
                load_scenario(p)

    @pytest.mark.parametrize("path", sorted(TOOL_CONFIGS.glob("*.yaml")),
                             ids=lambda p: p.stem)
    def test_reference_scenarios_round_trip(self, tmp_path, path):
        cfg = load_config(path)
        built = build_scenario(cfg.scenario, fallback_seed=cfg.seed)
        first, second = tmp_path / "first.yaml", tmp_path / "second.yaml"
        dump_scenario(built, first)
        loaded = load_scenario(first)
        dump_scenario(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded == built


class TestExperimentConfig:
    def test_empty_config_is_default(self):
        cfg = config_from_dict({})
        assert cfg.seed == 1
        assert cfg.drl.t_drl == 3000
        assert cfg.sae.t_sae == 500
        assert cfg.asa.t_sa_init == 20
        assert cfg.bench.n_channels == 100
        assert cfg.dynamic.mec_counts == [1, 2, 3, 4, 5]

    def test_unknown_top_level_rejected(self):
        with pytest.raises(ValueError, match="unknown config"):
            config_from_dict({"scenari": {}})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ValueError, match="unknown drl"):
            config_from_dict({"drl": {"t_dlr": 5}})
        with pytest.raises(ValueError, match="unknown asa"):
            config_from_dict({"asa": {"temp": 1.0}})

    def test_lambda_alias(self):
        # lambda_reg is the one spelling; the former alias is unknown
        cfg = config_from_dict({"drl": {"lambda_reg": 0.05}})
        assert cfg.drl.lambda_reg == 0.05
        with pytest.raises(ValueError, match=re.escape(
                "unknown drl keys: ['lambda']")):
            config_from_dict({"drl": {"lambda": 0.05}})

    def test_t_sa_alias(self):
        # t_sa_init is the one spelling; the former alias is unknown
        cfg = config_from_dict({"asa": {"t_sa_init": 33}})
        assert cfg.asa.t_sa_init == 33
        with pytest.raises(ValueError, match=re.escape(
                "unknown asa keys: ['t_sa']")):
            config_from_dict({"asa": {"t_sa": 33}})

    def test_pso_section(self):
        # the swarm oracle and its settings are gone; with_oracle is the switch
        with pytest.raises(ValueError,
                           match=re.escape("unknown bench keys: ['pso']")):
            config_from_dict({"bench": {"pso": {"particles": 10}}})

    def test_load_config_none_is_default(self):
        assert load_config(None).seed == 1

    def test_reference_configs_load(self):
        # the configurations tools/artifact_hashes.py trains
        cfgs = {p.stem: load_config(p)
                for p in sorted(TOOL_CONFIGS.glob("*.yaml"))}
        assert sorted(cfgs) == ["default", "hidden_64", "identity_6x1",
                                "scalar_3mec", "seed7_shift", "wide_30x5"]
        assert cfgs["default"] == ExperimentConfig()
        assert cfgs["hidden_64"].drl.hidden == [64]

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump({"seed": 77, "drl": {"t_drl": 50}}))
        cfg = load_config(p)
        assert cfg.seed == 77
        assert cfg.drl.t_drl == 50
        p.write_text("")
        assert load_config(p) == ExperimentConfig()

    @pytest.mark.parametrize("text", ["5\n", "[1, 2]\n", "just text\n"])
    def test_config_file_must_hold_a_mapping(self, tmp_path, text):
        p = tmp_path / "cfg.yaml"
        p.write_text(text)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{p} must hold a mapping of keys, got")):
            load_config(p)

    @pytest.mark.parametrize("section, key", [
        ("drl", "t_drl"), ("bench", "n_channels"),
        ("sae", "pretrain_samples"), ("dynamic", "accuracy_samples")])
    def test_count_past_its_channel_epoch_range_fails(self, section, key):
        at_limit = config_from_dict({section: {key: EPOCH_RANGE_WIDTH}})
        assert getattr(getattr(at_limit, section), key) == EPOCH_RANGE_WIDTH
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{section}.{key} must be at most {EPOCH_RANGE_WIDTH}, its "
                f"channel epoch range, got {EPOCH_RANGE_WIDTH + 1}")):
            config_from_dict({section: {key: EPOCH_RANGE_WIDTH + 1}})

    def test_override(self):
        cfg = config_from_dict({"seed": 1})
        out = override(cfg, seed=5, out="/tmp/x")
        assert out.seed == 5 and out.out == "/tmp/x"
        untouched = override(cfg)
        assert untouched.seed == 1 and untouched.out is None


def nest(path: str, value):
    """{"a": {"b": value}} for path "a.b"."""
    for part in reversed(path.split(".")):
        value = {part: value}
    return value


# the sections of a config file, each loading into one dataclass
SECTIONS = ["scenario", "sae", "drl", "asa", "replay", "bench", "dynamic"]
# model dataclasses whose every field is a plain scenario key
FLAT_IN_SCENARIO = {"scenario.task": Task, "scenario.radio": RadioParams}
# spellings that once loaded and now are keys of no section
REMOVED = [("scenario", "task"), ("scenario", "radio"), ("scenario", "mecs"),
           ("scenario", "ues"), ("scenario", "mec_positions"),
           ("drl", "lambda"), ("drl", "replay_mode"), ("asa", "t_sa"),
           ("dynamic", "out_dim"), ("replay", "rho_max"),
           ("sae", "threshold"), ("drl", "epsilon_greedy"), ("drl", "search"),
           ("drl", "checkpoint_interval"), ("drl", "hidden_activation"),
           ("sae", "activation"), ("drl", "dims"), ("sae", "dims"),
           ("asa", "epsilon"), ("asa", "t_sa_max"), ("replay", "eps"),
           ("sae", "sync_period"), ("sae", "refresh_iters"),
           ("sae", "memory"), ("sae", "batch"), ("drl", "batch"),
           ("replay", "capacity")]


def section_class(section: str):
    return type(getattr(ExperimentConfig(), section))


def section_defaults(path: str) -> dict:
    """Every field of a section at its default; for a FLAT_IN_SCENARIO path,
    every field of that class at the scenario section's default."""
    if path in FLAT_IN_SCENARIO:
        scen = ScenarioConfig()
        return {f.name: getattr(scen, f.name)
                for f in fields(FLAT_IN_SCENARIO[path])}
    return asdict(getattr(ExperimentConfig(), path))


def readme_example() -> str:
    """The config file shown under README's "## Command line"."""
    section = README.read_text().split("\n## Command line\n", 1)[1]
    return re.search(r"```yaml\n(.*?)```", section, re.S).group(1)


class TestLoader:
    @pytest.mark.parametrize("path", [*SECTIONS, *FLAT_IN_SCENARIO])
    def test_every_field_is_a_key(self, path):
        doc = section_defaults(path)
        assert doc
        section = path.split(".")[0]
        assert config_from_dict({section: doc}) == ExperimentConfig()

    @pytest.mark.parametrize("path", SECTIONS)
    def test_unknown_key_names_its_section(self, path):
        msg = re.escape(f"unknown {path} keys: ['bogus']")
        with pytest.raises(ValueError, match=msg):
            config_from_dict(nest(path, {"bogus": 1}))

    @pytest.mark.parametrize("path, key", REMOVED)
    def test_removed_keys_fail_loudly(self, path, key):
        msg = re.escape(f"unknown {path} keys: ['{key}']")
        with pytest.raises(ValueError, match=msg):
            config_from_dict(nest(path, {key: 1.2}))

    # lambda and t_sa, once aliases within drl and asa, are keys of no section
    @pytest.mark.parametrize("path, alias", [
        ("asa", "lambda"), ("sae", "lambda"), ("replay", "lambda"),
        ("drl", "t_sa"), ("bench", "t_sa")])
    def test_alias_only_in_its_own_section(self, path, alias):
        msg = re.escape(f"unknown {path} keys: ['{alias}']")
        with pytest.raises(ValueError, match=msg):
            config_from_dict(nest(path, {alias: 1}))

    def test_readme_example_loads(self, tmp_path):
        p = tmp_path / "readme.yaml"
        p.write_text(readme_example())
        cfg = load_config(p)
        assert cfg.seed == 7 and cfg.out == "runs/desk"
        assert cfg.drl.lambda_reg == 0.02 and cfg.asa.t_sa_init == 20
        assert cfg.replay.tau == 1.0
        scen = build_scenario(cfg.scenario, fallback_seed=cfg.seed)
        assert scen.ues[0].task.data_bits == 8e5
        assert scen.mecs[0].f_max == 4e9

    @pytest.mark.parametrize("source", ["default", "readme"])
    def test_asdict_round_trip(self, source):
        cfg = (ExperimentConfig() if source == "default"
               else config_from_dict(yaml.safe_load(readme_example())))
        assert config_from_dict(asdict(cfg)) == cfg


class TestAcceptedKeys:
    def test_pinned_sections_are_all_sections(self):
        assert SECTIONS == [f.name for f in fields(ExperimentConfig)
                            if f.name not in ("seed", "out")]

    @pytest.mark.parametrize("path", SECTIONS)
    def test_section_accepts_exactly_its_pinned_keys(self, path):
        # every section's keys are exactly its dataclass's fields: each
        # field loads, and no key of another section or removed spelling does
        own = section_defaults(path)
        assert set(own) == {f.name for f in fields(section_class(path))}
        candidates = set(own).union(
            *(section_defaults(other) for other in SECTIONS),
            (key for _, key in REMOVED))
        for key in sorted(candidates):
            doc = {path: {key: own.get(key, 1)}}
            if key in own:
                config_from_dict(doc)
            else:
                with pytest.raises(ValueError, match=re.escape(
                        f"unknown {path} keys: ['{key}']")):
                    config_from_dict(doc)

    def test_accepted_key_count(self):
        assert sum(len(fields(section_class(s))) for s in SECTIONS) == 40

    def test_runtime_configs_are_the_sections(self):
        cfg = ExperimentConfig()
        assert type(cfg.drl) is AgentConfig
        assert type(cfg.sae) is AutoencoderConfig
        loaded = config_from_dict({"drl": {"phi": 4, "hidden": [30]},
                                   "sae": {"out_dim": 5}})
        assert loaded.drl == AgentConfig(phi=4, hidden=[30])
        assert loaded.sae == AutoencoderConfig(out_dim=5)


# Configs where one key silently overrode another, each with the keys its
# error must name.
OVERRIDES = {
    "file-with-n_ues": ({"scenario": {"file": "s.yaml", "n_ues": 30}},
                        ["file", "n_ues"]),
    "n_ues-vs-ues": ({"scenario": {"n_ues": 10, "cycles": 1e9,
                                   "ues": [{"position": [1, 1]}] * 3}},
                     ["ues"]),
    "n_mecs-vs-mec_positions": (
        {"scenario": {"n_mecs": 3, "mec_positions": [[5, 5], [45, 45]]}},
        ["mec_positions"]),
    "mecs-over-n_mecs": ({"scenario": {"n_mecs": 3, "mecs": [
        {"position": [5, 5]}]}}, ["mecs"]),
    "radio-over-noise_w": ({"scenario": {"noise_w": 3e-9, "radio": {
        "noise_w": 1e-10}}}, ["radio"]),
    "lambda-over-lambda_reg": ({"drl": {"lambda": 0.1, "lambda_reg": 0.5}},
                               ["lambda"]),
    "t_sa-over-t_sa_init": ({"asa": {"t_sa": 5, "t_sa_init": 30}}, ["t_sa"]),
    "weights-list-beside-ues": (
        {"scenario": {"weights": [1.0, 2.0], "cycles": 1e9,
                      "ues": [{"position": [1, 1]}, {"position": [2, 2]}]}},
        ["ues"]),
    "weights-range-beside-ues": (
        {"scenario": {"weights": {"low": 1.0, "high": 3.0}, "cycles": 1e9,
                      "ues": [{"position": [1, 1]}, {"position": [2, 2]}]}},
        ["ues"]),
    "dynamic-with-file": ({"scenario": {"file": "s.yaml"},
                           "dynamic": {"mec_counts": [1, 2]}},
                          ["scenario.file"]),
    "dynamic-with-mec_positions": (
        {"scenario": {"mec_positions": [[5, 5], [45, 45]]},
         "dynamic": {"nrr_stride": 10}}, ["mec_positions"]),
    "dynamic-with-sae.out_dim": ({"dynamic": {"out_dim": 5}},
                                 ["out_dim"]),
}


@pytest.mark.parametrize("name", OVERRIDES)
def test_silent_override_fails_at_load(name):
    doc, keys = OVERRIDES[name]
    with pytest.raises(ValueError) as exc:
        config_from_dict(doc)
    for key in keys:
        assert re.search(rf"\b{re.escape(key)}\b", str(exc.value)), key


def test_file_with_default_keys_loads(tmp_path):
    cfg = config_from_dict(asdict(ExperimentConfig(
        scenario=ScenarioConfig(file=str(tmp_path / "s.yaml")))))
    assert cfg.scenario.file == str(tmp_path / "s.yaml")


class TestBadValues:
    @pytest.mark.parametrize("doc, key", [
        ({"drl": {"hidden": [8, 0]}}, "hidden"),
        ({"scenario": {"cycles": [1e9, 2e9]}}, "cycles"),
        ({"drl": {"t_drl": 0}}, "t_drl"),
        ({"drl": {"phi": 0}}, "phi"),
        ({"replay": {"tau": -0.5}}, "tau"),
        ({"drl": {"lr": 0}}, "lr"),
        ({"drl": {"t_drl": 40, "weight_shift_epoch": 500}},
         "weight_shift_epoch"),
        ({"drl": {"weight_shift_epoch": 0}}, "weight_shift_epoch"),
        ({"asa": {"phi_cool": 1.5}}, "phi_cool"),
        ({"scenario": {"bandwidth_hz": 0}}, "bandwidth_hz"),
        ({"asa": {"t_sa_init": 0}}, "t_sa_init"),
        ({"asa": {"t_sa_init": 101}}, "t_sa_init"),
        ({"bench": {"n_channels": 0}}, "n_channels"),
        ({"bench": {"asa_budget": 0}}, "asa_budget"),
        ({"dynamic": {"nrr_stride": 0}}, "nrr_stride"),
        ({"dynamic": {"accuracy_samples": 0}}, "accuracy_samples"),
        ({"dynamic": {"mec_counts": []}}, "mec_counts"),
        ({"dynamic": {"mec_counts": [2, 0]}}, "mec_counts"),
        ({"sae": {"out_dim": 0}}, "out_dim"),
        ({"scenario": {"fading": "rayleigh"}}, "fading"),
        ({"scenario": {"noise_w": -1}}, "noise_w"),
        ({"scenario": {"min_distance_m": 0}}, "min_distance_m"),
        ({"scenario": {"n_ues": 0}}, "n_ues"),
        ({"scenario": {"area_m": -5}}, "area_m"),
        ({"scenario": {"cycles": {"low": 4e9, "high": 2e8}}}, "cycles"),
        ({"scenario": {"weights": {"low": 2.0, "high": 0.5}}}, "weights"),
        ({"scenario": {"cycles": {"low": 2e8}}}, "cycles"),
        ({"scenario": {"data_bits": 0}}, "data_bits"),
        ({"scenario": {"cycles": 0}}, "cycles"),
        ({"scenario": {"weights": 0}}, "weights"),
        ({"scenario": {"f_mec_max": 0}}, "f_mec_max"),
        ({"scenario": {"f_local_max": 0}}, "f_local_max"),
        ({"scenario": {"p_ue_max_w": 0}}, "p_ue_max_w"),
        ({"scenario": {"kappa": -1}}, "kappa"),
        ({"scenario": {"v": 0}}, "v"),
        ({"scenario": {"weights": {"low": -1, "high": 2}}}, "weights"),
        ({"scenario": {"cycles": {"low": -1, "high": 2}}}, "cycles"),
        ({"scenario": {"weights": [1.0, 2.0]}}, "weights"),
        # learner settings that would train uphill, on empty batches or
        # with an inverted penalty, or silently act as 0
        ({"sae": {"out_dim": -3}}, "out_dim"),
        ({"sae": {"lr": 0}}, "lr"),
        ({"sae": {"lr": -1e-3}}, "lr"),
        ({"drl": {"lr": -1}}, "lr"),
        ({"sae": {"t_sae": -1}}, "t_sae"),
        ({"asa": {"t0": 0}}, "t0"),
        ({"sae": {"pretrain_samples": -1}}, "pretrain_samples"),
        ({"asa": {"phi_cool": 0}}, "phi_cool"),
        ({"sae": {"gamma1": -0.5}}, "gamma1"),
        ({"sae": {"gamma2": -0.1}}, "gamma2"),
        ({"drl": {"lambda_reg": -0.02}}, "lambda_reg"),
        # range ends pass the scenario's one number rule
        ({"scenario": {"cycles": {"low": True, "high": 4e9}}}, "cycles.low"),
        ({"scenario": {"weights": {"low": "1e-3", "high": 2.0}}},
         "weights.low"),
        ({"scenario": {"weights": {"low": "a", "high": 2.0}}},
         "weights.low"),
        ({"scenario": {"cycles": {"low": 2e8, "high": float("inf")}}},
         "cycles.high")])
    def test_bad_value_names_its_section_and_key(self, doc, key):
        section = next(iter(doc))
        with pytest.raises(ValueError, match=rf"^{section}: .*\b{key}\b"):
            config_from_dict(doc)

    @pytest.mark.parametrize("doc, key", [
        ({"scenario": {"n_ues": 4.0}}, "scenario.n_ues"),
        ({"drl": {"t_drl": 10.5}}, "drl.t_drl"),
        ({"drl": {"t_drl": True}}, "drl.t_drl"),
        ({"bench": {"asa_budget": 2.5}}, "bench.asa_budget"),
        ({"sae": {"t_sae": 3.0}}, "sae.t_sae"),
        ({"dynamic": {"nrr_stride": 10.5}}, "dynamic.nrr_stride"),
        ({"seed": 1.9}, "seed"),
        ({"seed": True}, "seed")])
    def test_float_or_bool_for_an_integer_names_its_key(self, doc, key):
        with pytest.raises(ValueError,
                           match=rf"^{re.escape(key)} takes an integer, got"):
            config_from_dict(doc)

    @pytest.mark.parametrize("doc, key", [
        ({"drl": {"hidden": [64.7]}}, "drl.hidden"),
        ({"drl": {"hidden": [10, True]}}, "drl.hidden"),
        ({"drl": {"hidden": 16}}, "drl.hidden"),
        ({"drl": {"hidden": "16"}}, "drl.hidden"),
        ({"dynamic": {"mec_counts": [1.5]}}, "dynamic.mec_counts"),
        ({"dynamic": {"mec_counts": [True]}}, "dynamic.mec_counts")])
    def test_non_integer_in_a_list_of_integers_names_its_key(self, doc, key):
        with pytest.raises(ValueError, match=rf"^{re.escape(key)} takes a "
                           "list of integers, got"):
            config_from_dict(doc)

    @pytest.mark.parametrize("doc, message", [
        ({"drl": {"lr": True}}, "drl.lr takes no boolean, got True"),
        ({"scenario": {"area_m": True}},
         "scenario.area_m takes no boolean, got True"),
        ({"scenario": {"cycles": False}},
         "scenario.cycles takes no boolean, got False"),
        ({"out": 5}, "out takes a string, got 5"),
        ({"sae": 5}, "sae takes a mapping of keys, got 5"),
        ({"drl": None}, "drl takes a mapping of keys, got None"),
        ({"scenario": {"fading": 1}}, "scenario.fading takes a string, got 1"),
        ({"drl": {"lr": float("inf")}},
         "drl.lr must be a finite number, got inf"),
        ({"asa": {"t0": float("inf")}},
         "asa.t0 must be a finite number, got inf"),
        ({"sae": {"gamma2": float("inf")}},
         "sae.gamma2 must be a finite number, got inf"),
        ({"replay": {"tau": float("nan")}},
         "replay.tau must be a finite number, got nan"),
        ({"scenario": {"area_m": float("nan")}},
         "scenario.area_m must be a finite number, got nan"),
        ({"scenario": {"noise_w": float("nan")}},
         "scenario.noise_w must be a finite number, got nan"),
        ({"scenario": {"f_mec_max": float("inf")}},
         "scenario.f_mec_max must be a finite number, got inf")])
    def test_wrong_type_names_its_key(self, doc, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    def test_bool_and_null_load_where_the_field_takes_them(self):
        cfg = config_from_dict({"bench": {"with_oracle": True}, "out": None,
                                "drl": {"weight_shift_epoch": None}})
        assert cfg.bench.with_oracle is True and cfg.out is None
        yes = yaml.safe_load("seed: 3\nscenario: {area_m: yes}")
        with pytest.raises(ValueError, match="scenario.area_m takes no bool"):
            config_from_dict(yes)
        assert config_from_dict({"seed": 3}).seed == 3

    def test_zero_counts_and_penalties_load(self):
        cfg = config_from_dict({
            "sae": {"t_sae": 0, "pretrain_samples": 0, "gamma1": 0,
                    "gamma2": 0},
            "drl": {"lambda_reg": 0, "hidden": []}})
        assert cfg.sae.t_sae == cfg.sae.pretrain_samples == cfg.sae.gamma2 == 0
        assert cfg.drl.lambda_reg == 0 and cfg.drl.hidden == []

    def test_float_fields_take_integers(self):
        cfg = config_from_dict({"scenario": {"f_mec_max": 4_000_000_000,
                                             "cycles": 1_000_000_000},
                                "asa": {"t0": 2}})
        assert cfg.scenario.f_mec_max == 4e9 and cfg.asa.t0 == 2
        assert cfg.scenario.cycles == 1e9

    def test_budget_may_start_at_its_cap(self):
        cfg = config_from_dict({"asa": {"t_sa_init": 100}})
        assert cfg.asa.t_sa_init == T_SA_MAX == 100

    def test_shift_may_fall_on_the_last_epoch(self):
        cfg = config_from_dict({"drl": {"t_drl": 40,
                                        "weight_shift_epoch": 40}})
        assert cfg.drl.weight_shift_epoch == 40


class TestScenarioEntries:
    def test_mecs_without_f_max_keep_the_section_budget(self):
        cfg = scenario(f_mec_max=8e9, n_mecs=1)
        assert [m.f_max for m in build_scenario(cfg).mecs] == [8e9]


class TestStringValues:
    @pytest.mark.parametrize("doc, key", [
        ({"scenario": {"f_mec_max": "4.0e9"}}, "scenario.f_mec_max"),
        ({"scenario": {"data_bits": "8.0e5"}}, "scenario.data_bits"),
        ({"drl": {"lr": "1e-3"}}, "drl.lr"),
        ({"drl": {"weight_shift_epoch": "1500"}}, "drl.weight_shift_epoch"),
        ({"bench": {"n_channels": "100"}}, "bench.n_channels"),
        ({"seed": "7"}, "seed")])
    def test_string_number_names_its_key(self, doc, key):
        with pytest.raises(ValueError, match=re.escape(key) + ".*4.0e\\+9"):
            config_from_dict(doc)

    def test_string_fields_still_take_strings(self, tmp_path):
        cfg = config_from_dict({"scenario": {"fading": "deterministic"}})
        assert cfg.scenario.fading == "deterministic"
        cfg = config_from_dict({"scenario": {"file": str(tmp_path / "s.yaml")}})
        assert cfg.scenario.file == str(tmp_path / "s.yaml")


def test_dump_scenario_is_atomic(tmp_path, monkeypatch):
    p = tmp_path / "scen.yaml"
    dump_scenario(random_scenario(3, 1, rng_seed=1), p)
    before = p.read_bytes()

    def fail(src, dst):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        dump_scenario(random_scenario(4, 2, rng_seed=2), p)
    assert p.read_bytes() == before
    assert load_scenario(p) == random_scenario(3, 1, rng_seed=1)
    assert [q.name for q in tmp_path.iterdir()] == ["scen.yaml"]


@pytest.mark.parametrize("loader", [load_config, load_scenario])
def test_yaml_syntax_error_names_its_file(tmp_path, loader):
    p = tmp_path / "broken.yaml"
    p.write_text("area_m: [\n")
    with pytest.raises(ValueError,
                       match=rf"(?s)^{re.escape(str(p))}: .*line 2, column 1"):
        loader(p)


CODE_BUILT = [
    (AgentConfig, "lr", float("inf")), (AgentConfig, "lr", True),
    (AgentConfig, "lambda_reg", float("inf")),
    (AutoencoderConfig, "lr", float("inf")), (AutoencoderConfig, "lr", True),
    (AutoencoderConfig, "gamma1", float("inf")),
    (AutoencoderConfig, "gamma2", float("inf")),
    (AnnealConfig, "t0", float("nan")), (AnnealConfig, "t0", float("inf")),
    (AnnealConfig, "phi_cool", True),
    (ReplayConfig, "tau", float("nan")), (ReplayConfig, "tau", float("inf"))]


@pytest.mark.parametrize("cls, key, value", CODE_BUILT, ids=[
    f"{cls.__name__}.{key}={value}" for cls, key, value in CODE_BUILT])
def test_settings_built_in_code_reject_what_a_file_cannot_hold(cls, key,
                                                                value):
    with pytest.raises(ValueError, match=rf"^{key} must "):
        cls(**{key: value})


# every integer count of the configs built in code, with its floor
COUNTS = [(AgentConfig, "t_drl", 1), (AgentConfig, "phi", 1),
          (AgentConfig, "weight_shift_epoch", 1),
          (AutoencoderConfig, "out_dim", 1), (AutoencoderConfig, "t_sae", 0),
          (AutoencoderConfig, "pretrain_samples", 0),
          (AnnealConfig, "t_sa_init", 1), (ScenarioConfig, "n_ues", 1),
          (ScenarioConfig, "n_mecs", 1), (BenchSection, "n_channels", 1),
          (BenchSection, "asa_budget", 1), (DynamicSection, "nrr_stride", 1),
          (DynamicSection, "accuracy_samples", 1)]


@pytest.mark.parametrize("cls, key, floor", COUNTS, ids=[
    f"{cls.__name__}.{key}" for cls, key, _ in COUNTS])
def test_counts_built_in_code_fail_where_they_are_set(cls, key, floor):
    """A count takes a non-bool integer at or above its floor, whatever
    integer type holds it, and nothing else."""
    for bad in (floor + 1.5, float(floor + 2), True, "3", None, floor - 1):
        if bad is None and key in ("out_dim", "weight_shift_epoch", "n_ues",
                                   "n_mecs"):
            continue  # None means unset there
        with pytest.raises(ValueError, match=rf"^{key} must be "):
            cls(**{key: bad})
    for good in (floor, floor + 2, np.int64(floor + 2)):
        assert getattr(cls(**{key: good}), key) == good


def test_hidden_widths_fail_where_they_are_set():
    for bad in (2.5, 8.0, True, "8", 0):
        with pytest.raises(ValueError, match=r"^hidden\[1\] must be "):
            AgentConfig(hidden=[8, bad])
    assert AgentConfig(hidden=[np.int64(8), 1]).hidden == [8, 1]

import os
import re
from dataclasses import asdict, fields
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
import yaml

from edgesched.agent import AgentConfig
from edgesched.autoencoder import AutoencoderConfig
from edgesched.config import (ExperimentConfig, ScenarioConfig, build_scenario,
                              config_from_dict, dump_scenario, load_config,
                              load_scenario, override, scenario_to_dict)
from edgesched.mec import RadioParams, Task, random_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


class TestScenarioConfig:
    def test_desk_defaults(self):
        cfg = ScenarioConfig()
        assert (cfg.n_ues, cfg.n_mecs) == (10, 2)
        assert cfg.f_mec_max == 4e9 and cfg.f_local_max == 2.5e8
        assert cfg.weights == {"low": 0.5, "high": 2.0}
        assert cfg.cycles == {"low": 2e8, "high": 4e9}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            ScenarioConfig.from_dict({"n_ue": 5})

    def test_task_subdict(self):
        cfg = ScenarioConfig.from_dict({"task": {"data_bits": 4e5}})
        assert cfg.data_bits == 4e5
        assert cfg.cycles == {"low": 2e8, "high": 4e9}  # untouched default

    def test_task_cycles_scalar_and_range(self):
        cfg = ScenarioConfig.from_dict({"task": {"cycles": 2e9}})
        assert cfg.cycles == 2e9
        scen = build_scenario(cfg, fallback_seed=1)
        assert all(u.task.cycles == 2e9 for u in scen.ues)

        rng_cfg = ScenarioConfig.from_dict(
            {"task": {"cycles": {"low": 1e9, "high": 3e9}}})
        scen = build_scenario(rng_cfg, fallback_seed=1)
        cyc = [u.task.cycles for u in scen.ues]
        assert all(1e9 <= c <= 3e9 for c in cyc)
        assert len(set(cyc)) > 1

    def test_radio_subdict(self):
        cfg = ScenarioConfig.from_dict({"radio": {"noise_w": 1e-10,
                                                  "fading": "deterministic"}})
        assert cfg.noise_w == 1e-10
        assert cfg.fading == "deterministic"

    def test_mecs_subdict(self):
        cfg = ScenarioConfig.from_dict({"mecs": [
            {"position": [5, 5], "f_max": 2e10},
            {"position": [45, 45], "f_max": 2e10},
        ]})
        assert cfg.n_mecs == 2
        assert cfg.mec_positions == [[5, 5], [45, 45]]
        assert cfg.f_mec_max == 2e10


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

    def test_explicit_ues(self):
        cfg = ScenarioConfig.from_dict({
            "n_mecs": 1,
            "task": {"cycles": 1e9},
            "ues": [{"position": [1, 1]},
                    {"position": [2, 2], "weight": 3.0, "cycles": 2e9}],
        })
        scen = build_scenario(cfg)
        assert scen.n_ues == 2
        assert scen.ues[0].weight == 1.0
        assert scen.ues[1].weight == 3.0
        assert scen.ues[0].task.cycles == 1e9
        assert scen.ues[1].task.cycles == 2e9
        assert scen.ues[0].task.data_bits == cfg.data_bits

    def test_explicit_ue_needs_cycles_under_range_default(self):
        cfg = ScenarioConfig.from_dict({"ues": [{"position": [1, 1]}]})
        with pytest.raises(ValueError, match="pin cycles"):
            build_scenario(cfg)

    def test_scalar_and_list_weights(self):
        scal = build_scenario(ScenarioConfig(n_ues=3, weights=2.5))
        assert all(u.weight == 2.5 for u in scal.ues)
        lst = build_scenario(ScenarioConfig(n_ues=3, weights=[1.0, 2.0, 3.0]))
        assert [u.weight for u in lst.ues] == [1.0, 2.0, 3.0]


class TestScenarioFiles:
    def test_dump_load_round_trip(self, tmp_path):
        scen = random_scenario(5, 2, rng_seed=13, weights=(0.5, 2.0))
        p = tmp_path / "scen.yaml"
        dump_scenario(scen, p)
        loaded = load_scenario(p)
        assert loaded == scen

    def test_load_from_dict(self):
        scen = random_scenario(3, 1, rng_seed=1)
        assert load_scenario(scenario_to_dict(scen)) == scen

    def test_file_pointer_in_config(self, tmp_path):
        scen = random_scenario(4, 2, rng_seed=7)
        p = tmp_path / "pinned.yaml"
        dump_scenario(scen, p)
        cfg = ScenarioConfig(file=str(p))
        assert build_scenario(cfg) == scen

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


class TestExperimentConfig:
    def test_empty_config_is_default(self):
        cfg = config_from_dict({})
        assert cfg.seed == 1
        assert cfg.drl.t_drl == 3000
        assert cfg.sae.t_sae == 500
        assert cfg.asa.t_sa_init == 20
        assert cfg.replay.capacity == 1024
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
        cfg = config_from_dict({"drl": {"lambda": 0.05}})
        assert cfg.drl.lambda_reg == 0.05

    def test_t_sa_alias(self):
        cfg = config_from_dict({"asa": {"t_sa": 33}})
        assert cfg.asa.t_sa_init == 33

    def test_pso_section(self):
        # the swarm oracle and its settings are gone; with_oracle is the switch
        with pytest.raises(ValueError,
                           match=re.escape("unknown bench keys: ['pso']")):
            config_from_dict({"bench": {"pso": {"particles": 10}}})

    def test_load_config_none_is_default(self):
        assert load_config(None).seed == 1

    def test_load_config_file(self, tmp_path):
        p = tmp_path / "cfg.yaml"
        p.write_text(yaml.safe_dump({"seed": 77, "drl": {"t_drl": 50}}))
        cfg = load_config(p)
        assert cfg.seed == 77
        assert cfg.drl.t_drl == 50

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


def section_defaults(path: str) -> dict:
    """Every key a config section accepts, at its default value."""
    scen = ScenarioConfig()
    if path == "scenario":
        return {k: v for k, v in asdict(scen).items()
                if k not in ("data_bits", "cycles")}
    if path in ("scenario.task", "scenario.radio"):
        cls = Task if path == "scenario.task" else RadioParams
        return {f.name: getattr(scen, f.name) for f in fields(cls)}
    return asdict(attrgetter(path)(ExperimentConfig()))


SECTIONS = ["scenario", "scenario.task", "scenario.radio", "sae", "drl",
            "asa", "replay", "bench", "dynamic"]


class TestLoader:
    @pytest.mark.parametrize("path", SECTIONS)
    def test_every_field_is_a_key(self, path):
        doc = section_defaults(path)
        assert doc
        assert config_from_dict(nest(path, doc)) == ExperimentConfig()

    @pytest.mark.parametrize("path", SECTIONS)
    def test_unknown_key_names_its_section(self, path):
        msg = re.escape(f"unknown {path} keys: ['bogus']")
        with pytest.raises(ValueError, match=msg):
            config_from_dict(nest(path, {"bogus": 1}))

    @pytest.mark.parametrize("path, key", [("replay", "rho_max"),
                                           ("sae", "threshold")])
    def test_removed_keys_fail_loudly(self, path, key):
        msg = re.escape(f"unknown {path} keys: ['{key}']")
        with pytest.raises(ValueError, match=msg):
            config_from_dict(nest(path, {key: 1.2}))

    @pytest.mark.parametrize("key", ["data_bits", "cycles"])
    def test_task_sizes_only_under_task(self, key):
        with pytest.raises(ValueError,
                           match=re.escape(f"unknown scenario keys: ['{key}']")):
            config_from_dict({"scenario": {key: 1e6}})

    @pytest.mark.parametrize("path, alias", [
        ("asa", "lambda"), ("sae", "lambda"), ("replay", "lambda"),
        ("drl", "t_sa"), ("bench", "t_sa")])
    def test_alias_only_in_its_own_section(self, path, alias):
        msg = re.escape(f"unknown {path} keys: ['{alias}']")
        with pytest.raises(ValueError, match=msg):
            config_from_dict(nest(path, {alias: 1}))

    def test_readme_example_loads(self, tmp_path):
        example = re.search(r"```yaml\n(.*?)```", README.read_text(),
                            re.S).group(1)
        p = tmp_path / "readme.yaml"
        p.write_text(example)
        cfg = load_config(p)
        assert cfg.seed == 7 and cfg.out == "runs/desk"
        assert cfg.drl.lambda_reg == 0.02 and cfg.asa.t_sa_init == 20
        assert cfg.replay.tau == 1.0
        scen = build_scenario(cfg.scenario, fallback_seed=cfg.seed)
        assert scen.ues[0].task.data_bits == 8e5
        assert scen.mecs[0].f_max == 4e9


# The keys each section accepts, written out so that a renamed, added or
# dropped dataclass field shows up as a changed config key.
ACCEPTED_KEYS = {
    "scenario": ["n_ues", "n_mecs", "area_m", "mec_positions",
                 "bandwidth_hz", "noise_w", "beta0", "p_ue_max_w",
                 "min_distance_m", "fading", "weights", "f_local_max",
                 "f_mec_max", "kappa", "v", "rng_seed", "ues", "file",
                 "task", "radio", "mecs"],
    "scenario.task": ["data_bits", "cycles"],
    "scenario.radio": ["bandwidth_hz", "noise_w", "beta0", "min_distance_m",
                       "fading"],
    "sae": ["dims", "out_dim", "gamma1", "gamma2", "t_sae", "memory",
            "batch", "lr", "activation", "sync_period", "refresh_iters",
            "pretrain_samples"],
    "drl": ["dims", "lambda_reg", "lambda", "t_drl", "phi", "batch", "lr",
            "hidden_activation", "weight_shift_epoch", "search",
            "replay_mode", "epsilon_greedy", "checkpoint_interval"],
    "asa": ["t0", "phi_cool", "t_sa_init", "t_sa", "epsilon", "t_sa_max"],
    "replay": ["capacity", "tau", "eps"],
    "bench": ["n_channels", "asa_budget", "with_oracle"],
    "dynamic": ["mec_counts", "nrr_stride", "out_dim", "accuracy_samples"],
}
# a valid value for the keys that are no field of their section
NON_FIELD_VALUES = {"drl.lambda": 0.02, "asa.t_sa": 20, "scenario.task": {},
                    "scenario.radio": {},
                    "scenario.mecs": [{"position": [5, 5]}]}


class TestAcceptedKeys:
    def test_pinned_sections_are_all_sections(self):
        assert sorted(ACCEPTED_KEYS) == sorted(SECTIONS)

    @pytest.mark.parametrize("path", sorted(ACCEPTED_KEYS))
    def test_section_accepts_exactly_its_pinned_keys(self, path):
        defaults = section_defaults(path)
        for key in ACCEPTED_KEYS[path]:
            value = NON_FIELD_VALUES.get(f"{path}.{key}", defaults.get(key))
            config_from_dict(nest(path, {key: value}))
        assert set(defaults) <= set(ACCEPTED_KEYS[path])

    def test_runtime_configs_are_the_sections(self):
        cfg = ExperimentConfig()
        assert type(cfg.drl) is AgentConfig
        assert type(cfg.sae) is AutoencoderConfig
        loaded = config_from_dict({"drl": {"phi": 4, "dims": [8, 30, 12]},
                                   "sae": {"out_dim": 5}})
        assert loaded.drl == AgentConfig(phi=4, dims=[8, 30, 12])
        assert loaded.sae == AutoencoderConfig(out_dim=5)


class TestBadValues:
    @pytest.mark.parametrize("doc, key", [
        ({"drl": {"search": "hillclimb"}}, "search"),
        ({"drl": {"replay_mode": "none"}}, "replay_mode"),
        ({"drl": {"t_drl": 0}}, "t_drl"),
        ({"drl": {"phi": 0}}, "phi"),
        ({"drl": {"batch": 0}}, "batch"),
        ({"drl": {"dims": [8]}}, "dims"),
        ({"drl": {"t_drl": 40, "weight_shift_epoch": 500}},
         "weight_shift_epoch"),
        ({"drl": {"weight_shift_epoch": 0}}, "weight_shift_epoch"),
        ({"sae": {"dims": [10, 12]}}, "dims"),
        ({"sae": {"memory": 0}}, "memory"),
        ({"asa": {"t_sa": 300}}, "t_sa_init"),
        ({"asa": {"t_sa_init": 101}}, "t_sa_init"),
        ({"bench": {"n_channels": 0}}, "n_channels"),
        ({"bench": {"asa_budget": 0}}, "asa_budget"),
        ({"dynamic": {"nrr_stride": 0}}, "nrr_stride"),
        ({"dynamic": {"accuracy_samples": 0}}, "accuracy_samples"),
        ({"dynamic": {"mec_counts": []}}, "mec_counts"),
        ({"dynamic": {"mec_counts": [2, 0]}}, "mec_counts"),
        ({"sae": {"dims": [20, 10], "out_dim": 5}}, "out_dim")])
    def test_bad_value_names_its_section_and_key(self, doc, key):
        section = next(iter(doc))
        with pytest.raises(ValueError, match=rf"^{section}: .*\b{key}\b"):
            config_from_dict(doc)

    def test_budget_may_start_at_its_cap(self):
        cfg = config_from_dict({"asa": {"t_sa": 100, "t_sa_max": 100}})
        assert cfg.asa.t_sa_init == cfg.asa.t_sa_max == 100

    def test_shift_may_fall_on_the_last_epoch(self):
        cfg = config_from_dict({"drl": {"t_drl": 40,
                                        "weight_shift_epoch": 40}})
        assert cfg.drl.weight_shift_epoch == 40


class TestScenarioEntries:
    def test_ue_typo_rejected(self):
        cfg = ScenarioConfig.from_dict({
            "n_mecs": 1, "task": {"cycles": 1e9},
            "ues": [{"position": [1, 1], "wieght": 2.0}]})
        with pytest.raises(ValueError,
                           match=re.escape("unknown scenario.ues keys: ['wieght']")):
            build_scenario(cfg)

    def test_mec_typo_rejected(self):
        with pytest.raises(ValueError,
                           match=re.escape("unknown scenario.mecs keys: ['fmax']")):
            ScenarioConfig.from_dict({"mecs": [{"position": [5, 5],
                                                "fmax": 9e9}]})

    def test_differing_mec_budgets_rejected(self):
        with pytest.raises(ValueError, match="scenario.file"):
            ScenarioConfig.from_dict({"mecs": [
                {"position": [5, 5], "f_max": 4e9},
                {"position": [45, 45], "f_max": 9e9}]})

    def test_mecs_without_f_max_keep_the_section_budget(self):
        cfg = ScenarioConfig.from_dict({"f_mec_max": 8e9,
                                        "mecs": [{"position": [5, 5]}]})
        assert cfg.f_mec_max == 8e9


class TestStringValues:
    @pytest.mark.parametrize("doc, key", [
        ({"scenario": {"f_mec_max": "4.0e9"}}, "scenario.f_mec_max"),
        ({"scenario": {"task": {"data_bits": "8.0e5"}}}, "scenario.data_bits"),
        ({"drl": {"lr": "1e-3"}}, "drl.lr"),
        ({"drl": {"weight_shift_epoch": "1500"}}, "drl.weight_shift_epoch"),
        ({"bench": {"n_channels": "100"}}, "bench.n_channels")])
    def test_string_number_names_its_key(self, doc, key):
        with pytest.raises(ValueError, match=re.escape(key) + ".*4.0e\\+9"):
            config_from_dict(doc)

    def test_string_fields_still_take_strings(self, tmp_path):
        cfg = config_from_dict({
            "scenario": {"fading": "rayleigh", "file": str(tmp_path / "s.yaml")},
            "drl": {"search": "random"}})
        assert cfg.scenario.fading == "rayleigh"
        assert cfg.scenario.file == str(tmp_path / "s.yaml")
        assert cfg.drl.search == "random"


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

"""YAML experiment configuration and scenario (de)serialisation.

A config file holds one mapping with optional sections ``scenario``, ``sae``,
``drl``, ``asa``, ``replay``, ``bench`` and ``dynamic`` plus top-level
``seed`` and ``out``.  Every key of a section is a field of the dataclass it
loads into, and one loader (``_load``) reads them all; the only aliases are
``drl.lambda`` for ``lambda_reg`` and ``asa.t_sa`` for ``t_sa_init``, each
valid in its own section only.  ``sae`` and ``drl`` load straight into the
runtime ``AutoencoderConfig`` and ``AgentConfig``.  ``scenario`` also accepts
``task``, ``radio`` and ``mecs`` sub-mappings that flatten into its fields.
Unknown keys raise immediately: a typo in a knob name should never silently
fall back to a default.  So does a string given to a field that takes no
string, and so does a value that a section's own checks reject, with the
section's name in front of the message.  Scenario files written by
``gen-scenario`` pin every UE explicitly, load back bit-identically and
reject unknown keys in every entry; a missing top-level, ``ues[i]`` or
``mecs[i]`` key is named in a ``ValueError`` too.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from types import UnionType
from typing import Any, get_args, get_type_hints

import yaml

from .agent import AgentConfig
from .annealing import AnnealConfig
from .autoencoder import AutoencoderConfig
from .mec import (MecSpec, RadioParams, Scenario, Task, UeSpec,
                  default_mec_positions, random_scenario)
from .neural import write_atomic
from .replay import ReplayConfig

# config key -> field name, per section
_ALIASES = {"drl": {"lambda": "lambda_reg"}, "asa": {"t_sa": "t_sa_init"}}


def _check_keys(section: str, data: dict, allowed: set[str],
                complete: bool = False) -> None:
    """Reject keys outside ``allowed``; if ``complete``, also missing ones."""
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    missing = allowed - set(data) if complete else set()
    if missing:
        raise ValueError(f"missing {section} keys: {sorted(missing)}")


def _names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _admits_str(hint) -> bool:
    if isinstance(hint, UnionType):
        return any(map(_admits_str, get_args(hint)))
    return hint in (str, Any)


def _check_strings(cls, section: str, data: dict) -> None:
    """Reject a string where the field of ``cls`` takes no string.

    PyYAML reads a float with no dot or no sign in its exponent (``4.0e9``,
    ``1e-3``) as a string, which would otherwise load silently and fail far
    from its key.
    """
    hints = get_type_hints(cls)
    for key, value in data.items():
        if isinstance(value, str) and not _admits_str(hints[key]):
            raise ValueError(
                f"{section}.{key} is the string {value!r} but takes no "
                "string (PyYAML reads 4.0e9 and 1e-3 as strings: write "
                "4.0e+9 and 1.0e-3)")


def _load(cls, section: str, data: dict):
    """Build dataclass ``cls`` from one config section.

    The allowed keys are the fields of ``cls`` plus the section's aliases.  A
    field whose default is itself a dataclass loads recursively as
    ``section.key``.  The section's own checks run on construction.
    """
    data = dict(data)
    for alias, name in _ALIASES.get(section, {}).items():
        if alias in data:
            data[name] = data.pop(alias)
    _check_keys(section, data, _names(cls))
    _check_strings(cls, section, data)
    for f in fields(cls):
        if f.name in data and is_dataclass(f.default_factory):
            data[f.name] = _load(f.default_factory, f"{section}.{f.name}",
                                 data[f.name])
    try:
        return cls(**data)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from exc


@dataclass
class ScenarioConfig:
    """Synthesis parameters for a scenario, or a pointer to an explicit one.

    ``weights`` accepts a number (same weight everywhere), a list with one
    entry per UE, or a {low, high} mapping for a uniform draw from the
    scenario seed; ``cycles`` under ``task`` accepts the same scalar or
    {low, high} forms.  The defaults describe the desk-scale profile used
    across the bundled experiments.
    """

    n_ues: int = 10
    n_mecs: int = 2
    area_m: float = 50.0
    mec_positions: list | None = None
    bandwidth_hz: float = 1e6
    noise_w: float = 3e-9
    beta0: float = 1e-3
    p_ue_max_w: float = 1.0
    min_distance_m: float = 1.0
    fading: str = "exponential"
    data_bits: float = 8e5
    cycles: Any = field(default_factory=lambda: {"low": 2e8, "high": 4e9})
    weights: Any = field(default_factory=lambda: {"low": 0.5, "high": 2.0})
    f_local_max: float = 2.5e8
    f_mec_max: float = 4e9
    kappa: float = 1e-27
    v: float = 3.0
    rng_seed: int | None = None
    ues: list | None = None
    file: str | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Load the ``scenario`` section, flattening ``task``/``radio``/``mecs``.

        Task sizes are set only under ``task``.  ``mecs`` lists positions
        with one shared ``f_max``; per-MEC budgets need a ``scenario.file``.
        """
        data = dict(data)
        _check_keys("scenario", data,
                    _names(cls) - _names(Task) | {"task", "radio", "mecs"})
        task = data.pop("task", None)
        if task is not None:
            _check_keys("scenario.task", task, _names(Task))
            data.update(task)
        radio = data.pop("radio", None)
        if radio is not None:
            _check_keys("scenario.radio", radio, _names(RadioParams))
            data.update(radio)
        mecs = data.pop("mecs", None)
        if mecs is not None:
            for m in mecs:
                _check_keys("scenario.mecs", m, _names(MecSpec))
            budgets = [m.get("f_max", data.get("f_mec_max", cls.f_mec_max))
                       for m in mecs]
            if len(set(budgets)) > 1:
                raise ValueError(
                    f"scenario.mecs f_max values differ ({budgets}); per-MEC "
                    "budgets need a scenario.file")
            data["mec_positions"] = [list(m["position"]) for m in mecs]
            data["f_mec_max"] = budgets[0]
            data["n_mecs"] = len(mecs)
        _check_strings(cls, "scenario", data)
        return cls(**data)


def build_scenario(cfg: ScenarioConfig, fallback_seed: int = 0) -> Scenario:
    """Materialise a scenario: from file, from explicit UEs, or sampled."""
    if cfg.file is not None:
        return load_scenario(cfg.file)
    seed = cfg.rng_seed if cfg.rng_seed is not None else fallback_seed
    radio = RadioParams(**{k: getattr(cfg, k) for k in _names(RadioParams)})
    if cfg.ues is not None:
        defaults = {"data_bits": cfg.data_bits, "cycles": cfg.cycles,
                    "weight": 1.0, "f_local_max": cfg.f_local_max,
                    "p_max": cfg.p_ue_max_w, "kappa": cfg.kappa, "v": cfg.v}
        for u in cfg.ues:
            _check_keys("scenario.ues", u, _UE_KEYS)
        ues = tuple(_ue_from_dict(u, defaults) for u in cfg.ues)
        positions = cfg.mec_positions or default_mec_positions(cfg.n_mecs,
                                                               cfg.area_m)
        mecs = tuple(MecSpec(position=(float(x), float(y)), f_max=cfg.f_mec_max)
                     for x, y in positions)
        return Scenario(ues=ues, mecs=mecs, radio=radio, area_m=cfg.area_m,
                        rng_seed=seed)
    weights: Any = cfg.weights
    if isinstance(weights, dict):
        weights = (float(weights["low"]), float(weights["high"]))
    elif isinstance(weights, list):
        weights = list(map(float, weights))
    cycles_range = None
    template_cycles = cfg.cycles
    if isinstance(cfg.cycles, dict):
        cycles_range = (float(cfg.cycles["low"]), float(cfg.cycles["high"]))
        template_cycles = cycles_range[0]
    return random_scenario(
        cfg.n_ues, cfg.n_mecs, area_m=cfg.area_m, rng_seed=seed,
        mec_positions=cfg.mec_positions, radio=radio,
        task=Task(data_bits=cfg.data_bits, cycles=float(template_cycles)),
        weights=weights, cycles_range=cycles_range,
        f_local_max=cfg.f_local_max, p_max=cfg.p_ue_max_w,
        f_mec_max=cfg.f_mec_max, kappa=cfg.kappa, v=cfg.v)


# the keys of one UE entry, in a config section and in a scenario file
_UE_KEYS = _names(UeSpec) - {"task"} | _names(Task)
# the UeSpec fields an entry gives as plain numbers
_UE_NUMBERS = [f.name for f in fields(UeSpec)
               if f.name not in ("position", "task")]


def _ue_from_dict(u: dict, defaults: dict) -> UeSpec:
    """One UE entry; a key the entry leaves out takes its ``defaults`` value."""
    u = {**defaults, **u}
    if isinstance(u["cycles"], dict):
        raise ValueError("explicit UEs must pin cycles when the scenario "
                         "default is a range")
    return UeSpec(position=tuple(map(float, u["position"])),
                  task=Task(**{k: float(u[k]) for k in _names(Task)}),
                  **{k: float(u[k]) for k in _UE_NUMBERS})


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "area_m": scenario.area_m,
        "rng_seed": scenario.rng_seed,
        "radio": asdict(scenario.radio),
        "mecs": [{"position": list(m.position), "f_max": m.f_max}
                 for m in scenario.mecs],
        "ues": [{"position": list(u.position), **asdict(u.task),
                 **{k: getattr(u, k) for k in _UE_NUMBERS}}
                for u in scenario.ues],
    }


def dump_scenario(scenario: Scenario, path: str | Path) -> None:
    write_atomic(path, yaml.safe_dump(scenario_to_dict(scenario),
                                      sort_keys=True))


def load_scenario(source: str | Path | dict) -> Scenario:
    data = source if isinstance(source, dict) else yaml.safe_load(
        Path(source).read_text())
    _check_keys("scenario file", data, {"area_m", "rng_seed", "radio",
                                        "mecs", "ues"}, complete=True)
    _check_keys("scenario file radio", data["radio"], _names(RadioParams))
    for m in data["mecs"]:
        _check_keys("scenario file mecs", m, _names(MecSpec), complete=True)
    for u in data["ues"]:
        _check_keys("scenario file ues", u, _UE_KEYS, complete=True)
    radio = RadioParams(**data["radio"])
    mecs = tuple(MecSpec(position=tuple(map(float, m["position"])),
                         f_max=float(m["f_max"])) for m in data["mecs"])
    ues = tuple(_ue_from_dict(u, {}) for u in data["ues"])
    return Scenario(ues=ues, mecs=mecs, radio=radio,
                    area_m=float(data["area_m"]),
                    rng_seed=int(data["rng_seed"]))


def _at_least_one(obj, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass
class BenchSection:
    n_channels: int = 100
    asa_budget: int = 200
    with_oracle: bool = False

    def __post_init__(self) -> None:
        _at_least_one(self, "n_channels", "asa_budget")


@dataclass
class DynamicSection:
    mec_counts: list[int] = field(default_factory=lambda: [1, 2, 3, 4, 5])
    nrr_stride: int = 50
    out_dim: int | None = None
    accuracy_samples: int = 200

    def __post_init__(self) -> None:
        _at_least_one(self, "nrr_stride", "accuracy_samples")
        if not self.mec_counts or min(self.mec_counts) < 1:
            raise ValueError(f"mec_counts {self.mec_counts} must be a "
                             "non-empty list of counts of at least 1")


@dataclass
class ExperimentConfig:
    seed: int = 1
    out: str | None = None
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    sae: AutoencoderConfig = field(default_factory=AutoencoderConfig)
    drl: AgentConfig = field(default_factory=AgentConfig)
    asa: AnnealConfig = field(default_factory=AnnealConfig)
    replay: ReplayConfig = field(default_factory=ReplayConfig)
    bench: BenchSection = field(default_factory=BenchSection)
    dynamic: DynamicSection = field(default_factory=DynamicSection)


def config_from_dict(data: dict) -> ExperimentConfig:
    _check_keys("config", data, _names(ExperimentConfig))
    sections = {f.name: _load(f.default_factory, f.name, data[f.name])
                for f in fields(ExperimentConfig)
                if f.name in data and f.name not in ("seed", "out", "scenario")}
    return ExperimentConfig(
        seed=int(data.get("seed", 1)),
        out=data.get("out"),
        scenario=ScenarioConfig.from_dict(data.get("scenario", {})),
        **sections)


def load_config(path: str | Path | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    data = yaml.safe_load(Path(path).read_text()) or {}
    return config_from_dict(data)


def override(cfg: ExperimentConfig, *, seed: int | None = None,
             out: str | None = None) -> ExperimentConfig:
    """Apply command-line overrides on top of a loaded config."""
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out is not None:
        cfg = replace(cfg, out=out)
    return cfg

"""YAML experiment configuration and scenario (de)serialisation.

A config file holds one mapping with optional sections ``scenario``, ``sae``,
``drl``, ``asa``, ``replay``, ``bench`` and ``dynamic`` plus top-level
``seed`` and ``out``.  One loader (``_load``) reads every section into its
dataclass, whose field names are exactly the section's keys: every setting
has one spelling.  ``sae`` and ``drl`` load straight into the runtime
``AutoencoderConfig`` and ``AgentConfig``.  An unknown key, a string where
a field takes none, a float or bool where it takes an integer, a value the
section's own checks reject, and keys that would silently override one
another all raise a ``ValueError`` at load that names the section and keys.
The ``scenario`` section only samples; scenario files written by
``gen-scenario`` are the one way to pin UEs and servers, load back
bit-identically and reject unknown and missing keys in every entry.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from types import UnionType
from typing import Any, get_args, get_type_hints

import yaml

from .agent import AgentConfig
from .annealing import AnnealConfig
from .autoencoder import AutoencoderConfig
from .mec import (MecSpec, RadioParams, Scenario, Task, UeSpec,
                  random_scenario)
from .neural import write_atomic
from .replay import ReplayConfig


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


def _hint_types(hint) -> set:
    return set(get_args(hint)) if isinstance(hint, UnionType) else {hint}


def _check_types(cls, section: str, data: dict) -> None:
    """Reject a value the type hint of its field in ``cls`` does not admit.

    A string where the field takes none: PyYAML reads a float with no dot or
    no sign in its exponent (``4.0e9``, ``1e-3``) as a string, which would
    otherwise load silently and fail far from its key.  A float or a bool
    where the field takes an integer, or in a list of integers: ``4.0``,
    ``10.5`` and ``true`` would load, then size an array or a loop far from
    their key.  A float field takes an integer as it is.
    """
    hints = get_type_hints(cls)
    for key, value in data.items():
        if hints[key] == list[int]:
            if not (isinstance(value, list)
                    and all(_is_int(v) for v in value)):
                raise ValueError(f"{section}.{key} takes a list of integers, "
                                 f"got {value!r}")
            continue
        types = _hint_types(hints[key])
        if isinstance(value, str) and not types & {str, Any}:
            raise ValueError(
                f"{section}.{key} is the string {value!r} but takes no "
                "string (PyYAML reads 4.0e9 and 1e-3 as strings: write "
                "4.0e+9 and 1.0e-3)")
        if (int in types and not (value is None and type(None) in types)
                and not _is_int(value)):
            raise ValueError(f"{section}.{key} takes an integer, got "
                             f"{value!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _load(cls, section: str, data: dict):
    """Build dataclass ``cls`` from one config section.

    The allowed keys are the fields of ``cls``.  The section's own checks
    run on construction.
    """
    _check_keys(section, data, _names(cls))
    _check_types(cls, section, data)
    try:
        return cls(**data)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from exc


def _default(f):
    return f.default if f.default_factory is MISSING else f.default_factory()


# the keys of one UE entry in a scenario file
_UE_KEYS = _names(UeSpec) - {"task"} | _names(Task)
# the UeSpec fields an entry gives as plain numbers
_UE_NUMBERS = [f.name for f in fields(UeSpec)
               if f.name not in ("position", "task")]
# the scenario keys that take a positive number or a range above zero
_POSITIVE = ("area_m", "data_bits", "cycles", "weights", "f_local_max",
             "f_mec_max", "p_ue_max_w", "kappa", "v")


@dataclass
class ScenarioConfig:
    """Synthesis parameters for a sampled scenario, or a pointer to a file.

    The section samples: ``n_ues`` UEs placed uniformly, ``n_mecs`` servers
    in the default layout (10 and 2 when left out).  ``weights`` and
    ``cycles`` each take a number (the same for every UE) or a {low, high}
    mapping for a uniform draw from the scenario seed.  ``file`` names a
    scenario written by ``dump_scenario``, the one way to pin UEs and
    servers, and takes no other key.
    """

    n_ues: int | None = None
    n_mecs: int | None = None
    area_m: float = 50.0
    bandwidth_hz: float = 1e6
    noise_w: float = 3e-9
    beta0: float = 1e-3
    p_ue_max_w: float = 1.0
    min_distance_m: float = 1.0
    fading: str = "exponential"
    data_bits: float = 8e5
    cycles: float | dict = field(
        default_factory=lambda: {"low": 2e8, "high": 4e9})
    weights: float | dict = field(
        default_factory=lambda: {"low": 0.5, "high": 2.0})
    f_local_max: float = 2.5e8
    f_mec_max: float = 4e9
    kappa: float = 1e-27
    v: float = 3.0
    rng_seed: int | None = None
    file: str | None = None

    def __post_init__(self) -> None:
        if self.file is not None:
            given = [f.name for f in fields(self) if f.name != "file"
                     and getattr(self, f.name) != _default(f)]
            if given:
                raise ValueError("file fixes the whole scenario, so it "
                                 f"takes no other key; drop {given}")
            return
        self.n_ues = 10 if self.n_ues is None else self.n_ues
        self.n_mecs = 2 if self.n_mecs is None else self.n_mecs
        _at_least_one(self, "n_ues", "n_mecs")
        self.radio_params()  # runs the radio's own checks
        for key in ("cycles", "weights"):
            value = getattr(self, key)
            if isinstance(value, dict):
                _check_keys(key, value, {"low", "high"}, complete=True)
                if float(value["low"]) > float(value["high"]):
                    raise ValueError(f"{key} range {value} has low above "
                                     "high")
            elif not isinstance(value, (int, float)):
                raise ValueError(
                    f"{key} takes a number or a {{low, high}} range, not "
                    f"{value!r}; pin per-UE values in a scenario file "
                    "(scenario.file)")
        for key in _POSITIVE:
            value = getattr(self, key)
            # a range is checked at its low end, not at what a seed draws
            value = float(value["low"]) if isinstance(value, dict) else value
            if value <= 0:
                raise ValueError(f"{key} must be positive, got {value}")

    def radio_params(self) -> RadioParams:
        return RadioParams(**{k: getattr(self, k) for k in _names(RadioParams)})


def build_scenario(cfg: ScenarioConfig, fallback_seed: int = 0) -> Scenario:
    """Materialise a scenario: loaded from its file, or sampled."""
    if cfg.file is not None:
        return load_scenario(cfg.file)
    return random_scenario(
        cfg.n_ues, cfg.n_mecs, area_m=cfg.area_m,
        rng_seed=cfg.rng_seed if cfg.rng_seed is not None else fallback_seed,
        radio=cfg.radio_params(), data_bits=cfg.data_bits,
        cycles=_range(cfg.cycles), weights=_range(cfg.weights),
        f_local_max=cfg.f_local_max, p_max=cfg.p_ue_max_w,
        f_mec_max=cfg.f_mec_max, kappa=cfg.kappa, v=cfg.v)


def _range(value):
    """A {low, high} mapping as the (low, high) tuple ``random_scenario`` takes."""
    return ((float(value["low"]), float(value["high"]))
            if isinstance(value, dict) else value)


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
    ues = tuple(UeSpec(position=tuple(map(float, u["position"])),
                       task=Task(**{k: float(u[k]) for k in _names(Task)}),
                       **{k: float(u[k]) for k in _UE_NUMBERS})
                for u in data["ues"])
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

    def __post_init__(self) -> None:
        # a dynamic section away from the defaults marks a sweep config
        if self.dynamic != DynamicSection():
            self.check_sweep()

    def check_sweep(self) -> None:
        """Reject a scenario file, whose servers the ``dynamic`` sweep would
        override per row."""
        if self.scenario.file is not None:
            raise ValueError("the dynamic sweep sets the server count and "
                             "layout per row; drop ['scenario.file']")


def config_from_dict(data: dict) -> ExperimentConfig:
    _check_keys("config", data, _names(ExperimentConfig))
    sections = {f.name: _load(f.default_factory, f.name, data[f.name])
                for f in fields(ExperimentConfig)
                if f.name in data and f.name not in ("seed", "out")}
    return ExperimentConfig(seed=int(data.get("seed", 1)),
                            out=data.get("out"), **sections)


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

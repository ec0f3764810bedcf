"""YAML experiment configuration and scenario (de)serialisation.

A config file holds one mapping with optional sections ``scenario``, ``sae``,
``drl``, ``asa``, ``replay``, ``bench`` and ``dynamic`` plus top-level
``seed`` and ``out``.  One loader (``_load``) reads every section into its
dataclass, whose field names are exactly the section's keys: every setting
has one spelling.  ``sae`` and ``drl`` load straight into the runtime
``AutoencoderConfig`` and ``AgentConfig``.  An unknown key, a string where
a field takes none, a value the section's own checks reject, and keys that
would silently override one another all raise a ``ValueError`` at load that
names the section and keys.  Scenario files written by ``gen-scenario`` pin
every UE explicitly, load back bit-identically and reject unknown and
missing keys in every entry.
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
                  default_mec_positions, random_scenario)
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

    The allowed keys are the fields of ``cls``.  The section's own checks
    run on construction.
    """
    _check_keys(section, data, _names(cls))
    _check_strings(cls, section, data)
    try:
        return cls(**data)
    except ValueError as exc:
        raise ValueError(f"{section}: {exc}") from exc


def _default(f):
    return f.default if f.default_factory is MISSING else f.default_factory()


# the keys of one UE entry, in a config section and in a scenario file
_UE_KEYS = _names(UeSpec) - {"task"} | _names(Task)
# the UeSpec fields an entry gives as plain numbers
_UE_NUMBERS = [f.name for f in fields(UeSpec)
               if f.name not in ("position", "task")]


# the default weight draw of a sampled scenario
_WEIGHT_RANGE = {"low": 0.5, "high": 2.0}


@dataclass
class ScenarioConfig:
    """Synthesis parameters for a scenario, or a pointer to an explicit one.

    ``weights`` accepts a number (same weight everywhere), a list with one
    entry per UE, or a {low, high} mapping for a uniform draw from the
    scenario seed; ``cycles`` accepts a number or a {low, high} mapping, and
    per-UE cycles go in ``ues`` entries.  Beside ``ues``, a number in
    ``weights`` is the default of entries that give no ``weight``, as
    ``cycles`` is theirs; without one the default is 1.0, and a list or
    range other than the default range is rejected.  ``n_ues`` and
    ``n_mecs`` default to the lengths of ``ues`` and ``mec_positions`` where
    those are given, else to the desk-scale 10 and 2, and must agree with
    them.  ``file`` names a scenario written by ``dump_scenario`` and takes
    no other key.
    """

    n_ues: int | None = None
    n_mecs: int | None = None
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
    weights: Any = field(default_factory=lambda: dict(_WEIGHT_RANGE))
    f_local_max: float = 2.5e8
    f_mec_max: float = 4e9
    kappa: float = 1e-27
    v: float = 3.0
    rng_seed: int | None = None
    ues: list | None = None
    file: str | None = None

    def __post_init__(self) -> None:
        if self.file is not None:
            given = [f.name for f in fields(self) if f.name != "file"
                     and getattr(self, f.name) != _default(f)]
            if given:
                raise ValueError("file fixes the whole scenario, so it "
                                 f"takes no other key; drop {given}")
            return
        for count, items, desk in (("n_ues", "ues", 10),
                                   ("n_mecs", "mec_positions", 2)):
            n, listed = getattr(self, count), getattr(self, items)
            if listed is None:
                setattr(self, count, desk if n is None else n)
            elif n is None:
                setattr(self, count, len(listed))
            elif n != len(listed):
                raise ValueError(f"{count} {n} disagrees with the "
                                 f"{len(listed)} entries of {items}")
        _at_least_one(self, "n_ues", "n_mecs")
        if self.area_m <= 0:
            raise ValueError(f"area_m must be positive, got {self.area_m}")
        self.radio_params()  # runs the radio's own checks
        for key in ("cycles", "weights"):
            value = getattr(self, key)
            if isinstance(value, dict):
                _check_keys(key, value, {"low", "high"}, complete=True)
                if float(value["low"]) > float(value["high"]):
                    raise ValueError(f"{key} range {value} has low above "
                                     "high")
        if isinstance(self.cycles, list):
            raise ValueError("cycles takes a number or a {low, high} range, "
                             "not a list; give per-UE cycles in ues entries")
        if (self.ues is not None and not isinstance(self.weights, (int, float))
                and self.weights != _WEIGHT_RANGE):
            raise ValueError("weights beside ues takes one number, the "
                             "entries' default weight; give per-UE weights "
                             "in ues entries")
        for u in self.ues or ():
            _check_keys("ues", u, _UE_KEYS)

    def radio_params(self) -> RadioParams:
        return RadioParams(**{k: getattr(self, k) for k in _names(RadioParams)})


def build_scenario(cfg: ScenarioConfig, fallback_seed: int = 0) -> Scenario:
    """Materialise a scenario: from file, from explicit UEs, or sampled."""
    if cfg.file is not None:
        return load_scenario(cfg.file)
    seed = cfg.rng_seed if cfg.rng_seed is not None else fallback_seed
    radio = cfg.radio_params()
    if cfg.ues is not None:
        weight = cfg.weights if isinstance(cfg.weights, (int, float)) else 1.0
        defaults = {"data_bits": cfg.data_bits, "cycles": cfg.cycles,
                    "weight": weight, "f_local_max": cfg.f_local_max,
                    "p_max": cfg.p_ue_max_w, "kappa": cfg.kappa, "v": cfg.v}
        ues = tuple(_ue_from_dict(u, defaults) for u in cfg.ues)
        positions = cfg.mec_positions or default_mec_positions(cfg.n_mecs,
                                                               cfg.area_m)
        mecs = tuple(MecSpec(position=(float(x), float(y)), f_max=cfg.f_mec_max)
                     for x, y in positions)
        return Scenario(ues=ues, mecs=mecs, radio=radio, area_m=cfg.area_m,
                        rng_seed=seed)
    weights, cycles = (_range(v) for v in (cfg.weights, cfg.cycles))
    ranged = isinstance(cycles, tuple)
    return random_scenario(
        cfg.n_ues, cfg.n_mecs, area_m=cfg.area_m, rng_seed=seed,
        mec_positions=cfg.mec_positions, radio=radio,
        task=Task(data_bits=cfg.data_bits,
                  cycles=float(cycles[0] if ranged else cycles)),
        weights=weights, cycles_range=cycles if ranged else None,
        f_local_max=cfg.f_local_max, p_max=cfg.p_ue_max_w,
        f_mec_max=cfg.f_mec_max, kappa=cfg.kappa, v=cfg.v)


def _range(value):
    """A {low, high} mapping as the (low, high) tuple ``random_scenario`` takes."""
    return ((float(value["low"]), float(value["high"]))
            if isinstance(value, dict) else value)


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
        """Reject the keys the ``dynamic`` sweep would override per row."""
        given = [key for key, value in (
            ("scenario.file", self.scenario.file),
            ("scenario.mec_positions", self.scenario.mec_positions),
            ("sae.dims", self.sae.dims)) if value is not None]
        if given:
            raise ValueError("the dynamic sweep sets the server count, server "
                             f"layout and encoder per row; drop {given}")


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

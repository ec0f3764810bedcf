"""YAML experiment configuration and scenario (de)serialisation.

A config file holds one mapping with optional sections ``scenario``, ``sae``,
``drl``, ``asa``, ``replay``, ``bench`` and ``dynamic`` plus top-level
``seed`` and ``out``.  One loader (``_load``) reads every section into its
dataclass, whose field names are exactly the section's keys: every setting has
one spelling.  ``sae`` and ``drl`` load straight into the runtime
``AutoencoderConfig`` and ``AgentConfig``.  An unknown key, a string where a
field takes none, a float or bool where it takes an integer, a NaN or an
infinity, a value the section's own checks reject, a count past its channel
epoch range and keys that would silently override one another raise a
``ValueError`` at load naming the section and keys.  So do a bool anywhere but
``bench.with_oracle``, a non-integer ``seed``, an ``out`` that is not a string
or null and a file that holds no mapping or no valid YAML, named by its path.
The ``scenario`` section only samples; ``gen-scenario`` files pin UEs and
servers, each entry passing the same type rules, then its spec's checks.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from math import isfinite
from operator import attrgetter
from pathlib import Path
from types import UnionType
from typing import Any, get_args, get_type_hints

import yaml

from .agent import AgentConfig
from .annealing import AnnealConfig
from .autoencoder import AutoencoderConfig
from .mec import (EPOCH_RANGE_WIDTH, MecSpec, RadioParams, Scenario, Task,
                  UeSpec, positive_finite, positive_range, random_scenario)
from .neural import write_atomic
from .replay import ReplayConfig


def _check_keys(section: str, data: dict, allowed: set[str],
                complete: bool = False) -> None:
    """Reject a non-mapping, unknown keys and missing ones if ``complete``."""
    if not isinstance(data, dict):
        raise ValueError(f"{section} takes a mapping of keys, got {data!r}")
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


def _check_types(cls, data: dict, prefix: str = "") -> None:
    """Reject a value the type hint of its field in ``cls`` does not admit.

    A string where the field takes none: PyYAML reads a float with no dot or
    no sign in its exponent (``4.0e9``, ``1e-3``) as a string, which would
    otherwise load silently and fail far from its key.  A float or a bool
    where the field takes an integer, or in a list of integers: ``4.0``,
    ``10.5`` and ``true`` would load, then size an array or a loop far from
    their key.  A bool anywhere else but a ``bool`` field (``true`` would
    load as 1.0), a NaN or an infinity, and anything but a string where the
    field takes only a string or null.  A float field takes an integer as it
    is.  Errors name the key as ``prefix`` + key.
    """
    hints = get_type_hints(cls)
    for key, value in data.items():
        name = prefix + key
        if hints[key] == list[int]:
            if not (isinstance(value, list)
                    and all(_is_int(v) for v in value)):
                raise ValueError(f"{name} takes a list of integers, got "
                                 f"{value!r}")
            continue
        types = _hint_types(hints[key])
        if isinstance(value, str) and not types & {str, Any}:
            raise ValueError(
                f"{name} is the string {value!r} but takes no string "
                "(PyYAML reads 4.0e9 and 1e-3 as strings: write 4.0e+9 and "
                "1.0e-3)")
        if value is None and type(None) in types:
            continue
        if int in types and not _is_int(value):
            raise ValueError(f"{name} takes an integer, got {value!r}")
        if types <= {str, type(None)} and not isinstance(value, str):
            raise ValueError(f"{name} takes a string, got {value!r}")
        if isinstance(value, bool) and bool not in types:
            raise ValueError(f"{name} takes no boolean, got {value!r}")
        if isinstance(value, float) and not isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _load(cls, section: str, data: dict):
    """Build dataclass ``cls`` from one config section.

    The allowed keys are the fields of ``cls``.  The section's own checks
    run on construction.
    """
    _check_keys(section, data, _names(cls))
    _check_types(cls, data, f"{section}.")
    with _naming(section):
        return cls(**data)


@contextmanager
def _naming(where: str):
    """Re-raise a ValueError with ``where`` in front of its message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _default(f):
    return f.default if f.default_factory is MISSING else f.default_factory()


# the keys of one UE entry in a scenario file
_UE_KEYS = _names(UeSpec) - {"task"} | _names(Task)
# the scenario keys that take a positive finite number, or a range of them
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
                positive_range(key, value["low"], value["high"])
            elif not isinstance(value, (int, float)):
                raise ValueError(
                    f"{key} takes a number or a {{low, high}} range, not "
                    f"{value!r}; pin per-UE values in a scenario file "
                    "(scenario.file)")
        for key in _POSITIVE:  # a range's ends are checked above
            if not isinstance(getattr(self, key), dict):
                positive_finite(key, getattr(self, key))

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
    return (value["low"], value["high"]) if isinstance(value, dict) else value


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "area_m": scenario.area_m,
        "rng_seed": scenario.rng_seed,
        "radio": asdict(scenario.radio),
        "mecs": [{"position": list(m.position), "f_max": m.f_max}
                 for m in scenario.mecs],
        "ues": [{**{k: getattr(u, k) for k in _UE_KEYS - _names(Task)},
                 **asdict(u.task), "position": list(u.position)}
                for u in scenario.ues],
    }


def dump_scenario(scenario: Scenario, path: str | Path) -> None:
    write_atomic(path, yaml.safe_dump(scenario_to_dict(scenario),
                                      sort_keys=True))


def _read_yaml(path: str | Path):
    """The document in YAML file ``path``; bad syntax raises ValueError."""
    try:
        with open(path) as f:
            return yaml.safe_load(f)
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _spec(cls, entry: dict, **parts):
    """``cls`` from ``parts`` and its type-checked fields in ``entry``."""
    own = {k: v for k, v in entry.items() if k in _names(cls) - set(parts)}
    _check_types(cls, own)
    return cls(**own, **parts)


def load_scenario(source: str | Path | dict) -> Scenario:
    """The scenario a ``dump_scenario`` file holds; errors name the entry."""
    data = source if isinstance(source, dict) else _read_yaml(source)
    with _naming("scenario" if data is source else str(source)):
        _check_keys("scenario file", data, {"area_m", "rng_seed", "radio",
                                            "mecs", "ues"}, complete=True)
        with _naming("radio"):
            _check_keys("scenario file radio", data["radio"],
                        _names(RadioParams))
            radio = _spec(RadioParams, data["radio"])
        if not all(isinstance(data[key], list) for key in ("mecs", "ues")):
            raise ValueError("mecs and ues each take a list of entries")
        mecs, ues = [], []
        for i, m in enumerate(data["mecs"]):
            with _naming(f"mecs[{i}]"):
                _check_keys("scenario file mecs", m, _names(MecSpec),
                            complete=True)
                mecs.append(_spec(MecSpec, m))
        for i, u in enumerate(data["ues"]):
            with _naming(f"ues[{i}]"):
                _check_keys("scenario file ues", u, _UE_KEYS, complete=True)
                ues.append(_spec(UeSpec, u, task=_spec(Task, u)))
        return _spec(Scenario, data, radio=radio, mecs=tuple(mecs),
                     ues=tuple(ues))


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
        # the counts of the training, bench, pretraining and held-out draws
        for key in ("drl.t_drl", "bench.n_channels", "sae.pretrain_samples",
                    "dynamic.accuracy_samples"):
            if (count := attrgetter(key)(self)) > EPOCH_RANGE_WIDTH:
                raise ValueError(f"{key} must be at most {EPOCH_RANGE_WIDTH}, "
                                 f"its channel epoch range, got {count}")
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
    top = {key: data[key] for key in ("seed", "out") if key in data}
    _check_types(ExperimentConfig, top)
    sections = {f.name: _load(f.default_factory, f.name, data[f.name])
                for f in fields(ExperimentConfig)
                if f.name in data and f.name not in top}
    return ExperimentConfig(**top, **sections)


def load_config(path: str | Path | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    data = _read_yaml(path)
    if not isinstance(data, dict | None):
        raise ValueError(f"{path} must hold a mapping of keys, got {data!r}")
    return config_from_dict(data or {})


def override(cfg: ExperimentConfig, *, seed: int | None = None,
             out: str | None = None) -> ExperimentConfig:
    """Apply command-line overrides on top of a loaded config."""
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out is not None:
        cfg = replace(cfg, out=out)
    return cfg

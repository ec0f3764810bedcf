"""Scenario model and wireless channel for multi-user, multi-server edge offloading.

A scenario fixes N user equipments (UEs), each holding one computation task,
and M edge servers (MECs) in a square service area.  The channel between a UE
and a MEC follows inverse-square path loss with optional small-scale fading,
so channel states vary per epoch while the scenario itself stays immutable.
``Scenario.arrays`` is the one per-scenario table, built once: the latency
model's inputs, the channel-free parts of the scoring kernel that
``allocator.Evaluator`` runs, and of the greedy baseline's first round.
Spec numbers are ``positive_finite`` floats, positions two finite floats,
``rng_seed`` an int.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import inf, isfinite
from numbers import Integral, Real
from typing import NamedTuple, Sequence

import numpy as np

# Namespace keys for per-epoch channel generators, so channel draws are a pure
# function of (seed, epoch) and can be regenerated out of band.
_CHANNEL_NS = 0x0C


def positive_finite(name: str, value) -> float:
    """``value`` as a float if a non-bool real in (0, inf), else ValueError."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not 0 < value < inf):
        raise ValueError(f"{name} must be a positive finite number, got "
                         f"{value!r}")
    return float(value)


def non_negative_finite(name: str, value) -> float:
    """``value`` as a float if a non-bool real in [0, inf), else ValueError."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not 0 <= value < inf):
        raise ValueError(f"{name} must be a non-negative finite number, got "
                         f"{value!r}")
    return float(value)


def integer_at_least(name: str, value, floor: int) -> int:
    """``value`` as an int if a non-bool integer of at least ``floor``, else
    ValueError."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < floor:
        raise ValueError(f"{name} must be at least {floor}, got {value!r}")
    return int(value)


def positive_range(name: str, low, high) -> None:
    """Reject a range whose ends are not ``positive_finite`` (named
    ``name.low`` and ``name.high``) or whose low is above its high."""
    low_f = positive_finite(f"{name}.low", low)
    if low_f > positive_finite(f"{name}.high", high):
        raise ValueError(f"{name} range ({low}, {high}) has low above high")


def _store_positive(spec, *names: str) -> None:
    """Store each named field of a frozen spec as ``positive_finite`` does."""
    for name in names:
        value = positive_finite(name, getattr(spec, name))
        object.__setattr__(spec, name, value)


def _store_position(spec) -> None:
    """Store ``spec.position`` as exactly two finite floats."""
    p = spec.position
    if not (isinstance(p, (tuple, list)) and len(p) == 2 and all(
            isinstance(c, Real) and not isinstance(c, bool) and isfinite(c)
            for c in p)):
        raise ValueError(f"position must be two finite numbers, got {p!r}")
    object.__setattr__(spec, "position", (float(p[0]), float(p[1])))


@dataclass(frozen=True)
class Task:
    """One computation task: input size in bits and required CPU cycles."""

    data_bits: float
    cycles: float

    def __post_init__(self) -> None:
        _store_positive(self, "data_bits", "cycles")


@dataclass(frozen=True)
class UeSpec:
    """A user equipment: location, task, scheduling weight and local limits.

    ``f_local_max`` caps the local CPU frequency (cycles/s), ``p_max`` the
    transmit power in watts.  ``kappa`` and ``v`` parametrise the local
    computation power model p = kappa * f**v.
    """

    position: tuple[float, float]
    task: Task
    weight: float = 1.0
    f_local_max: float = 1e9
    p_max: float = 1.0
    kappa: float = 1e-27
    v: float = 3.0

    def __post_init__(self) -> None:
        _store_position(self)
        _store_positive(self, "weight", "f_local_max", "p_max", "kappa", "v")


@dataclass(frozen=True)
class MecSpec:
    """An edge server: location and total CPU frequency budget (cycles/s)."""

    position: tuple[float, float]
    f_max: float = 5e10

    def __post_init__(self) -> None:
        _store_position(self)
        _store_positive(self, "f_max")


@dataclass(frozen=True)
class RadioParams:
    """Uplink radio parameters shared by all UE-MEC links.

    ``noise_w`` is the receiver noise power in watts, ``beta0`` the channel
    power gain at the 1 m reference distance.  ``fading`` selects the
    small-scale model: "exponential" draws unit-mean exponential power gains
    (Rayleigh amplitude), "deterministic" pins the gain factor to 1.
    """

    bandwidth_hz: float = 1e6
    noise_w: float = 1e-10
    beta0: float = 1e-3
    min_distance_m: float = 1.0
    fading: str = "exponential"

    def __post_init__(self) -> None:
        _store_positive(self, "bandwidth_hz", "noise_w", "beta0",
                        "min_distance_m")
        if self.fading not in ("exponential", "deterministic"):
            raise ValueError(f"unknown fading mode {self.fading!r}")


def local_capacity(ue: UeSpec) -> float:
    """Fastest feasible local CPU frequency under both the cap and power model.

    The local power constraint p = kappa * f**v <= p_max bounds f by
    (p_max/kappa)**(1/v); the hardware cap f_local_max applies on top.
    """
    cap = min(ue.f_local_max, (ue.p_max / ue.kappa) ** (1.0 / ue.v))
    if cap <= 0:
        raise ValueError("local capacity must be positive")
    return cap


def _gain_floor(radio: RadioParams, data_bits: np.ndarray, p_max: np.ndarray,
                local_time: np.ndarray, server_time: np.ndarray) -> np.ndarray:
    """Per UE, a gain h to its nearest MEC at or above which greedy's first
    round, ``upload + server_time > local_time`` with ``upload = D / (B *
    log2(1 + p_max * h / noise))``, is false however it rounds.

    Solving ``upload = room`` for h gives ``noise / p_max * (2**(D / (B *
    room)) - 1)``, taken through ``expm1`` so that a small exponent keeps its
    digits.  ``room`` is ``local_time - server_time`` less a slack of
    ``1e-9 * local_time``.  The slack beats the test's rounding, which moves
    the upload time by a few ulps (this floor's own operations, then the
    rate's product, quotient, ``log2`` and division), ``room`` and the sum
    by one ulp of ``local_time`` each: a few 2**-52 of ``local_time`` in all.
    The floor's SNR ``p_max * h / noise`` is held at 2**-16 or more:
    ``1 + snr`` rounds off a share of about 2**-53 / snr of the rate, at
    most 2**-37 there, while near 1e-8 it would pass the slack.  +inf where
    there is no room, and where the floor overflows.
    """
    room = local_time - server_time - 1e-9 * local_time
    with np.errstate(divide="ignore", over="ignore"):
        snr = np.expm1(np.log(2.0) * data_bits / (radio.bandwidth_hz * room))
    floor = radio.noise_w / p_max * np.maximum(snr, 2.0 ** -16)
    floor[room <= 0] = np.inf
    return floor


class ModelArrays(NamedTuple):
    """One scenario's table as read-only arrays: the latency model's
    inputs, then the channel-free parts of ``allocator.Evaluator``'s cost
    table and of ``bench.greedy_baseline``'s first round."""

    weight: np.ndarray         # (N,) scheduling weights
    cycles: np.ndarray         # (N,) task CPU cycles
    data_bits: np.ndarray      # (N,) task input sizes
    p_max: np.ndarray          # (N,) transmit power caps
    local_cap: np.ndarray      # (N,) local_capacity of each UE
    local_power: np.ndarray    # (N,) kappa * local_cap**v
    sqrt_wf: np.ndarray        # (N,) sqrt(weight * cycles)
    f_mec: np.ndarray          # (M,) MEC frequency budgets
    f_option: np.ndarray       # (M+1,) 0, then f_mec: the budget a
                               # placement entry 0..M indexes
    distances: np.ndarray      # (N, M) UE-to-MEC distances
    clamped_r2: np.ndarray     # (N, M) distances**2, clamped at min_distance_m
    local_cost: np.ndarray     # (N,) weight * cycles / local_cap
    weighted_bits: np.ndarray  # (N, 1) weight * data_bits
    cost_offsets: np.ndarray   # (N,) int64 row starts i * (M+1) in the table
    nearest: np.ndarray        # (N,) int64 nearest MEC, first on ties, 1..M
    gain_index: np.ndarray     # (N,) flat index of that MEC's gain in (N, M)
    local_time: np.ndarray     # (N,) cycles / local_cap, the local run time
    server_time: np.ndarray    # (N,) the run time there, its budget split
                               # equally among the UEs nearest to it
    gain_floor: np.ndarray     # (N,) the gain to that MEC at or above which
                               # the UE never tests slow in greedy's first
                               # round: its exact threshold, raised by a
                               # slack of 1e-9 * local_time that beats the
                               # test's rounding (``_gain_floor``); +inf
                               # where the server time is not below the
                               # local time


@dataclass(frozen=True)
class Scenario:
    """Immutable deployment: UEs, MECs, radio parameters and the service area.

    ``arrays`` is built on first use and kept, and so are the rows
    ``batch_rows`` grows.  A copy made with ``replace`` starts without
    either.
    """

    ues: tuple[UeSpec, ...]
    mecs: tuple[MecSpec, ...]
    radio: RadioParams = RadioParams()
    area_m: float = 50.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.ues or not self.mecs:
            raise ValueError("scenario needs at least one UE and one MEC")
        _store_positive(self, "area_m")
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, Integral):
            raise ValueError(f"rng_seed must be an integer, got {seed!r}")
        for node in (*self.ues, *self.mecs):
            x, y = node.position
            if not (0.0 <= x <= self.area_m and 0.0 <= y <= self.area_m):
                raise ValueError(f"position {node.position} outside area")

    @property
    def n_ues(self) -> int:
        return len(self.ues)

    @property
    def n_mecs(self) -> int:
        return len(self.mecs)

    @cached_property
    def arrays(self) -> ModelArrays:
        """The per-scenario table, built on first use and kept.

        Capacity and power take Python's ``pow`` per UE, not numpy's ``**``.
        """
        ues, n, m = self.ues, self.n_ues, self.n_mecs
        cap_list = [local_capacity(u) for u in ues]
        cap = np.array(cap_list)
        w = np.array([u.weight for u in ues])
        cycles = np.array([u.task.cycles for u in ues])
        data_bits = np.array([u.task.data_bits for u in ues])
        f_mec = np.array([mec.f_max for mec in self.mecs])
        diff = (np.array([u.position for u in ues], dtype=float)[:, None, :]
                - np.array([mec.position for mec in self.mecs],
                           dtype=float)[None])
        dist = np.sqrt((diff ** 2).sum(axis=2))
        # the clamp guards the inverse-square singularity of a UE on a MEC
        r = np.maximum(dist, self.radio.min_distance_m)
        nearest = dist.argmin(axis=1) + 1
        count = np.bincount(nearest, minlength=m + 1)
        p_max = np.array([u.p_max for u in ues])
        local_time = cycles / cap
        server_time = cycles / (f_mec[nearest - 1] / count[nearest])
        arrays = ModelArrays(
            weight=w, cycles=cycles, data_bits=data_bits,
            p_max=p_max, local_cap=cap,
            local_power=np.array([u.kappa * c ** u.v
                                  for u, c in zip(ues, cap_list)]),
            sqrt_wf=np.sqrt(w * cycles), f_mec=f_mec,
            f_option=np.concatenate(([0.0], f_mec)), distances=dist,
            clamped_r2=r * r, local_cost=w * cycles / cap,
            weighted_bits=(w * data_bits)[:, None],
            cost_offsets=np.arange(n) * (m + 1), nearest=nearest,
            gain_index=np.arange(n) * m + nearest - 1,
            local_time=local_time, server_time=server_time,
            gain_floor=_gain_floor(self.radio, data_bits, p_max, local_time,
                                   server_time))
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def batch_rows(self, b: int) -> tuple[np.ndarray, np.ndarray]:
        """The scoring kernel's per-row arrays for a batch of ``b``
        placements: bin offsets ``k * (M+1)``, shape (b, 1), and the load
        weights, sqrt(w*F) tiled b times, shape (b * N,).

        Kept in the instance, as ``cached_property`` keeps ``arrays``, and
        grown at least twofold when a larger batch arrives; a smaller batch
        slices them.  Rebuilt per call, they made scoring a 32-row window at
        10x2 1.5x slower (19.3 against 12.5-13.2 us, one Xeon core).
        """
        rows = self.__dict__.get("_batch_rows")
        if rows is None or b > len(rows[0]):
            size = b if rows is None else max(b, 2 * len(rows[0]))
            rows = (np.arange(size)[:, None] * (self.n_mecs + 1),
                    np.tile(self.arrays.sqrt_wf, size))
            self.__dict__["_batch_rows"] = rows
        return rows[0][:b], rows[1][:b * len(self.ues)]


def _positive_finite_gains(g: np.ndarray) -> np.ndarray:
    """``g`` if every gain is positive and finite, else ValueError."""
    # a NaN fails the min test, +inf the max test; an empty array passes
    if g.size and not (g.min() > 0 and np.isfinite(g.max())):
        raise ValueError("channel gains must be positive and finite")
    return g


@dataclass(frozen=True, slots=True)
class ChannelState:
    """Channel power gains for one epoch, shape (N, M)."""

    gains: np.ndarray

    def __post_init__(self) -> None:
        g = np.asarray(self.gains, dtype=float)
        if g.ndim != 2:
            raise ValueError("gains must be an N x M matrix")
        object.__setattr__(self, "gains", _positive_finite_gains(g))


@dataclass(frozen=True, slots=True)
class OffloadDecision:
    """Placement vector: entry i is 0 for local execution, j in 1..M for MEC j."""

    assign: np.ndarray
    n_mecs: int

    def __post_init__(self) -> None:
        a = np.asarray(self.assign, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("assign must be a length-N vector")
        # only a converted input can have lost a fraction; int64 passes as is
        if a is not self.assign and not np.array_equal(a, self.assign):
            raise ValueError("assignments must be integers")
        # viewed as unsigned, a negative entry is above every M; Python ints
        # compare faster than numpy scalars, and the entry at argmax is the
        # maximum without ``max``'s reduction machinery
        u = a.view(np.uint64)
        if a.size and int(u[u.argmax()]) > self.n_mecs:
            raise ValueError("assignments must lie in {0..M}")
        object.__setattr__(self, "assign", a)


# One channel epoch range, EPOCH_RANGE_WIDTH wide, per user of channel draws,
# so none share a draw: training reads 1..t_drl, the others start at a base.
EPOCH_RANGE_WIDTH = 1_000_000
BENCH_EPOCH_BASE, PRETRAIN_EPOCH_BASE, HELDOUT_EPOCH_BASE = (
    1_000_001, 2_000_001, 3_000_001)


def _epoch_rng(seed: int, epoch: int, namespace: int = _CHANNEL_NS) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(namespace, epoch))
    return np.random.Generator(np.random.PCG64(ss))


def _gains(radio: RadioParams, fading: np.ndarray,
           r2: np.ndarray) -> np.ndarray:
    """beta0 * l / R**2 from small-scale gains ``fading`` of any number of
    (N, M) draws, in place; returns ``fading``."""
    fading *= radio.beta0
    fading /= r2
    return fading


def sample_channel_state(scenario: Scenario, epoch: int,
                         seed: int | None = None) -> ChannelState:
    """Sample the (N, M) gain matrix for one epoch.

    Each gain is beta0 * l / R**2: R the UE-to-MEC distance, clamped below
    at ``min_distance_m`` (R**2 is kept per scenario, as
    ``Scenario.arrays.clamped_r2``), and l the small-scale power gain,
    unit-mean exponential (Rayleigh amplitude) or 1 under "deterministic"
    fading.  The draw is a pure function of (scenario, epoch, seed): the
    generator is derived from the seed and the epoch index, never from call
    order, so any epoch's channel can be regenerated independently.
    ``seed`` defaults to the scenario's own ``rng_seed``.
    """
    entropy = scenario.rng_seed if seed is None else seed
    rng = _epoch_rng(entropy, epoch)
    radio, r2 = scenario.radio, scenario.arrays.clamped_r2
    if radio.fading == "deterministic":
        fading = np.ones(r2.shape)
    else:
        fading = rng.standard_exponential(size=r2.shape)
    return ChannelState(gains=_gains(radio, fading, r2))


def sample_channel_gains(scenario: Scenario, first_epoch: int, count: int,
                         seed: int | None = None) -> np.ndarray:
    """The gains of ``count`` epochs from ``first_epoch`` on, as one
    (count, N, M) array: row k holds ``sample_channel_state(scenario,
    first_epoch + k, seed).gains``, bit for bit.

    Each row is filled from its epoch's own generator, and the stack is
    checked once, by the check ``ChannelState`` makes on one draw.
    """
    entropy = scenario.rng_seed if seed is None else seed
    radio, r2 = scenario.radio, scenario.arrays.clamped_r2
    if radio.fading == "deterministic":
        fading = np.ones((count, *r2.shape))
    else:
        fading = np.empty((count, *r2.shape))
        for k, row in enumerate(fading):
            _epoch_rng(entropy, first_epoch + k).standard_exponential(out=row)
    return _positive_finite_gains(_gains(radio, fading, r2))


def data_rate(bandwidth_hz: float, power_w: float | np.ndarray,
              gain: float | np.ndarray, noise_w: float) -> np.ndarray:
    """Achievable uplink rate B * log2(1 + p*h/sigma^2) in bits/s."""
    snr = np.asarray(power_w, dtype=float) * np.asarray(gain, dtype=float) / noise_w
    return bandwidth_hz * np.log2(1.0 + snr)


# Canonical MEC layouts for 1..5 servers in a 50 m square, kept proportional
# for other area sizes.
_MEC_LAYOUTS = {
    1: ((25.0, 25.0),),
    2: ((10.0, 10.0), (40.0, 40.0)),
    3: ((10.0, 10.0), (25.0, 25.0), (40.0, 40.0)),
    4: ((10.0, 10.0), (10.0, 40.0), (40.0, 10.0), (40.0, 40.0)),
    5: ((10.0, 10.0), (10.0, 40.0), (25.0, 25.0), (40.0, 10.0), (40.0, 40.0)),
}


def default_mec_positions(n_mecs: int, area_m: float = 50.0) -> tuple[tuple[float, float], ...]:
    """Symmetric server layout for small M; random corners are avoided."""
    if n_mecs in _MEC_LAYOUTS:
        scale = area_m / 50.0
        return tuple((x * scale, y * scale) for x, y in _MEC_LAYOUTS[n_mecs])
    # fall back to a ring for larger M
    angles = np.linspace(0.0, 2.0 * np.pi, n_mecs, endpoint=False)
    r = 0.3 * area_m
    c = 0.5 * area_m
    return tuple((float(c + r * np.cos(a)), float(c + r * np.sin(a))) for a in angles)


def _per_ue(name: str, value, n_ues: int,
            rng: np.random.Generator) -> np.ndarray:
    """One value per UE: a scalar for all, an explicit length-N sequence, or
    a (low, high) tuple drawn uniformly from ``rng``."""
    if isinstance(value, (int, float)):
        return np.full(n_ues, float(value))
    if isinstance(value, tuple):
        lo, hi = value
        return rng.uniform(float(lo), float(hi), size=n_ues)
    out = np.asarray(list(value), dtype=float)
    if out.shape[0] != n_ues:
        raise ValueError(f"explicit {name} must have one entry per UE")
    return out


def random_scenario(n_ues: int, n_mecs: int, *, area_m: float = 50.0,
                    rng_seed: int = 0, radio: RadioParams = RadioParams(),
                    data_bits: float = 8e5,
                    cycles: Sequence[float] | tuple[float, float] | float = 1e9,
                    weights: Sequence[float] | tuple[float, float] | float = 1.0,
                    f_local_max: float = 1e9, p_max: float = 1.0,
                    f_mec_max: float = 5e10, kappa: float = 1e-27,
                    v: float = 3.0) -> Scenario:
    """Build a scenario with uniformly placed UEs and the default server layout.

    ``weights`` and ``cycles`` each accept a scalar (every UE), an explicit
    length-N sequence, or a (low, high) tuple sampled uniformly from the
    scenario seed; only a tuple is a range, so a length-2 list or array is
    two values.  The seed's draws come in a fixed order: positions, then
    weights, then cycles, after ``area_m`` and the range ends are checked.
    """
    positive_finite("area_m", area_m)
    for name, value in (("weights", weights), ("cycles", cycles)):
        if isinstance(value, tuple):
            positive_range(name, *value)
    rng = _epoch_rng(rng_seed, 0, namespace=0x5C)
    pos = rng.uniform(0.0, area_m, size=(n_ues, 2))
    w = _per_ue("weights", weights, n_ues, rng)
    cyc = _per_ue("cycles", cycles, n_ues, rng)
    ues = tuple(
        UeSpec(position=(float(pos[i, 0]), float(pos[i, 1])),
               task=Task(data_bits=data_bits, cycles=float(cyc[i])),
               weight=float(w[i]), f_local_max=f_local_max, p_max=p_max,
               kappa=kappa, v=v)
        for i in range(n_ues)
    )
    mecs = tuple(MecSpec(position=(float(x), float(y)), f_max=f_mec_max)
                 for x, y in default_mec_positions(n_mecs, area_m))
    return Scenario(ues=ues, mecs=mecs, radio=radio, area_m=area_m,
                    rng_seed=rng_seed)


# the range a weight shift redraws every UE's weight from
_SHIFT_WEIGHTS = (0.5, 2.0)


def reweighted(scenario: Scenario, rng: np.random.Generator) -> Scenario:
    """Copy of the scenario with freshly drawn UE weights (dynamic workloads)."""
    new_w = rng.uniform(*_SHIFT_WEIGHTS, size=scenario.n_ues)
    ues = tuple(replace(u, weight=float(new_w[i]))
                for i, u in enumerate(scenario.ues))
    return replace(scenario, ues=ues)

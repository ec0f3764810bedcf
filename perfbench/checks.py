"""Checks made apart from the program.

The weighted latency of a placement is written here again from the paper's
model, sharing no code with ``edgesched.allocator``:

- a local task costs w * F / f_loc, with f_loc the local CPU capacity;
- an offloaded task costs w * D / (B * log2(1 + p * h / sigma^2)) for the
  upload at full power;
- each MEC adds (sum of sqrt(w * F) over its tasks)^2 / f_max, the cost of
  the optimal split of its CPU budget.

On top of it: an enumeration of all (M+1)^N placements (the exact optimum
at desk scale), a certified lower bound from the continuous relaxation for
scales that cannot be enumerated, and checks on schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9
# (M+1)^N above this is not enumerated.
MAX_ENUMERATED = 200_000


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own model."""


@dataclass(frozen=True)
class Problem:
    """One (scenario, channel draw) pair, reduced to the model's arrays."""

    cost: np.ndarray    # (N, M+1): column 0 local, column j upload to MEC j
    s: np.ndarray       # (N,): sqrt(w * F)
    f_mec: np.ndarray   # (M,)
    f_loc: np.ndarray   # (N,): local CPU capacity
    p_max: np.ndarray   # (N,)

    @property
    def n(self) -> int:
        return self.cost.shape[0]

    @property
    def m(self) -> int:
        return self.cost.shape[1] - 1


def problem(scenario, gains: np.ndarray) -> Problem:
    """Model arrays from the scenario's UE/MEC/radio fields and a gain matrix."""
    ues = scenario.ues
    radio = scenario.radio
    w = np.array([u.weight for u in ues])
    cycles = np.array([u.task.cycles for u in ues])
    bits = np.array([u.task.data_bits for u in ues])
    p_max = np.array([u.p_max for u in ues])
    # local power kappa * f^v may not exceed p_max; f_local_max caps it too
    f_loc = np.minimum([u.f_local_max for u in ues],
                       [(u.p_max / u.kappa) ** (1.0 / u.v) for u in ues])
    rate = radio.bandwidth_hz * np.log2(1.0 + p_max[:, None] * gains
                                        / radio.noise_w)
    cost = np.empty((len(ues), gains.shape[1] + 1))
    cost[:, 0] = w * cycles / f_loc
    cost[:, 1:] = (w * bits)[:, None] / rate
    return Problem(cost=cost, s=np.sqrt(w * cycles),
                   f_mec=np.array([m.f_max for m in scenario.mecs]),
                   f_loc=f_loc, p_max=p_max)


def latency(prob: Problem, assign) -> float:
    """Weighted latency of one placement vector (0 local, j for MEC j)."""
    a = np.asarray(assign, dtype=np.int64)
    total = float(prob.cost[np.arange(prob.n), a].sum())
    for j in range(1, prob.m + 1):
        load = float(prob.s[a == j].sum())
        total += load * load / prob.f_mec[j - 1]
    return total


class Enumeration:
    """Every placement of N UEs over M+1 options, as a (K, N) table."""

    def __init__(self, n: int, m: int):
        k = (m + 1) ** n
        if k > MAX_ENUMERATED:
            raise ValueError(f"{k} placements is too many to enumerate")
        codes = np.arange(k)
        self.table = (codes[:, None] // (m + 1) ** np.arange(n)) % (m + 1)
        self._flat = self.table + (m + 1) * np.arange(n)
        self.n, self.m = n, m

    def latencies(self, prob: Problem) -> np.ndarray:
        total = prob.cost.ravel()[self._flat].sum(axis=1)
        for j in range(1, self.m + 1):
            load = (self.table == j) @ prob.s
            total += load * load / prob.f_mec[j - 1]
        return total

    def optimum(self, prob: Problem) -> tuple[float, np.ndarray]:
        lat = self.latencies(prob)
        k = int(np.argmin(lat))
        return float(lat[k]), self.table[k].copy()


def relaxation_bound(prob: Problem, iters: int = 400) -> float:
    """Certified lower bound on the optimum, for sizes beyond enumeration.

    Frank-Wolfe on the continuous relaxation (each UE spreads a unit of
    placement over its M+1 options).  The relaxed objective is convex, so
    f(x) - <grad f(x), x - e> is a lower bound on its minimum, hence on the
    integer optimum, at every iterate; the best one seen is returned.
    """
    n, m = prob.n, prob.m
    rows = np.arange(n)
    x = np.zeros((n, m + 1))
    # start at each UE's best option when served alone
    alone = prob.cost.copy()
    alone[:, 1:] += prob.s[:, None] ** 2 / prob.f_mec
    x[rows, alone.argmin(axis=1)] = 1.0
    best = -np.inf
    for _ in range(iters):
        load = prob.s @ x[:, 1:]
        value = float((prob.cost * x).sum() + (load * load / prob.f_mec).sum())
        grad = prob.cost.copy()
        grad[:, 1:] += 2.0 * prob.s[:, None] * (load / prob.f_mec)
        e = np.zeros_like(x)
        e[rows, grad.argmin(axis=1)] = 1.0
        d = e - x
        gap = float(-(grad * d).sum())
        best = max(best, value - gap)
        if gap <= 1e-12 * value:
            break
        dload = prob.s @ d[:, 1:]
        curv = float((dload * dload / prob.f_mec).sum())
        step = 1.0 if curv <= 0 else min(1.0, gap / (2.0 * curv))
        x += step * d
    return best


def close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def check_scored(prob: Problem, assign, program_latency: float, what: str) -> float:
    """The program's score of a placement matches the model to REL_TOL."""
    mine = latency(prob, assign)
    require(close(mine, program_latency),
            f"{what}: program scored {program_latency!r}, model gives {mine!r}")
    return mine


def check_schedule(prob: Problem, assign, freqs, powers) -> None:
    """Frequencies and powers of a complete schedule for one placement.

    Each used MEC's split sums to its f_max, local tasks run at local
    capacity, and offloading UEs transmit at full power.
    """
    a = np.asarray(assign)
    freqs = np.asarray(freqs, dtype=float)
    powers = np.asarray(powers, dtype=float)
    local = a == 0
    require(np.allclose(freqs[local], prob.f_loc[local], rtol=REL_TOL, atol=0),
            "local tasks do not run at local capacity")
    require(np.array_equal(powers[~local], prob.p_max[~local]),
            "offloading UEs do not transmit at full power")
    for j in range(1, prob.m + 1):
        used = a == j
        if used.any():
            require(close(float(freqs[used].sum()), float(prob.f_mec[j - 1])),
                    f"MEC {j} split does not sum to its f_max")
            require(bool(np.all(freqs[used] > 0)), f"MEC {j} idles a task")


def check_not_below(value: float, floor: float, what: str) -> None:
    """No strategy beats the optimum (or a certified lower bound)."""
    require(value >= floor * (1.0 - REL_TOL),
            f"{what}: latency {value!r} is below the optimum {floor!r}")

"""Exact power and CPU-frequency allocation for a fixed placement decision.

Once the placement vector is fixed, the remaining latency minimisation is
convex and separable: transmit powers sit at their caps (rates increase with
power faster than energy constraints bite under the power model used here),
and each MEC's frequency budget splits across its tasks by a closed-form
KKT condition, with the budget constraint tight.

``allocate_frequencies_oracle`` re-solves the same per-MEC program
numerically (a generic SQP solve polished by projected gradient steps) and
exists to cross-check the closed form; it is deliberately slower and shares
no algebra with it beyond the objective.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .mec import ChannelState, OffloadDecision, Scenario, data_rate, weighted_latency


@dataclass(frozen=True)
class Allocation:
    """Resource assignment for one decision: per-UE frequency, power, and cost."""

    freqs: np.ndarray
    powers: np.ndarray
    latency: float
    reward: float

    @classmethod
    def from_latency(cls, freqs: np.ndarray, powers: np.ndarray,
                     latency: float) -> "Allocation":
        return cls(freqs=freqs, powers=powers, latency=latency,
                   reward=1.0 / latency)


def local_capacity(ue) -> float:
    """Fastest feasible local CPU frequency under both the cap and power model.

    The local power constraint p = kappa * f**v <= p_max bounds f by
    (p_max/kappa)**(1/v); the hardware cap f_local_max applies on top.
    """
    cap = min(ue.f_local_max, (ue.p_max / ue.kappa) ** (1.0 / ue.v))
    if cap <= 0:
        raise ValueError("local capacity must be positive")
    return cap


def max_power_assignment(scenario: Scenario, decision: OffloadDecision) -> np.ndarray:
    """Per-UE power: transmit cap when offloading, local CPU power otherwise."""
    powers = np.empty(scenario.n_ues)
    for i, ue in enumerate(scenario.ues):
        if decision.assign[i] > 0:
            powers[i] = ue.p_max
        else:
            powers[i] = ue.kappa * local_capacity(ue) ** ue.v
    return powers


def allocate_frequencies(decision: OffloadDecision, scenario: Scenario) -> np.ndarray:
    """Optimal CPU frequency per UE for a fixed placement.

    Local tasks run at the local capacity.  On each MEC the budget splits
    proportionally to sqrt(w_i * F_i), which equalises the marginal weighted
    latency across served tasks and uses the budget exactly.
    """
    assign = decision.assign
    n = scenario.n_ues
    freqs = np.zeros(n)
    s = np.array([np.sqrt(u.weight * u.task.cycles) for u in scenario.ues])
    for i, ue in enumerate(scenario.ues):
        if assign[i] == 0:
            freqs[i] = local_capacity(ue)
    for j, mec in enumerate(scenario.mecs, start=1):
        members = np.flatnonzero(assign == j)
        if members.size == 0:
            continue
        freqs[members] = mec.f_max * s[members] / s[members].sum()
    return freqs


def _project_simplex(y: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = total} (sort-based)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    k = np.arange(1, y.size + 1)
    cond = u - css / k > 0
    rho = np.max(np.flatnonzero(cond)) + 1
    theta = css[rho - 1] / rho
    return np.maximum(y - theta, 0.0)


def _kkt_spread(c: np.ndarray, v: np.ndarray) -> float:
    """Relative spread of the objective gradient across coordinates.

    At the optimum of sum(c_i / x_i) on the simplex all partial derivatives
    -c_i/x_i^2 coincide, so this is an optimality certificate that does not
    reuse the closed-form solution.
    """
    grad = -c / (v * v)
    return float((grad.max() - grad.min()) / abs(grad.mean()))


def _polish_split(c: np.ndarray, u: np.ndarray, tol: float,
                  max_iter: int) -> np.ndarray:
    """Projected gradient steps driving the KKT spread below ``tol``.

    Near the optimum the objective flattens below float64 resolution while
    the gradient spread stays well resolved, so the line search accepts a
    step when it lowers either the value or the spread.
    """

    def value(v: np.ndarray) -> float:
        return float(np.sum(c / v))

    step = 1e-2 / float(np.max(c))
    fu = value(u)
    su = _kkt_spread(c, u)
    for _ in range(max_iter):
        if su < tol:
            return u
        grad = -c / (u * u)
        # displacements beyond a few simplex diameters all project to the
        # same boundary point; capping here keeps step * grad finite no
        # matter how often the growth branch fires
        step = min(step, 4.0 / float(np.abs(grad).max()))
        moved = False
        for _ in range(60):
            cand = _project_simplex(u - step * grad, 1.0)
            cand = np.maximum(cand, 1e-15)
            cand /= cand.sum()
            fc = value(cand)
            sc = _kkt_spread(c, cand)
            if fc < fu or sc < su:
                u, fu, su = cand, fc, sc
                step *= 1.3
                moved = True
                break
            step *= 0.5
        if not moved:
            # step underflowed with no progress on either metric: accept if
            # the certificate is nearly met, otherwise report failure
            if su < 10 * tol:
                return u
            raise RuntimeError("frequency oracle stalled before convergence")
    raise RuntimeError("frequency oracle did not converge")


def _numeric_split(c: np.ndarray, total: float, tol: float,
                   max_iter: int) -> np.ndarray:
    """Minimise sum(c_i / x_i) over the simplex {x >= 0, sum(x) = total}.

    A generic SQP solve gets within ~1e-7 of the optimum; projected
    gradient polishing then drives the KKT gradient-spread certificate
    below ``tol``.  Nothing here knows the square-root structure of the
    solution, so this is an independent check of the closed form.
    """
    n = c.size
    if n == 1:
        return np.array([total])
    cs = c / float(c.max())  # condition the objective, work on unit simplex
    with warnings.catch_warnings():
        # the SQP line search may step outside the box before clipping
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(
            lambda x: float(np.sum(cs / x)),
            np.full(n, 1.0 / n),
            jac=lambda x: -cs / (x * x),
            method="SLSQP",
            bounds=[(1e-9, 1.0)] * n,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0,
                          "jac": lambda x: np.ones_like(x)}],
            options={"maxiter": 500, "ftol": 1e-16},
        )
    u = np.maximum(res.x, 1e-12)
    u /= u.sum()
    return total * _polish_split(cs, u, tol, max_iter)


def allocate_frequencies_oracle(decision: OffloadDecision, scenario: Scenario,
                                tol: float = 1e-9,
                                max_iter: int = 100_000) -> np.ndarray:
    """Numeric re-solve of the per-MEC frequency split; see module docstring."""
    assign = decision.assign
    freqs = np.zeros(scenario.n_ues)
    for i, ue in enumerate(scenario.ues):
        if assign[i] == 0:
            freqs[i] = local_capacity(ue)
    c = np.array([u.weight * u.task.cycles for u in scenario.ues])
    for j, mec in enumerate(scenario.mecs, start=1):
        members = np.flatnonzero(assign == j)
        if members.size == 0:
            continue
        freqs[members] = _numeric_split(c[members], mec.f_max, tol, max_iter)
    return freqs


def evaluate(decision: OffloadDecision, scenario: Scenario,
             channel: ChannelState) -> Allocation:
    """Best-possible weighted latency (and reward) for a placement decision."""
    freqs = allocate_frequencies(decision, scenario)
    powers = max_power_assignment(scenario, decision)
    latency = weighted_latency(scenario, decision, freqs, powers, channel)
    return Allocation.from_latency(freqs, powers, latency)


class Evaluator:
    """Vectorised decision scoring bound to one (scenario, channel) pair.

    Search loops score thousands of candidate placements against the same
    channel draw, so the pieces that do not depend on the placement (rates at
    max power, local latencies, sqrt(w*F) terms) are precomputed once.  The
    optimal per-MEC split makes each MEC's weighted computation time equal to
    (sum of sqrt(w_i*F_i))^2 / f_max, which is what ``latency_of`` uses.
    """

    def __init__(self, scenario: Scenario, channel: ChannelState):
        radio = scenario.radio
        ues = scenario.ues
        self.n = scenario.n_ues
        self.m = scenario.n_mecs
        w = np.array([u.weight for u in ues])
        cycles = np.array([u.task.cycles for u in ues])
        bits = np.array([u.task.data_bits for u in ues])
        p_max = np.array([u.p_max for u in ues])
        self.local_cap = np.array([local_capacity(u) for u in ues])
        self.local_lat = w * cycles / self.local_cap
        self.rates = data_rate(radio.bandwidth_hz, p_max[:, None],
                               channel.gains, radio.noise_w)
        self.upload_lat = (w * bits)[:, None] / self.rates
        self.s = np.sqrt(w * cycles)
        self.f_mec = np.array([m.f_max for m in scenario.mecs])
        self._rows = np.arange(self.n)

    def latency_of(self, assign: np.ndarray) -> float:
        """Weighted latency of one placement vector (length N, values 0..M)."""
        off = assign > 0
        total = float(self.local_lat[~off].sum())
        if off.any():
            cols = assign[off] - 1
            total += float(self.upload_lat[self._rows[off], cols].sum())
            loads = np.bincount(cols, weights=self.s[off], minlength=self.m)
            total += float((loads * loads / self.f_mec).sum())
        return total

    def latencies(self, assigns: np.ndarray) -> np.ndarray:
        """Weighted latencies for a (B, N) batch of placement vectors."""
        assigns = np.asarray(assigns)
        off = assigns > 0
        total = (self.local_lat[None, :] * ~off).sum(axis=1)
        cols = np.clip(assigns - 1, 0, self.m - 1)
        up = self.upload_lat[self._rows[None, :], cols]
        total += (up * off).sum(axis=1)
        onehot = off[:, :, None] & (cols[:, :, None] == np.arange(self.m)[None, None, :])
        loads = (onehot * self.s[None, :, None]).sum(axis=1)
        total += (loads * loads / self.f_mec[None, :]).sum(axis=1)
        return total

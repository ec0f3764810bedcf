"""Exact power and CPU-frequency allocation for a fixed placement decision.

Once the placement vector is fixed, the remaining latency minimisation is
convex and separable: transmit powers sit at their caps (rates increase with
power faster than energy constraints bite under the power model used here),
and each MEC's frequency budget splits across its tasks by a closed-form
KKT condition, with the budget constraint tight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

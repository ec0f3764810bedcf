"""Exact power and CPU-frequency allocation for a fixed placement decision.

Once the placement vector is fixed, the remaining latency minimisation is
convex and separable: transmit powers sit at their caps (no energy budget
binds under the power model used here), and each MEC's budget is spent in
full on its tasks, split by a closed-form KKT condition.  Inputs come from
``Scenario.arrays``; ``Evaluator`` scores placements under this allocation,
and ``mec.weighted_latency`` is the per-UE reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mec import ChannelState, OffloadDecision, Scenario, data_rate, weighted_latency
from .mec import local_capacity  # noqa: F401  (re-exported for the tests' oracle)


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


def max_power_assignment(scenario: Scenario, decision: OffloadDecision) -> np.ndarray:
    """Per-UE power: transmit cap when offloading, local CPU power otherwise."""
    arr = scenario.arrays
    return np.where(decision.assign > 0, arr.p_max, arr.local_power)


def allocate_frequencies(decision: OffloadDecision, scenario: Scenario) -> np.ndarray:
    """Optimal CPU frequency per UE for a fixed placement.

    Local tasks run at the local capacity.  On each MEC the budget splits
    proportionally to sqrt(w_i * F_i), which equalises the marginal weighted
    latency across served tasks and uses the budget exactly.  The per-MEC
    loads come from one ``bincount``, as in ``Evaluator``; a served UE's
    load is never 0, and a local UE's quotient is computed but not used.
    """
    assign = decision.assign
    arr = scenario.arrays
    loads = np.bincount(assign, weights=arr.sqrt_wf,
                        minlength=scenario.n_mecs + 1)
    return np.where(assign == 0, arr.local_cap,
                    arr.f_mec[assign - 1] * arr.sqrt_wf / loads[assign])


def evaluate(decision: OffloadDecision, scenario: Scenario,
             channel: ChannelState) -> Allocation:
    """Best-possible weighted latency (and reward) for a placement decision."""
    freqs = allocate_frequencies(decision, scenario)
    powers = max_power_assignment(scenario, decision)
    latency = weighted_latency(scenario, decision, freqs, powers, channel)
    return Allocation.from_latency(freqs, powers, latency)


class Evaluator:
    """Vectorised decision scoring bound to one (scenario, channel) pair.

    Built once per draw: ``rates`` at max power and the (N, M+1) ``cost``
    table, column 0 each UE's weighted local latency w*F/f_local and column j
    its weighted upload time w*D/r_j to MEC j.  Under the optimal split MEC j
    computes for load_j^2 / f_j, load_j the sum of its sqrt(w_i*F_i), so one
    kernel behind ``latency_of`` and ``latencies`` gathers from ``cost`` and
    bincounts the loads.
    """

    def __init__(self, scenario: Scenario, channel: ChannelState):
        arr, radio = scenario.arrays, scenario.radio
        self.n, self.m = scenario.n_ues, scenario.n_mecs
        self.s, self.f_mec = arr.sqrt_wf, arr.f_mec
        self.rates = data_rate(radio.bandwidth_hz, arr.p_max[:, None],
                               channel.gains, radio.noise_w)
        self.cost = np.column_stack([arr.weight * arr.cycles / arr.local_cap,
                                     (arr.weight * arr.data_bits)[:, None]
                                     / self.rates])
        self._rows = np.arange(self.n)

    def _score(self, assigns: np.ndarray) -> np.ndarray:
        # row sums run pairwise over C-ordered rows, whatever the batch size
        assigns = np.ascontiguousarray(assigns)
        b, width = assigns.shape[0], self.m + 1
        total = self.cost[self._rows, assigns].sum(axis=1)
        bins = (assigns + width * np.arange(b)[:, None]).ravel()
        loads = np.bincount(bins, weights=np.tile(self.s, b),
                            minlength=b * width).reshape(b, width)[:, 1:]
        return total + (loads * loads / self.f_mec).sum(axis=1)

    def latency_of(self, assign: np.ndarray) -> float:
        """Weighted latency of one placement vector (length N, values 0..M)."""
        return float(self._score(np.asarray(assign)[None])[0])

    def latencies(self, assigns: np.ndarray) -> np.ndarray:
        """Weighted latencies for a (B, N) batch of placement vectors."""
        return self._score(assigns)

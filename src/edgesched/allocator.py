"""Exact power and CPU-frequency allocation for a fixed placement decision.

Once the placement vector is fixed, the remaining latency minimisation is
convex and separable: transmit powers sit at their caps (no energy budget
binds under the power model used here), and each MEC's budget is spent in
full on its tasks, split by a closed-form KKT condition.  Inputs come from
``Scenario.arrays``; ``Evaluator`` scores placements under this allocation,
and ``evaluate`` takes its latency from there too, so the package scores a
placement one way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mec import ChannelState, OffloadDecision, Scenario, data_rate


@dataclass(frozen=True)
class Allocation:
    """Resource assignment for one decision: per-UE frequency, power, and
    the weighted latency they give."""

    freqs: np.ndarray
    powers: np.ndarray
    latency: float


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
    """The optimal allocation for a placement decision and its weighted
    latency, which is ``Evaluator.latency_of``'s."""
    if (decision.assign.shape[0] != scenario.n_ues
            or decision.n_mecs != scenario.n_mecs):
        raise ValueError("decision does not match scenario shape")
    return Allocation(allocate_frequencies(decision, scenario),
                      max_power_assignment(scenario, decision),
                      Evaluator(scenario, channel).latency_of(decision.assign))


class Evaluator:
    """Vectorised decision scoring bound to one (scenario, channel) pair.

    Built once per draw from the rates at max power: the (N, M+1) ``cost``
    table, column 0 each UE's weighted local latency w*F/f_local and column j
    its weighted upload time w*D/r_j to MEC j.  Under the optimal split MEC j
    computes for load_j^2 / f_j, load_j the sum of its sqrt(w_i*F_i), so one
    kernel behind ``latency_of`` and ``latencies`` gathers from ``cost`` and
    bincounts the loads.  What the scenario fixes, the local column, w*D
    and the kernel's index arrays, comes from ``Scenario.arrays`` and
    ``Scenario.batch_rows``.
    """

    def __init__(self, scenario: Scenario, channel: ChannelState):
        self.arrays = arr = scenario.arrays
        radio = scenario.radio
        self.n, self.m = scenario.n_ues, scenario.n_mecs
        self.s, self.f_mec = arr.sqrt_wf, arr.f_mec
        self._batch_rows = scenario.batch_rows
        rates = data_rate(radio.bandwidth_hz, arr.p_max[:, None],
                          channel.gains, radio.noise_w)
        self.cost = np.empty((self.n, self.m + 1))
        self.cost[:, 0] = arr.local_cost
        np.divide(arr.weighted_bits, rates, out=self.cost[:, 1:])

    def _score(self, assigns: np.ndarray) -> np.ndarray:
        # row sums run pairwise over C-ordered rows, whatever the batch size;
        # add.reduce is what ndarray.sum calls, without its Python wrapper
        assigns = np.ascontiguousarray(assigns)
        b, width = assigns.shape[0], self.m + 1
        bin_offsets, weights = self._batch_rows(b)
        total = np.add.reduce(
            self.cost.take(assigns + self.arrays.cost_offsets), axis=1)
        loads = np.bincount((assigns + bin_offsets).ravel(), weights=weights,
                            minlength=b * width)
        loads = loads.reshape(b, width)[:, 1:]
        return total + np.add.reduce(loads * loads / self.f_mec, axis=1)

    def latency_of(self, assign: np.ndarray) -> float:
        """Weighted latency of one placement vector (length N, values 0..M)."""
        return float(self._score(np.asarray(assign)[None])[0])

    def latencies(self, assigns: np.ndarray) -> np.ndarray:
        """Weighted latencies for a (B, N) batch of placement vectors."""
        return self._score(assigns)

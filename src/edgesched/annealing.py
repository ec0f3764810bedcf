"""Channel-aware simulated annealing over placement vectors.

The search perturbs one candidate per iteration with a channel-guided
mutation: genes whose current placement enjoys a relatively strong channel
are likely to be kept, everything else is redrawn uniformly.  Acceptance is
the classic Boltzmann rule on the weighted-latency objective with geometric
cooling.  The iteration budget is adapted between invocations from the
policy-loss improvement: while the learner still improves quickly the search
works harder, once learning flattens the budget decays to a single step.

``mutate`` is a single step that draws as it goes.  ``search`` owns its
stream: for B iterations over N genes and M MECs it draws, in order,
``rng.random((B, N))`` (keep tests against ``keep_table``),
``rng.integers(0, M+1, (B, N))`` (values of redrawn genes),
``rng.integers(0, N*M, B)`` (the forced change when no gene changed, decoded
as ``divmod(pick, M)``) and ``rng.random(B)`` (Boltzmann uniforms u).  A
candidate is scored by delta over its changed genes, as a running sum of
``Evaluator.cost`` entries plus sum_j load_j^2 / f_j over running MEC
loads, and accepted iff its score rise D has D <= 0 or exp(-D/T) > u.
Only a candidate that beats the best is scored with ``latency_of``.

Contract: one seed gives one decision, objective, trace and generator state;
the decision never scores worse than the start; the objective and every
trace entry are exact ``Evaluator.latency_of`` values (the result keeps
only the iterations that improved the best, and ``SearchResult.trace``
expands them).  Exact ties (cloned
UEs on cloned channels) may go either way, as the running score is off by
rounding; no loop with per-iteration draws is kept as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocator import Evaluator
from .mec import ChannelState, OffloadDecision, Scenario


@dataclass(frozen=True)
class AnnealConfig:
    t0: float = 1.0
    phi_cool: float = 0.95
    t_sa_init: int = 20
    epsilon: float = 0.02
    t_sa_max: int = 100

    def __post_init__(self) -> None:
        if self.t0 <= 0 or not 0 < self.phi_cool <= 1:
            raise ValueError("t0 must be positive and phi_cool lie in (0, 1]")
        if self.t_sa_init < 1 or self.t_sa_max < 1:
            raise ValueError("t_sa_init and t_sa_max must be at least 1")
        if self.t_sa_init > self.t_sa_max:
            raise ValueError(f"t_sa_init {self.t_sa_init} exceeds t_sa_max "
                             f"{self.t_sa_max}")


@dataclass(frozen=True)
class BudgetState:
    """Current adaptive iteration budget."""

    budget: int


@dataclass(frozen=True, slots=True)
class SearchResult:
    """The best placement a search visited, and when its best improved.

    ``improvements`` holds (iteration, best objective) pairs: the start at
    iteration 0, then one pair per iteration that found a new best.
    """

    decision: OffloadDecision
    objective: float
    improvements: tuple[tuple[int, float], ...]
    steps: int                   # iterations run

    @property
    def trace(self) -> tuple[float, ...]:
        """Best objective after each iteration, the start first: ``steps + 1``
        entries."""
        marks = self.improvements
        ends = [it for it, _ in marks[1:]] + [self.steps + 1]
        trace: list[float] = []
        for (it, value), end in zip(marks, ends):
            trace += [value] * (end - it)
        return tuple(trace)


def keep_table(gains: np.ndarray) -> np.ndarray:
    """Keep probability of gene i on placement a, as an (N, M+1) table.

    Offloaded genes keep with probability h[i, a] / sum_j h[i, j]: the
    better the serving MEC's channel relative to the alternatives, the
    stickier the gene.  Local genes have no channel of their own and keep
    with the neutral 1/(M+1).
    """
    n, m = gains.shape
    keep = np.empty((n, m + 1))
    keep[:, 0] = 1.0 / (m + 1)
    keep[:, 1:] = gains / gains.sum(axis=1, keepdims=True)
    return keep


def mutation_probs(assign: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Per-gene keep probability of ``assign``: rows of ``keep_table``."""
    return keep_table(gains)[np.arange(assign.shape[0]), assign]


def mutate(assign: np.ndarray, gains: np.ndarray,
           rng: np.random.Generator) -> np.ndarray:
    """One channel-guided neighbour, guaranteed to differ from the input.

    Redrawn genes are uniform over the full {0..M} range (they may land on
    their old value); if the whole vector survives unchanged, one uniformly
    chosen gene is forced to a different value.
    """
    n, m = gains.shape
    cand = assign.copy()
    redraw = rng.random(n) > mutation_probs(assign, gains)
    if redraw.any():
        cand[redraw] = rng.integers(0, m + 1, size=int(redraw.sum()))
    if np.array_equal(cand, assign):
        k = int(rng.integers(n))
        shift = int(rng.integers(m))  # uniform over the other M values
        cand[k] = shift if shift < assign[k] else shift + 1
    return cand


def adapt_budget(state: BudgetState, delta_loss: float,
                 cfg: AnnealConfig) -> BudgetState:
    """Grow the budget by one while the loss still falls fast, else shrink."""
    if delta_loss >= cfg.epsilon:
        budget = state.budget + 1
    elif state.budget != 1:
        budget = state.budget - 1
    else:
        budget = 1
    return BudgetState(budget=min(max(budget, 1), cfg.t_sa_max))


def search(initial: OffloadDecision, scenario: Scenario, channel: ChannelState,
           cfg: AnnealConfig, state: BudgetState, rng: np.random.Generator,
           evaluator: Evaluator | None = None) -> SearchResult:
    """Run ``state.budget`` annealing iterations from ``initial``.

    Returns the best placement visited, which includes the starting point,
    so the result never scores worse than the input decision.  Draws only
    the four blocks of the module docstring from ``rng``.
    """
    ev = evaluator if evaluator is not None else Evaluator(scenario, channel)
    n, m, budget = ev.n, ev.m, state.budget
    keep_u = rng.random((budget, n)).tolist()
    redraws = rng.integers(0, m + 1, (budget, n)).tolist()
    picks = rng.integers(0, n * m, budget).tolist()
    boltzmann = rng.random(budget).tolist()

    keep_p = keep_table(channel.gains).tolist()
    cost = ev.cost.tolist()
    s, f = ev.s.tolist(), ev.f_mec.tolist()
    a = initial.assign.tolist()  # current placement
    run_sum = sum(cost[i][v] for i, v in enumerate(a))
    loads = np.bincount(a, weights=s, minlength=m + 1).tolist()  # [0]: local
    best, f_best = a, ev.latency_of(initial.assign)
    f_cur, temperature = f_best, cfg.t0
    improvements = [(0, f_best)]
    for it, (u, vals, pick, draw) in enumerate(
            zip(keep_u, redraws, picks, boltzmann), 1):
        changes = [(i, vals[i]) for i in range(n)
                   if u[i] > keep_p[i][a[i]] and vals[i] != a[i]]
        if not changes:
            k, shift = divmod(pick, m)
            changes = [(k, shift if shift < a[k] else shift + 1)]
        cand, cand_sum, cand_loads = a.copy(), run_sum, loads.copy()
        for i, v in changes:
            cand[i] = v
            cand_sum += cost[i][v] - cost[i][a[i]]
            cand_loads[a[i]] -= s[i]
            cand_loads[v] += s[i]
        f_cand = cand_sum + sum(x * x / y for x, y in zip(cand_loads[1:], f))
        if f_cand < f_best:  # confirm a new best on its exact latency
            exact = ev.latency_of(np.array(cand))
            if exact < f_best:
                best, f_best = cand, exact
                improvements.append((it, exact))
        delta = f_cand - f_cur
        if delta <= 0 or math.exp(-delta / temperature) > draw:
            a, run_sum, loads, f_cur = cand, cand_sum, cand_loads, f_cand
        temperature *= cfg.phi_cool
    return SearchResult(decision=OffloadDecision(assign=best, n_mecs=m),
                        objective=f_best, improvements=tuple(improvements),
                        steps=budget)


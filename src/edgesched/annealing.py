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
candidate is accepted iff its score rise D has D <= 0 or exp(-D/T) > u.

One of two scorers runs each call, chosen by the start placement's mutation
density: the expected number of genes one mutation changes,
(N - sum_i keep[i, a_i]) * M/(M+1).  Below ``BATCH_DENSITY`` a Python loop
scores each candidate by delta over its changed genes, as a running sum of
``Evaluator.cost`` entries plus sum_j load_j^2 / f_j over running MEC loads,
and confirms only a candidate that beats the best with ``latency_of``.  From
``BATCH_DENSITY`` up, where a mutation rewrites a large share of the genes
and few moves are accepted, the next ``BATCH_WINDOW`` candidates are all
built from the current placement in numpy and scored exactly in one
``Evaluator.latencies`` call; the Boltzmann tests walk them up to the first
acceptance, and the window is rebuilt from the new placement.

Contract: one seed gives one decision, objective, trace and generator state;
the decision never scores worse than the start; the objective and every
trace entry are exact ``Evaluator.latency_of`` values (the result keeps
only the iterations that improved the best, and ``SearchResult.trace``
expands them).  Exact ties (cloned UEs on cloned channels) may go either
way on the loop, whose running score is off by rounding; the batch scorer
accepts on exact latencies and decides them as the step-by-step chain does.
No loop with per-iteration draws is kept as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocator import Evaluator
from .mec import ChannelState, OffloadDecision, Scenario, positive_finite


@dataclass(frozen=True)
class AnnealConfig:
    t0: float = 1.0
    phi_cool: float = 0.95
    t_sa_init: int = 20

    def __post_init__(self) -> None:
        positive_finite("t0", self.t0)
        if isinstance(self.phi_cool, bool) or not 0 < self.phi_cool <= 1:
            raise ValueError(f"phi_cool must lie in (0, 1], got "
                             f"{self.phi_cool!r}")
        if not 1 <= self.t_sa_init <= T_SA_MAX:
            raise ValueError(f"t_sa_init {self.t_sa_init} must lie in "
                             f"1..T_SA_MAX = 1..{T_SA_MAX}")


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


# The budget grows while a training event lowers the policy loss by at least
# EPSILON, and never passes T_SA_MAX iterations.
EPSILON = 0.02
T_SA_MAX = 100


def adapt_budget(state: BudgetState, delta_loss: float) -> BudgetState:
    """Grow the budget by one while the loss falls by at least ``EPSILON``,
    else shrink it by one, within [1, ``T_SA_MAX``]."""
    step = 1 if delta_loss >= EPSILON else -1
    return BudgetState(budget=min(max(state.budget + step, 1), T_SA_MAX))


# Mutation density from which ``search`` scores candidates in batches, and the
# candidates one batch scores.  Batch against loop, on one Xeon core, min of 5
# per call: replayed training searches ran 2.5x faster at 30x5 (median density
# 10.05) and 1.9x slower at 10x2 (at most 4.3).  ASA-200 from random starts
# (60 draws per shape): 2.4-2.6x at 30x5 (density 20), 1.5x at 20x3 (10.4),
# 1.2x at 30x2 (11.1), 1.03x at 10x5 (6.6); 0.92x at 10x3 (5.1), 0.83x at
# 15x2 (5.7), 0.70x at 10x2 (3.8).
BATCH_DENSITY = 6.0
BATCH_WINDOW = 32


def search(initial: OffloadDecision, scenario: Scenario, channel: ChannelState,
           cfg: AnnealConfig, state: BudgetState, rng: np.random.Generator,
           evaluator: Evaluator | None = None) -> SearchResult:
    """Run ``state.budget`` annealing iterations from ``initial``.

    Returns the best placement visited, which includes the starting point,
    so the result never scores worse than the input decision.  Draws only
    the four blocks of the module docstring from ``rng``, and picks the
    scorer from the start placement's mutation density.
    """
    ev = evaluator if evaluator is not None else Evaluator(scenario, channel)
    n, m = ev.n, ev.m
    keep = keep_table(channel.gains)
    kept = keep.take(initial.assign + ev.scoring.cost_offsets).sum()
    density = (n - kept) * m / (m + 1)
    scorer = _batch_search if density >= BATCH_DENSITY else _loop_search
    return scorer(initial, ev, keep, cfg, state.budget, rng)


def _draw_blocks(rng: np.random.Generator, n: int, m: int, budget: int):
    """The four blocks of the module docstring, in their order."""
    return (rng.random((budget, n)), rng.integers(0, m + 1, (budget, n)),
            rng.integers(0, n * m, budget), rng.random(budget))


def _loop_search(initial: OffloadDecision, ev: Evaluator, keep: np.ndarray,
                 cfg: AnnealConfig, budget: int,
                 rng: np.random.Generator) -> SearchResult:
    """``search`` one iteration at a time, on a running score."""
    n, m = ev.n, ev.m
    keep_u, redraws, picks, boltzmann = (
        block.tolist() for block in _draw_blocks(rng, n, m, budget))

    keep_p = keep.tolist()
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


def _batch_search(initial: OffloadDecision, ev: Evaluator, keep: np.ndarray,
                  cfg: AnnealConfig, budget: int,
                  rng: np.random.Generator) -> SearchResult:
    """``search`` on exact scores, ``BATCH_WINDOW`` candidates per batch.

    Until a move is accepted every candidate mutates the same placement, so
    a window's candidates are built and scored before any is tested.
    """
    n, m = ev.n, ev.m
    keep_u, redraws, picks, boltzmann = _draw_blocks(rng, n, m, budget)
    boltzmann = boltzmann.tolist()
    offsets = ev.scoring.cost_offsets  # flat row starts of keep, as of cost
    a = best = initial.assign  # current placement
    f_cur = f_best = ev.latency_of(a)
    temperature = cfg.t0
    improvements = [(0, f_best)]
    done = 0
    while done < budget:
        end = min(done + BATCH_WINDOW, budget)
        cands = np.where(keep_u[done:end] > keep.take(a + offsets),
                         redraws[done:end], a)
        same = (cands == a).all(axis=1).nonzero()[0]
        if same.size:  # the forced change, where no gene changed
            k, shift = np.divmod(picks[done + same], m)
            cands[same, k] = shift + (shift >= a[k])
        for j, f_cand in enumerate(ev.latencies(cands).tolist()):
            done += 1
            if f_cand < f_best:
                best, f_best = cands[j], f_cand
                improvements.append((done, f_cand))
            delta = f_cand - f_cur
            accept = (delta <= 0
                      or math.exp(-delta / temperature) > boltzmann[done - 1])
            temperature *= cfg.phi_cool
            if accept:
                a, f_cur = cands[j], f_cand
                break
    # a copy, so the result does not keep its candidate block alive
    return SearchResult(decision=OffloadDecision(assign=best.copy(),
                                                 n_mecs=m),
                        objective=f_best, improvements=tuple(improvements),
                        steps=budget)

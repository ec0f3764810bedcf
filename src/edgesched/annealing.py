"""Channel-aware simulated annealing over placement vectors.

The search perturbs one candidate per iteration with a channel-guided
mutation: genes whose current placement enjoys a relatively strong channel
are likely to be kept, everything else is redrawn uniformly.  Acceptance is
the classic Boltzmann rule on the weighted-latency objective with geometric
cooling.  The iteration budget is adapted between invocations from the
policy-loss improvement: while the learner still improves quickly the search
works harder, once learning flattens the budget decays to a single step.

``mutate``, ``mutation_probs`` and ``accept`` are the single-step
definitions.  ``search`` runs the same chain without calling them per
iteration, and is held to a contract: it makes the same generator calls in
the same order (``rng.random(N)``; ``rng.integers(0, M+1, size=k)`` when k
genes are redrawn; ``rng.integers(N)`` then ``rng.integers(M)`` when no gene
changed; one ``rng.random()`` per worsening move) and returns the same
decision, objective and trace, bit for bit, as the loop ``mutate`` ->
``Evaluator.latency_of`` -> ``accept``.  Only the speed differs:

* keep probabilities come from one (N, M+1) table per call (``keep_table``);
* a candidate is scored by delta: only the changed genes update a running
  sum of ``[local_lat | upload_lat]`` entries and the per-MEC loads, and the
  score is that sum plus sum_j load_j^2 / f_j;
* the running score differs from ``latency_of`` only by rounding, which is
  bounded by a margin that grows with the iteration count.  Every decision
  the margin cannot settle (a candidate near or below the best, a move near
  zero delta, a Boltzmann draw near its threshold) is settled on exact
  ``latency_of`` values, so the objective and every trace entry are
  ``latency_of`` values, as in the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocator import Evaluator
from .mec import ChannelState, OffloadDecision, Scenario

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class AnnealConfig:
    t0: float = 1.0
    phi_cool: float = 0.95
    t_sa_init: int = 20
    epsilon: float = 0.02
    t_sa_max: int = 100

    def __post_init__(self) -> None:
        if self.t0 <= 0 or not 0 < self.phi_cool <= 1:
            raise ValueError("bad temperature schedule")
        if self.t_sa_init < 1 or self.t_sa_max < 1:
            raise ValueError("iteration budgets must be at least 1")


@dataclass(frozen=True)
class BudgetState:
    """Current adaptive iteration budget."""

    budget: int


@dataclass(frozen=True)
class SearchResult:
    decision: OffloadDecision
    objective: float
    trace: tuple[float, ...]  # best objective after each iteration


def mutation_probs(assign: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Per-gene keep probability.

    Offloaded genes keep with probability h[i, a_i] / sum_j h[i, j]: the
    better the serving MEC's channel relative to the alternatives, the
    stickier the gene.  Local genes have no channel of their own and keep
    with the neutral 1/(M+1).
    """
    n, m = gains.shape
    probs = np.full(n, 1.0 / (m + 1))
    off = assign > 0
    if off.any():
        rows = np.flatnonzero(off)
        probs[rows] = gains[rows, assign[rows] - 1] / gains[rows].sum(axis=1)
    return probs


def keep_table(gains: np.ndarray) -> np.ndarray:
    """``mutation_probs`` for every placement at once, shape (N, M+1).

    Entry [i, a] is gene i's keep probability when it sits on a; the values
    are bitwise those ``mutation_probs`` returns.
    """
    n, m = gains.shape
    keep = np.empty((n, m + 1))
    keep[:, 0] = 1.0 / (m + 1)
    keep[:, 1:] = gains / gains.sum(axis=1, keepdims=True)
    return keep


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


def accept(f_old: float, f_new: float, temperature: float,
           rng: np.random.Generator) -> bool:
    """Boltzmann rule: accept iff exp((f_old - f_new)/T) beats a uniform draw."""
    delta = f_old - f_new
    if delta >= 0:
        return True
    return bool(np.exp(delta / temperature) > rng.random())


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
    so the result never scores worse than the input decision.  Draws from
    ``rng`` and returns exactly what the ``mutate`` / ``latency_of`` /
    ``accept`` loop does; see the module docstring for how.
    """
    ev = evaluator if evaluator is not None else Evaluator(scenario, channel)
    n, m = ev.n, ev.m
    cost_table = np.concatenate([ev.local_lat[:, None], ev.upload_lat], axis=1)
    keep_p, cost = keep_table(channel.gains).tolist(), cost_table.tolist()
    s, f = ev.s.tolist(), [1.0, *ev.f_mec.tolist()]  # f[0] pads the local slot
    # Every partial sum either score forms is below `scale`, and each
    # iteration adds at most 4N + 2M + 8 roundings of at most eps * scale to
    # the running score; `unit * (it + 2)` bounds the gap to latency_of with
    # a fourfold reserve.
    scale = (float(cost_table.max(axis=1).sum())
             + 2 * float(ev.s.sum()) ** 2 / float(ev.f_mec.min()))
    unit = 4 * _EPS * scale * (4 * n + 2 * m + 8)

    a = initial.assign.tolist()  # current placement
    probs = [keep_p[i][a[i]] for i in range(n)]
    run_sum = sum(cost[i][a[i]] for i in range(n))
    loads = [0.0] * (m + 1)
    for i in range(n):
        loads[a[i]] += s[i]
    f_cur = exact_cur = ev.latency_of(initial.assign)
    best, f_best = initial.assign.copy(), f_cur
    temperature = cfg.t0
    trace = [f_best]
    for it in range(state.budget):
        u = rng.random(n).tolist()
        redraw = [i for i in range(n) if u[i] > probs[i]]
        changes = []
        if redraw:
            vals = rng.integers(0, m + 1, size=len(redraw)).tolist()
            changes = [(i, v) for i, v in zip(redraw, vals) if v != a[i]]
        if not changes:
            k = int(rng.integers(n))
            shift = int(rng.integers(m))
            changes = [(k, shift if shift < a[k] else shift + 1)]

        cand_sum, cand_loads = run_sum, loads.copy()
        for i, v in changes:
            cand_sum += cost[i][v] - cost[i][a[i]]
            cand_loads[a[i]] -= s[i]
            cand_loads[v] += s[i]
        f_cand = cand_sum
        for j in range(1, m + 1):
            f_cand += cand_loads[j] * cand_loads[j] / f[j]

        margin = unit * (it + 2)
        exact_cand = None
        if f_cand < f_best + margin:
            cand = _moved(a, changes)
            exact_cand = ev.latency_of(cand)
            if exact_cand < f_best:
                best, f_best = cand, exact_cand

        delta = f_cur - f_cand  # within 2 * margin of the exact delta
        if delta > 2 * margin:
            accepted = True
        elif delta < -2 * margin:
            draw = rng.random()
            # bounds on accept's exp(delta / T), widened past exp's rounding
            low = math.exp((delta - 2 * margin) / temperature) * (1 - 1e-12)
            high = math.exp((delta + 2 * margin) / temperature) * (1 + 1e-12)
            if draw < low:
                accepted = True
            elif draw >= high:
                accepted = False
            else:
                exact_cur, exact_cand = _exact(ev, a, changes, exact_cur,
                                               exact_cand)
                accepted = bool(np.exp((exact_cur - exact_cand) / temperature)
                                > draw)
        else:
            exact_cur, exact_cand = _exact(ev, a, changes, exact_cur,
                                           exact_cand)
            accepted = accept(exact_cur, exact_cand, temperature, rng)

        if accepted:
            for i, v in changes:
                a[i] = v
                probs[i] = keep_p[i][v]
            run_sum, loads, f_cur, exact_cur = (cand_sum, cand_loads, f_cand,
                                                exact_cand)
        temperature *= cfg.phi_cool
        trace.append(f_best)
    return SearchResult(decision=OffloadDecision(assign=best, n_mecs=m),
                        objective=f_best, trace=tuple(trace))


def _moved(a: list[int], changes: list[tuple[int, int]]) -> np.ndarray:
    """Placement ``a`` with the (gene, value) ``changes`` applied."""
    cand = np.array(a)
    for i, v in changes:
        cand[i] = v
    return cand


def _exact(ev: Evaluator, a: list[int], changes: list[tuple[int, int]],
           exact_cur: float | None,
           exact_cand: float | None) -> tuple[float, float]:
    """``latency_of`` of the current placement and of the candidate, reusing
    whichever the search already knows."""
    if exact_cur is None:
        exact_cur = ev.latency_of(np.array(a))
    if exact_cand is None:
        exact_cand = ev.latency_of(_moved(a, changes))
    return exact_cur, exact_cand


def random_search(initial: OffloadDecision, scenario: Scenario,
                  channel: ChannelState, budget: int, rng: np.random.Generator,
                  evaluator: Evaluator | None = None) -> SearchResult:
    """Ablation baseline: same budget, but uniform redraws of the whole vector."""
    ev = evaluator if evaluator is not None else Evaluator(scenario, channel)
    best = initial.assign.copy()
    f_best = ev.latency_of(best)
    trace = [f_best]
    n = best.shape[0]
    for _ in range(budget):
        cand = rng.integers(0, ev.m + 1, size=n)
        f_cand = ev.latency_of(cand)
        if f_cand < f_best:
            best, f_best = cand, f_cand
        trace.append(f_best)
    return SearchResult(decision=OffloadDecision(assign=best, n_mecs=ev.m),
                        objective=f_best, trace=tuple(trace))

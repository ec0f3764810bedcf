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

Two scorers share the work.  The loop scores each candidate by delta over
its changed genes, as a running sum of ``Evaluator.cost`` entries plus
sum_j load_j^2 / f_j over running MEC loads, and confirms only a candidate
that beats the best with ``latency_of``.  Window scoring builds the next
``BATCH_WINDOW`` candidates from the current placement in numpy and scores
them exactly in one ``Evaluator.latencies`` call; the Boltzmann tests walk
them up to the first acceptance, and the window is rebuilt from the new
placement.  The loop pays for every candidate, a window for every
acceptance, so windows win where few moves are accepted.

A call starts on the scorer its start placement's mutation density picks:
the expected number of genes one mutation changes,
(N - sum_i keep[i, a_i]) * M/(M+1).  From ``BATCH_DENSITY`` up, where a
mutation rewrites a large share of the genes, it starts in windows and
stays there.  Below, it starts on the loop, which hands over once the chain
has gone cold: after ``COLD_RUN`` consecutive rejections, if at least
``BATCH_WINDOW`` iterations remain, the rest are scored in windows from the
current placement, whose exact ``latency_of`` becomes the current score.

Contract: one seed gives one decision, objective, trace and generator state;
the decision never scores worse than the start; the objective and every
trace entry are exact ``Evaluator.latency_of`` values (the result keeps
only the iterations that improved the best, and ``SearchResult.trace``
expands them).  Exact ties (cloned UEs on cloned channels) may go either
way on the loop, whose running score is off by rounding; windows accept on
exact latencies and decide them as the step-by-step chain does.
No loop with per-iteration draws is kept as a reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .allocator import Evaluator
from .mec import (ChannelState, OffloadDecision, Scenario, integer_at_least,
                  positive_finite)


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
        if integer_at_least("t_sa_init", self.t_sa_init, 1) > T_SA_MAX:
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


# Mutation density from which ``search`` starts in windows, the candidates
# one window scores, and the run of consecutive rejections after which a
# loop chain hands over to windows.  Windows against the loop over a whole
# call, on one Xeon core, min of 5 per call: replayed training searches ran
# 2.5x faster at 30x5 (median density 10.05) and 1.9x slower at 10x2 (at
# most 4.3).  ASA-200 from random starts (60 draws per shape): 2.4-2.6x at
# 30x5 (density 20), 1.5x at 20x3 (10.4), 1.2x at 30x2 (11.1), 1.03x at
# 10x5 (6.6); 0.92x at 10x3 (5.1), 0.83x at 15x2 (5.7), 0.70x at 10x2 (3.8).
# A loop chain cools: over 200 desk ASA-200 chains the acceptance rate fell
# from 0.46 in iterations 1-10 to 0.066 in 51-60 and 0.017 in 91-100.  The
# run and the one-window tail were sized on replayed desk training searches
# and desk draws (README, "The annealing search"): shorter runs hand over
# chains that still accept often, and a run of 8 with no tail rule made
# training searches 1.25x slower.
BATCH_DENSITY = 6.0
BATCH_WINDOW = 32
COLD_RUN = 24


def search(initial: OffloadDecision, scenario: Scenario, channel: ChannelState,
           cfg: AnnealConfig, state: BudgetState, rng: np.random.Generator,
           evaluator: Evaluator | None = None) -> SearchResult:
    """Run ``state.budget`` annealing iterations from ``initial``.

    Returns the best placement visited, which includes the starting point,
    so the result never scores worse than the input decision.  Draws only
    the four blocks of the module docstring from ``rng``, and picks the
    scorer it starts on from the start placement's mutation density.
    """
    ev = evaluator if evaluator is not None else Evaluator(scenario, channel)
    n, m, budget = ev.n, ev.m, state.budget
    keep = keep_table(channel.gains)
    kept = keep.take(initial.assign + ev.scoring.cost_offsets).sum()
    density = (n - kept) * m / (m + 1)
    # the four blocks of the module docstring, the Boltzmann uniforms as a
    # list, since both scorers read them one at a time
    blocks = (rng.random((budget, n)), rng.integers(0, m + 1, (budget, n)),
              rng.integers(0, n * m, budget), rng.random(budget).tolist())
    if density < BATCH_DENSITY:
        return _loop_search(initial.assign, ev, keep, cfg, blocks)
    f_start = ev.latency_of(initial.assign)
    return _batch_search(ev, keep, cfg, blocks, 0, initial.assign, f_start,
                         cfg.t0, initial.assign, [(0, f_start)])


def _loop_search(initial: np.ndarray, ev: Evaluator, keep: np.ndarray,
                 cfg: AnnealConfig, blocks: tuple) -> SearchResult:
    """``search`` one iteration at a time, on a running score, until
    ``COLD_RUN`` rejections in a row, with at least ``BATCH_WINDOW``
    iterations left, hand the rest to ``_batch_search``.

    Block rows become lists ``T_SA_MAX`` rows at a time as the chain
    reaches them: a training search converts its rows in one go, and a
    longer one that hands over early does not pay to convert the rest.
    """
    n, m = ev.n, ev.m
    keep_u, redraws, picks, boltzmann = blocks
    budget = len(boltzmann)
    keep_p = keep.tolist()
    cost = ev.cost.tolist()
    s, f = ev.s.tolist(), ev.f_mec.tolist()
    a = initial.tolist()  # current placement
    keep_a = [row[v] for row, v in zip(keep_p, a)]  # keep_p[i][a[i]]
    run_sum = sum(cost[i][v] for i, v in enumerate(a))
    loads = np.bincount(a, weights=s, minlength=m + 1).tolist()  # [0]: local
    best, f_best = a, ev.latency_of(initial)
    f_cur, temperature = f_best, cfg.t0
    improvements = [(0, f_best)]
    # the chain hands over if iteration cold_at, COLD_RUN after the last
    # acceptance, is rejected and at least a window of iterations remains
    cold_at, last = COLD_RUN, budget - BATCH_WINDOW
    for lo in range(0, budget, T_SA_MAX):  # rows as lists, as reached
        hi = lo + T_SA_MAX
        for it, (u, vals, pick, draw) in enumerate(zip(
                keep_u[lo:hi].tolist(), redraws[lo:hi].tolist(),
                picks[lo:hi].tolist(), boltzmann[lo:hi]), lo + 1):
            changes = [(i, vals[i]) for i in range(n)
                       if u[i] > keep_a[i] and vals[i] != a[i]]
            if not changes:
                k, shift = divmod(pick, m)
                changes = [(k, shift if shift < a[k] else shift + 1)]
            cand, cand_sum, cand_loads = a.copy(), run_sum, loads.copy()
            for i, v in changes:
                cand[i] = v
                cand_sum += cost[i][v] - cost[i][a[i]]
                cand_loads[a[i]] -= s[i]
                cand_loads[v] += s[i]
            f_cand = cand_sum + sum(x * x / y
                                    for x, y in zip(cand_loads[1:], f))
            if f_cand < f_best:  # confirm a new best on its exact latency
                exact = ev.latency_of(np.array(cand))
                if exact < f_best:
                    best, f_best = cand, exact
                    improvements.append((it, exact))
            delta = f_cand - f_cur
            if delta <= 0 or math.exp(-delta / temperature) > draw:
                a, run_sum, loads, f_cur = cand, cand_sum, cand_loads, f_cand
                for i, v in changes:
                    keep_a[i] = keep_p[i][v]
                cold_at = it + COLD_RUN
            elif it == cold_at and it <= last:  # cold: hand over
                current = np.array(a)
                return _batch_search(ev, keep, cfg, blocks, it, current,
                                     ev.latency_of(current),
                                     temperature * cfg.phi_cool,
                                     np.array(best), improvements)
            temperature *= cfg.phi_cool
    # as an int64 array, not a list, the placement passes unconverted
    decision = OffloadDecision(assign=np.array(best), n_mecs=m)
    return SearchResult(decision=decision, objective=f_best,
                        improvements=tuple(improvements), steps=budget)


def _batch_search(ev: Evaluator, keep: np.ndarray, cfg: AnnealConfig,
                  blocks: tuple, start: int, a: np.ndarray, f_cur: float,
                  temperature: float, best: np.ndarray,
                  improvements: list[tuple[int, float]]) -> SearchResult:
    """``search`` from iteration ``start`` on, on exact scores,
    ``BATCH_WINDOW`` candidates per window.

    The chain so far left current placement ``a`` (exact latency ``f_cur``)
    at ``temperature``, and ``best``, whose objective is the last of
    ``improvements``.  Until a move is accepted every candidate mutates the
    same placement, so a window's candidates are built and scored before
    any is tested.
    """
    m = ev.m
    keep_u, redraws, picks, boltzmann = blocks
    budget = len(boltzmann)
    offsets = ev.scoring.cost_offsets  # flat row starts of keep, as of cost
    f_best = improvements[-1][1]
    done = start
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
    # a copy, so the result does not keep its candidate block or start alive
    return SearchResult(decision=OffloadDecision(assign=best.copy(),
                                                 n_mecs=m),
                        objective=f_best, improvements=tuple(improvements),
                        steps=budget)

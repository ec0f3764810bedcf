"""Baseline strategies, an exact branch-and-bound oracle, and benchmark reports.

``run_benchmark`` scores one ordered table of strategies on shared channel
draws, so comparisons isolate the decision quality.  NRR, the normalised
reward ratio, divides a strategy's reward by the oracle reward on the same
draw.  The oracle, ``exact_oracle``, starts from the best placement it
normalises, so an NRR above 1 is an error.  Its search proves the optimum
unless it reaches ``NODE_LIMIT``.  Every measured draw of the default desk
scenario and of the dynamic sweep's 10xM scenarios was proven; at 30x5, and
on most 20x3 draws, the limit binds and the result is the best placement
found, unproven (README, "The oracle", has the measurements).  Callers keep
only the placement and its latency, so an NRR does not say which of the
two it was taken against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import mul
from pathlib import Path

import numpy as np

from .agent import decide
from .allocator import Evaluator
from .annealing import AnnealConfig, BudgetState, SearchResult, search
from .autoencoder import ChannelCompressor
from .mec import (BENCH_EPOCH_BASE, ChannelState, OffloadDecision, Scenario,
                  data_rate, sample_channel_state)
from .neural import Network, write_csv


def greedy_baseline(scenario: Scenario, channel: ChannelState) -> OffloadDecision:
    """Nearest-MEC placement with a local fallback when servers look overloaded.

    Every UE first picks its closest MEC.  Per MEC, while an equal split of
    the frequency budget would leave any served UE slower than it would be
    locally, the UE with the largest cycle demand (the lowest index among
    equals) is moved to local execution.  MECs do not interact, so each
    round moves one UE off every MEC that still has a slow member.  Channel
    gains only enter through the upload time at max power; weights cancel
    out of the per-UE comparison.  The first round's channel-free part is
    in ``Scenario.arrays``, built once per scenario, and so is each UE's
    gain floor: the gain to its nearest MEC at or above which it cannot test
    slow in that round, with a slack of 1e-9 of its local time that beats
    the test's rounding (``mec._gain_floor``).  A draw whose every near
    gain clears its floor therefore has no slow UE, and returns a copy of
    the nearest placement after one ``take`` and one compare; any other
    draw computes the rates to the nearest servers and runs the rounds, so
    the floor only skips work whose answer it has proven.
    """
    arr = scenario.arrays
    gains = channel.gains.take(arr.gain_index)
    # count_nonzero reads a bool array faster than ``all`` reduces it
    if not np.count_nonzero(gains < arr.gain_floor):
        return OffloadDecision(assign=arr.nearest.copy(),
                               n_mecs=scenario.n_mecs)
    radio = scenario.radio
    upload = arr.data_bits / data_rate(radio.bandwidth_hz, arr.p_max, gains,
                                       radio.noise_w)
    slow = upload + arr.server_time > arr.local_time
    assign = arr.nearest.copy()
    while slow.any():
        for j in np.unique(assign[slow]):
            members = np.flatnonzero(assign == j)
            assign[members[arr.cycles[members].argmax()]] = 0
        # a local UE's entry is computed but masked; count[0] > 0 then
        count = np.bincount(assign, minlength=scenario.n_mecs + 1)
        remote = upload + arr.cycles / (arr.f_mec[assign - 1] / count[assign])
        slow = (assign > 0) & (remote > arr.local_time)
    return OffloadDecision(assign=assign, n_mecs=scenario.n_mecs)


def random_baseline(scenario: Scenario, channel: ChannelState,
                    rng: np.random.Generator) -> OffloadDecision:
    """Uniform placement over {0..M} per UE."""
    assign = rng.integers(0, scenario.n_mecs + 1, size=scenario.n_ues)
    return OffloadDecision(assign=assign, n_mecs=scenario.n_mecs)


def asa_only(scenario: Scenario, channel: ChannelState, cfg: AnnealConfig,
             budget: int, rng: np.random.Generator,
             evaluator: Evaluator | None = None) -> SearchResult:
    """Direct annealing search from a random placement, fixed budget."""
    initial = OffloadDecision(
        assign=rng.integers(0, scenario.n_mecs + 1, size=scenario.n_ues),
        n_mecs=scenario.n_mecs)
    return search(initial, scenario, channel, cfg, BudgetState(budget), rng,
                  evaluator=evaluator)


# Search nodes one oracle call may bound; past it the best placement found so
# far comes back unproven.  The measured 10x2 draws were proven far below it.
NODE_LIMIT = 2000
# Frank-Wolfe steps per node bound; each step's bound is certified.
_FW_ITERS = 10


@dataclass(frozen=True, slots=True)
class OracleResult:
    """The oracle's placement and how far its search got; ``nodes`` and
    ``exact`` are diagnostics, read by the tests of where it proves."""

    decision: OffloadDecision
    latency: float           # Evaluator.latency_of(decision.assign)
    nodes: int               # search nodes bounded
    exact: bool              # the search finished: latency is the optimum


def _checked_incumbent(incumbent, n: int, m: int) -> np.ndarray:
    """The incumbent as N int64 placements in 0..M, else ``ValueError``."""
    try:
        assign = OffloadDecision(assign=incumbent, n_mecs=m).assign
    except (TypeError, ValueError) as exc:
        raise ValueError(f"incumbent {incumbent!r}: {exc}") from None
    if assign.shape[0] != n:
        raise ValueError(f"incumbent {incumbent!r} is not {n} integers "
                         f"in 0..{m}")
    return assign.copy()


def exact_oracle(ev: Evaluator, incumbent: np.ndarray) -> OracleResult:
    """Optimal placement by depth-first branch-and-bound.

    UEs are placed largest load ``sqrt(w*F)`` first, each node's children
    cheapest marginal cost first, and the search starts from
    ``incumbent``'s latency.  A child is cut when its fixed cost plus every
    undecided UE's cheapest marginal cost at the current loads reaches the
    incumbent (MEC cost is convex in its load, so UEs that share a server
    never cost less than alone), else when a certified Frank-Wolfe bound on
    the undecided UEs' continuous relaxation does, as in
    ``perfbench/checks.relaxation_bound``.  At most ``NODE_LIMIT`` nodes
    are bounded.  Deterministic; draws nothing.

    The arrays are at most N x (M+1), so the nodes work on lists of Python
    floats, one list per placement option (column 0 local), with the UEs
    in search order; only leaves are scored with ``ev.latency_of``.
    """
    n, m = ev.n, ev.m
    best = _checked_incumbent(incumbent, n, m)
    best_f = ev.latency_of(best)
    order = np.argsort(-ev.s, kind="stable")
    cost = ev.cost[order].T.tolist()
    s = ev.s[order].tolist()
    inv_f = (1.0 / ev.f_mec).tolist()
    two_s = [2.0 * v for v in s]
    # undecided UE i joining MEC j at load L costs solo[j-1][i] + 2 s_i L / f_j
    solo = [[c + v * v * fi for c, v in zip(col, s)]
            for col, fi in zip(cost[1:], inv_f)]
    # what the nodes at depth k read of the UEs k..
    rows = list(zip(zip(*cost), two_s, s))   # (costs, 2 s_i, s_i) per UE
    tails = [(s[k:], two_s[k:], [col[k:] for col in cost], rows[k:],
              [col[k:] for col in solo]) for k in range(n + 1)]
    mecs = range(1, m + 1)
    path = [0] * n
    nodes, stopped = 0, False

    def relaxation_cut(k: int, loads: list[float], fixed: float,
                       x: list[list[float]]) -> bool:
        # Frank-Wolfe on UEs k.. from the relaxed placement x (one column
        # per option).  At total loads t every placement costs at least
        # fixed - L.L/f + sum_j (2 t_j L_j - t_j^2)/f_j + sum_i min_j grad_ij,
        # for any t: at the iterate that is its value minus its duality gap.
        # The iterate is carried as s @ x and c . x, which each step moves
        # linearly; x itself is stepped only for a node that is not cut.
        s_k, _, c, rows, _ = tails[k]
        base = fixed - sum(map(mul, loads, map(mul, loads, inv_f)))
        sx = [sum(map(mul, s_k, col)) for col in x[1:]]
        x_c = sum([sum(map(mul, cj, xj)) for cj, xj in zip(c, x)])
        steps = []
        for _ in range(_FW_ITERS):
            # tf = t / f at total loads t = loads + s @ x; t.tf and tf.loads
            tf, t_tf, tf_loads = [], 0.0, 0.0
            for v, w, fi in zip(loads, sx, inv_f):
                t = v + w
                f = t * fi
                tf.append(f)
                t_tf += t * f
                tf_loads += f * v
            value = base + x_c + t_tf
            if value < best_f:
                break               # the relaxation's optimum is below too
            # each UE's cheapest option under the gradient, first on ties,
            # and s @ onehot(e) for the step towards them
            g, e, pull = 0.0, [], [0.0] * (m + 1)
            opts = list(zip(mecs, tf))
            for row, w, v in rows:
                j, low = 0, row[0]
                for i, f in opts:
                    grad = row[i] + w * f
                    if grad < low:
                        j, low = i, grad
                g += low
                e.append(j)
                pull[j] += v
            cert = base + g + 2.0 * tf_loads - t_tf
            if cert >= best_f:
                return True
            # the step d = onehot(e) - x: s @ d, its curvature, and tf.pull
            d_s, curv, tf_pull = [], 0.0, 0.0
            for p, v, f, fi in zip(pull[1:], sx, tf, inv_f):
                d = p - v
                d_s.append(d)
                curv += d * (d * fi)
                tf_pull += f * p
            gap = value - cert
            step = 1.0 if curv <= 0 else min(1.0, gap / (2.0 * curv))
            steps.append((step, e))
            sx = [v + step * d for v, d in zip(sx, d_s)]
            # c . onehot(e) is g less the load terms of the gradient
            x_c += step * (g - 2.0 * tf_pull - x_c)
        for step, e in steps:
            x[:] = [[v + step * (1.0 - v) if i == j else v - step * v
                     for v, i in zip(col, e)] for j, col in enumerate(x)]
        return False

    def expand(k: int, loads: list[float], fixed: float,
               x: list[list[float]]) -> None:
        # x: the node's relaxed placement of UEs k.., its children's start
        nonlocal best, best_f, nodes, stopped
        lf = list(map(mul, loads, inv_f))
        marg = [cost[0][k]] + [col[k] + two_s[k] * v for col, v in zip(solo, lf)]
        child_fixed = list(map(fixed.__add__, marg))
        if k + 1 == n:
            j = marg.index(min(marg))
            if child_fixed[j] < best_f:
                path[k] = j
                cand = np.empty(n, dtype=np.int64)
                cand[order] = path
                f = ev.latency_of(cand)
                if f < best_f:
                    best, best_f = cand, f
            return
        # a child's loads are the node's, with s_k added on its MEC; each
        # undecided UE's cheapest marginal cost at them bounds its share
        _, two_s_rest, c_rest, _, solo_rest = tails[k + 1]
        here = [[v + w * g for v, w in zip(col, two_s_rest)]
                for col, g in zip(solo_rest, lf)]
        child_loads = [loads]
        bound = [child_fixed[0] + sum(map(min, c_rest[0], *here))]
        for j in range(m):
            cl = loads.copy()
            cl[j] += s[k]
            g = cl[j] * inv_f[j]
            moved = [v + w * g for v, w in zip(solo_rest[j], two_s_rest)]
            child_loads.append(cl)
            bound.append(child_fixed[j + 1] + sum(map(
                min, c_rest[0], *here[:j], moved, *here[j + 1:])))
        for j in sorted(range(m + 1), key=marg.__getitem__):
            if bound[j] >= best_f:
                continue
            if stopped or nodes >= NODE_LIMIT:
                stopped = True
                return
            nodes += 1
            child_x = [col[1:] for col in x]
            if not relaxation_cut(k + 1, child_loads[j], child_fixed[j], child_x):
                path[k] = j
                expand(k + 1, child_loads[j], child_fixed[j], child_x)

    # start: each UE on its cheapest option at zero load
    first = [row.index(min(row)) for row in zip(cost[0], *solo)]
    start = [[1.0 if i == j else 0.0 for i in first] for j in range(m + 1)]
    expand(0, [0.0] * m, 0.0, start)
    return OracleResult(decision=OffloadDecision(assign=best, n_mecs=m),
                        latency=best_f, nodes=nodes, exact=not stopped)


# PsoConfig and pso_oracle stay until the benchmark's pending edit: perfbench
# passes ``pso_cfg=PsoConfig()`` to run_benchmark and times ``pso_oracle`` by
# name.  The config is a field-less marker for "with oracle", the function a
# thin adapter over ``exact_oracle``.
@dataclass(frozen=True)
class PsoConfig:
    """Marker: ``run_benchmark(pso_cfg=PsoConfig())`` runs the oracle."""


def pso_oracle(ev: Evaluator,
               incumbent: np.ndarray) -> tuple[OffloadDecision, float]:
    """``exact_oracle``'s placement and latency."""
    res = exact_oracle(ev, incumbent)
    return res.decision, res.latency


# Codes ``exhaustive_best`` scores per ``latencies`` call.  The scenario
# keeps the ``batch_rows`` of the largest batch it has scored, as long as it
# lives: 88 KiB at 1024 rows of 10x2, 352 KiB at 4096.
_BLOCK = 1024


def exhaustive_best(scenario: Scenario,
                    channel: ChannelState) -> tuple[np.ndarray, float]:
    """Enumerate all (M+1)^N placements; intended for toy sizes only.

    Placements are scored in blocks of codes, UE 0 the leading base-(M+1)
    digit, so memory stays flat; the first minimum in code order wins.
    """
    ev = Evaluator(scenario, channel)
    n, m = ev.n, ev.m
    total = (m + 1) ** n
    if total > 2_000_000:
        raise ValueError("decision space too large to enumerate")
    place = (m + 1) ** np.arange(n - 1, -1, -1)
    best_code, best_f = 0, np.inf
    for start in range(0, total, _BLOCK):
        codes = np.arange(start, min(start + _BLOCK, total))
        lat = ev.latencies(codes[:, None] // place % (m + 1))
        k = int(np.argmin(lat))
        if lat[k] < best_f:
            best_code, best_f = start + k, float(lat[k])
    return best_code // place % (m + 1), best_f


def nrr(inferred_reward: float, optimal_reward: float) -> float:
    """Normalised reward ratio, in [0, 1].

    The oracle starts from every compared placement, so a ratio above 1
    means it lost to one of them: that is a bug, and raises.
    """
    if optimal_reward <= 0:
        raise ValueError("oracle reward must be positive")
    ratio = inferred_reward / optimal_reward
    if ratio > 1.0:
        raise ValueError(f"NRR {ratio!r} above 1: the oracle lost to a "
                         "strategy it started from")
    return max(ratio, 0.0)


@dataclass
class StrategyStats:
    """Aggregate scores for one strategy over the benchmark draws."""

    name: str
    latency_s: float                 # mean weighted latency over draws
    reward: float                    # reciprocal of latency_s
    decision_time_s: float           # median per-decision wall time
    decision_time_mean_s: float
    mean_draw_reward: float          # mean of per-draw rewards
    nrr_mean: float | None = None
    nrr_best: float | None = None


@dataclass
class BenchReport:
    stats: list[StrategyStats]
    n_channels: int

    def by_name(self, name: str) -> StrategyStats:
        return {s.name: s for s in self.stats}[name]


def _aggregate(name: str, latencies: list[float], times: list[float],
               optima: list[float] | None) -> StrategyStats:
    """One row's scores, with NRRs against the oracle's ``optima`` if given."""
    lat = float(np.mean(latencies))
    nrrs = None if optima is None else [
        nrr(1.0 / f, 1.0 / f_opt) for f, f_opt in zip(latencies, optima)]
    return StrategyStats(
        name=name,
        latency_s=lat,
        reward=1.0 / lat,
        decision_time_s=float(np.median(times)),
        decision_time_mean_s=float(np.mean(times)),
        mean_draw_reward=float(np.mean(1.0 / np.asarray(latencies))),
        nrr_mean=float(np.mean(nrrs)) if nrrs else None,
        nrr_best=float(np.max(nrrs)) if nrrs else None,
    )


def run_benchmark(scenario: Scenario, policy: Network | None,
                  compressor: ChannelCompressor | None,
                  asa_cfg: AnnealConfig, *,
                  n_channels: int = 100, asa_budget: int = 200,
                  rng: np.random.Generator | None = None,
                  pso_cfg: PsoConfig | None = None,
                  channel_seed: int | None = None,
                  epoch_base: int = BENCH_EPOCH_BASE) -> BenchReport:
    """Score the trained policy and the baselines on shared channel draws.

    One ordered table of (name, draw -> placement) rows: policy (given
    ``policy`` and its ``compressor``, which come together), greedy,
    random, asa and, with ``pso_cfg`` set (any ``PsoConfig``), the oracle.
    Per draw each row is timed over its placement alone.  The asa and
    oracle rows return their placement's exact latency with it; the others
    are scored by ``Evaluator.latency_of`` after their timed span.  The
    oracle starts from the draw's best placement so far, first in row order
    on ties; NRRs against it attach.
    """
    if (policy is None) != (compressor is None):
        missing = "compressor" if compressor is None else "policy"
        raise ValueError(f"run_benchmark needs the {missing} too: pass the "
                         "policy and its compressor together, or neither")
    rng = rng if rng is not None else np.random.default_rng(0)
    n, m = scenario.n_ues, scenario.n_mecs
    # a row maps (channel, evaluator) to a placement and its latency, None
    # where the row does not know it; rows look their functions up by module
    # name at each call, where a tracer may have wrapped them; random draws
    # from rng before asa
    rows = [] if policy is None else [("policy", lambda ch, ev: (decide(
        policy, compressor.encode_channel(ch).vector, n, m), None))]

    def asa(ch, ev):
        res = asa_only(scenario, ch, asa_cfg, asa_budget, rng, evaluator=ev)
        return res.decision, res.objective

    rows += [
        ("greedy", lambda ch, ev: (greedy_baseline(scenario, ch), None)),
        ("random", lambda ch, ev: (random_baseline(scenario, ch, rng), None)),
        ("asa", asa)]
    if pso_cfg is not None:
        # ``best`` is the draw's best placement when the row runs
        rows.append(("oracle", lambda ch, ev: pso_oracle(ev, best.assign)))
    lat: dict[str, list[float]] = {name: [] for name, _ in rows}
    tim: dict[str, list[float]] = {name: [] for name, _ in rows}

    for k in range(n_channels):
        channel = sample_channel_state(scenario, epoch_base + k, channel_seed)
        ev = Evaluator(scenario, channel)
        best, best_f = None, np.inf
        for name, place in rows:
            tic = time.perf_counter()
            dec, f = place(channel, ev)
            tim[name].append(time.perf_counter() - tic)
            if f is None:
                f = ev.latency_of(dec.assign)
            lat[name].append(f)
            if f < best_f:
                best, best_f = dec, f

    return BenchReport(stats=[
        _aggregate(name, lat[name], tim[name],
                   None if name == "oracle" else lat.get("oracle"))
        for name, _ in rows], n_channels=n_channels)


_BENCH_COLUMNS = ("strategy", "decision_time_s", "decision_time_mean_s",
                  "latency_s", "reward", "mean_draw_reward", "nrr_mean",
                  "nrr_best")


def write_bench_csv(report: BenchReport, path: str | Path) -> None:
    write_csv(path, _BENCH_COLUMNS, (
        [s.name, s.decision_time_s, s.decision_time_mean_s, s.latency_s,
         s.reward, s.mean_draw_reward, s.nrr_mean, s.nrr_best]
        for s in report.stats))


def format_report(report: BenchReport) -> str:
    lines = [f"{'strategy':<10} {'time[s]':>12} {'latency[s]':>12} "
             f"{'reward':>10} {'nrr_mean':>9} {'nrr_best':>9}"]
    for s in report.stats:
        nm = "-" if s.nrr_mean is None else f"{s.nrr_mean:.4f}"
        nb = "-" if s.nrr_best is None else f"{s.nrr_best:.4f}"
        lines.append(f"{s.name:<10} {s.decision_time_s:>12.6f} "
                     f"{s.latency_s:>12.4f} {s.reward:>10.4f} {nm:>9} {nb:>9}")
    return "\n".join(lines)

"""Baseline strategies, a swarm-search oracle, and benchmark reports.

The oracle is a discrete particle swarm over placement vectors (continuous
positions decoded by round-and-clamp).  It exists to normalise rewards:
NRR, the normalised reward ratio, divides a strategy's reward by the oracle
reward on the same channel draw.  Baselines are scored on identical draws so
comparisons isolate the decision quality.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .agent import EpochLog, decide
from .allocator import Evaluator
from .annealing import AnnealConfig, BudgetState, SearchResult, search
from .autoencoder import ChannelCompressor
from .mec import ChannelState, OffloadDecision, Scenario, sample_channel_state
from .neural import Network, write_csv

logger = logging.getLogger(__name__)

# Bench channel draws live on epoch indices far above any training run so the
# two never share fading realisations.
BENCH_EPOCH_BASE = 1_000_001


def greedy_baseline(scenario: Scenario, channel: ChannelState) -> OffloadDecision:
    """Nearest-MEC placement with a local fallback when servers look overloaded.

    Every UE first picks its closest MEC.  Per MEC, while an equal split of
    the frequency budget would leave any served UE slower than it would be
    locally, the UE with the largest cycle demand is moved to local
    execution.  Channel gains only enter through the upload time at max
    power; weights cancel out of the per-UE comparison.
    """
    arr = scenario.arrays
    rates = Evaluator(scenario, channel).rates
    assign = arr.distances.argmin(axis=1) + 1
    for j, f_max in enumerate(arr.f_mec, start=1):
        members = list(np.flatnonzero(assign == j))
        while members:
            cycles = arr.cycles[members]
            remote = (arr.data_bits[members] / rates[members, j - 1]
                      + cycles / (f_max / len(members)))
            if np.all(remote <= cycles / arr.local_cap[members]):
                break
            worst = members[int(np.argmax(cycles))]
            assign[worst] = 0
            members.remove(worst)
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


@dataclass(frozen=True)
class PsoConfig:
    particles: int = 50
    iters: int = 300
    inertia: float = 0.72
    cognitive: float = 1.49
    social: float = 1.49


def pso_oracle(scenario: Scenario, channel: ChannelState, cfg: PsoConfig,
               rng: np.random.Generator,
               evaluator: Evaluator | None = None) -> tuple[OffloadDecision, float]:
    """Discrete swarm search; returns the best placement and its latency."""
    ev = evaluator if evaluator is not None else Evaluator(scenario, channel)
    n, m = ev.n, ev.m
    x = rng.uniform(0.0, float(m), size=(cfg.particles, n))
    vel = rng.uniform(-1.0, 1.0, size=(cfg.particles, n))

    def decoded(pos: np.ndarray) -> np.ndarray:
        return np.clip(np.rint(pos), 0, m).astype(np.int64)

    fit = ev.latencies(decoded(x))
    pbest_x = x.copy()
    pbest_f = fit.copy()
    g = int(np.argmin(fit))
    gbest_x, gbest_f = x[g].copy(), float(fit[g])
    for _ in range(cfg.iters):
        r1 = rng.random((cfg.particles, n))
        r2 = rng.random((cfg.particles, n))
        vel = (cfg.inertia * vel
               + cfg.cognitive * r1 * (pbest_x - x)
               + cfg.social * r2 * (gbest_x - x))
        vel = np.clip(vel, -float(m), float(m))
        x = np.clip(x + vel, 0.0, float(m))
        fit = ev.latencies(decoded(x))
        better = fit < pbest_f
        pbest_x[better] = x[better]
        pbest_f[better] = fit[better]
        g = int(np.argmin(pbest_f))
        if pbest_f[g] < gbest_f:
            gbest_f = float(pbest_f[g])
            gbest_x = pbest_x[g].copy()
    return OffloadDecision(assign=decoded(gbest_x), n_mecs=m), gbest_f


def exhaustive_best(scenario: Scenario, channel: ChannelState,
                    evaluator: Evaluator | None = None) -> tuple[np.ndarray, float]:
    """Enumerate all (M+1)^N placements; intended for toy sizes only."""
    ev = evaluator if evaluator is not None else Evaluator(scenario, channel)
    n, m = ev.n, ev.m
    total = (m + 1) ** n
    if total > 2_000_000:
        raise ValueError("decision space too large to enumerate")
    assigns = np.indices((m + 1,) * n).reshape(n, -1).T
    lat = np.concatenate([ev.latencies(assigns[start:start + 65536])
                          for start in range(0, total, 65536)])
    k = int(np.argmin(lat))
    return assigns[k].copy(), float(lat[k])


def nrr(inferred_reward: float, optimal_reward: float) -> float:
    """Normalised reward ratio, clamped to [0, 1.0001].

    Ratios above 1 mean the oracle lost to the strategy under comparison;
    they are reported as the clamp ceiling and logged.
    """
    if optimal_reward <= 0:
        raise ValueError("oracle reward must be positive")
    ratio = inferred_reward / optimal_reward
    if ratio > 1.0:
        logger.warning("NRR %.6f above 1: oracle weaker than the strategy", ratio)
        return 1.0001
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
        for s in self.stats:
            if s.name == name:
                return s
        raise KeyError(name)


def _aggregate(name: str, latencies: list[float], times: list[float],
               nrrs: list[float] | None) -> StrategyStats:
    lat = float(np.mean(latencies))
    rewards = 1.0 / np.asarray(latencies)
    return StrategyStats(
        name=name,
        latency_s=lat,
        reward=1.0 / lat,
        decision_time_s=float(np.median(times)),
        decision_time_mean_s=float(np.mean(times)),
        mean_draw_reward=float(rewards.mean()),
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

    Per draw, each strategy is timed while producing its placement and then
    scored by the exact allocator.  With ``pso_cfg`` set, the oracle also
    runs per draw and NRR statistics are attached.  ``policy=None`` drops
    the policy row and benchmarks only the baselines.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    n, m = scenario.n_ues, scenario.n_mecs
    with_policy = policy is not None and compressor is not None
    names = (["policy"] if with_policy else []) + ["greedy", "random", "asa"]
    lat: dict[str, list[float]] = {k: [] for k in names + ["oracle"]}
    tim: dict[str, list[float]] = {k: [] for k in names + ["oracle"]}
    ratio: dict[str, list[float]] = {k: [] for k in names}

    def timed(name, strategy, *args, **kwargs):
        tic = time.perf_counter()
        out = strategy(*args, **kwargs)
        tim[name].append(time.perf_counter() - tic)
        return out

    for k in range(n_channels):
        channel = sample_channel_state(scenario, epoch_base + k, channel_seed)
        ev = Evaluator(scenario, channel)
        if with_policy:
            dec = timed("policy", lambda: decide(
                policy, compressor.encode_channel(channel).vector, n, m))
            lat["policy"].append(ev.latency_of(dec.assign))
        dec = timed("greedy", greedy_baseline, scenario, channel)
        lat["greedy"].append(ev.latency_of(dec.assign))
        dec = timed("random", random_baseline, scenario, channel, rng)
        lat["random"].append(ev.latency_of(dec.assign))
        res = timed("asa", asa_only, scenario, channel, asa_cfg, asa_budget,
                    rng, evaluator=ev)
        lat["asa"].append(res.objective)
        if pso_cfg is not None:
            _, f_opt = timed("oracle", pso_oracle, scenario, channel, pso_cfg,
                             rng, evaluator=ev)
            lat["oracle"].append(f_opt)
            for name in names:
                ratio[name].append(nrr(1.0 / lat[name][-1], 1.0 / f_opt))

    stats = [_aggregate(name, lat[name], tim[name],
                        ratio[name] if pso_cfg is not None else None)
             for name in names]
    if pso_cfg is not None:
        stats.append(_aggregate("oracle", lat["oracle"], tim["oracle"], None))
    return BenchReport(stats=stats, n_channels=n_channels)


def window_rewards(logs: list[EpochLog], scenario: Scenario,
                   channel_seed: int, window: int,
                   rng: np.random.Generator) -> dict[str, float]:
    """Mean rewards over the last ``window`` logged epochs, all strategies.

    The policy side reuses the online rewards already logged; greedy and
    random are re-run on the identical channel draws (regenerated from the
    epoch indices), so the comparison shares every fading realisation.
    """
    tail = logs[-window:]
    rewards = {"policy": float(np.mean([row.reward for row in tail]))}
    for name in ("greedy", "random"):
        vals = []
        for row in tail:
            channel = sample_channel_state(scenario, row.epoch, channel_seed)
            ev = Evaluator(scenario, channel)
            if name == "greedy":
                dec = greedy_baseline(scenario, channel)
            else:
                dec = random_baseline(scenario, channel, rng)
            vals.append(1.0 / ev.latency_of(dec.assign))
        rewards[name] = float(np.mean(vals))
    return rewards


_BENCH_COLUMNS = ("strategy", "decision_time_s", "decision_time_mean_s",
                  "latency_s", "reward", "mean_draw_reward", "nrr_mean",
                  "nrr_best")


def write_bench_csv(report: BenchReport, path: str | Path) -> None:
    write_csv(path, _BENCH_COLUMNS, (
        [s.name, repr(s.decision_time_s), repr(s.decision_time_mean_s),
         repr(s.latency_s), repr(s.reward), repr(s.mean_draw_reward),
         "" if s.nrr_mean is None else repr(s.nrr_mean),
         "" if s.nrr_best is None else repr(s.nrr_best)]
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

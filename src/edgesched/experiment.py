"""End-to-end experiment drivers shared by the CLI and the test suite.

``train_experiment`` runs the full pipeline (scenario, autoencoder
pretraining, online scheduling loop) and optionally writes the artifact set:
resolved scenario, compressor and policy checkpoints, the deterministic
epoch trace and the separate timing trace.  ``bench_experiment`` scores a
trained policy against the baselines; ``dynamic_experiment`` sweeps the
server count and reports accuracy, compression and NRR statistics around a
mid-run workload shift.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .agent import (AgentConfig, RunResult, SeedBundle, run, write_epoch_csv,
                    write_timings_csv)
from .allocator import Evaluator
from .autoencoder import ChannelCompressor
from .bench import (BenchReport, PsoConfig, exact_oracle, nrr, run_benchmark,
                    write_bench_csv)
from .config import (ExperimentConfig, build_scenario, dump_scenario,
                     load_scenario)
from .mec import (HELDOUT_EPOCH_BASE, PRETRAIN_EPOCH_BASE, Scenario,
                  sample_channel_gains, sample_channel_state)
from .neural import Network, load_checkpoint, save_checkpoint, write_csv

logger = logging.getLogger(__name__)


@dataclass
class TrainArtifacts:
    """A trained policy with the scenario and compressor it runs on.

    ``result`` (epoch logs, final scenario, shift epoch) and ``sae_trace``
    exist only for a run trained in this process; a set reloaded from disk
    carries neither.
    """

    scenario: Scenario
    compressor: ChannelCompressor
    policy: Network
    seeds: SeedBundle
    result: RunResult | None = None
    sae_trace: list[float] | None = None


# agent_config stays until the benchmark's pending edit: perfbench calls it
# by name.  The policy's end widths follow from the compressor and the
# scenario, so it has nothing to check.
def agent_config(drl: AgentConfig, state_dim: int, n_ues: int,
                 n_mecs: int) -> AgentConfig:
    """``drl`` itself."""
    return drl


def pretrain_compressor(cfg: ExperimentConfig, scenario: Scenario,
                        seeds: SeedBundle) -> tuple[ChannelCompressor,
                                                    np.random.Generator,
                                                    list[float]]:
    """Build the compressor and pretrain it on a dedicated channel stream."""
    sae_rng = np.random.default_rng(seeds.sae)
    comp = ChannelCompressor(cfg.sae, scenario.n_ues, scenario.n_mecs,
                             rng=sae_rng)
    gains = sample_channel_gains(scenario, PRETRAIN_EPOCH_BASE,
                                 cfg.sae.pretrain_samples, seeds.channel)
    trace = comp.pretrain(gains, sae_rng)
    return comp, sae_rng, trace


def heldout_accuracy(compressor: ChannelCompressor, scenario: Scenario,
                     seeds: SeedBundle, n_samples: int = 200) -> float:
    return compressor.accuracy(sample_channel_gains(
        scenario, HELDOUT_EPOCH_BASE, n_samples, seeds.channel))


def train_experiment(cfg: ExperimentConfig,
                     out_dir: str | Path | None = None) -> TrainArtifacts:
    seeds = SeedBundle.from_master(cfg.seed)
    scenario = build_scenario(cfg.scenario, fallback_seed=cfg.seed)
    logger.info("scenario: %d UEs, %d MECs, seed %d", scenario.n_ues,
                scenario.n_mecs, cfg.seed)
    comp, sae_rng, sae_trace = pretrain_compressor(cfg, scenario, seeds)
    if sae_trace:
        logger.info("autoencoder pretrained: loss %.5f -> %.5f",
                    sae_trace[0], sae_trace[-1])
    result = run(scenario, comp, cfg.drl, cfg.asa, cfg.replay, seeds,
                 sae_rng=sae_rng)
    tail = result.logs[-min(200, len(result.logs)):]
    logger.info("run finished: mean reward over last %d epochs %.5f",
                len(tail), float(np.mean([r.reward for r in tail])))
    artifacts = TrainArtifacts(scenario=scenario, compressor=comp,
                               policy=result.policy, seeds=seeds,
                               result=result, sae_trace=sae_trace)
    if out_dir is not None:
        _write_train_outputs(artifacts, cfg, Path(out_dir))
    return artifacts


def _write_train_outputs(art: TrainArtifacts, cfg: ExperimentConfig,
                         out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    dump_scenario(art.scenario, out / "scenario_resolved.yaml")
    art.compressor.save(out / "sae.json", seed=cfg.seed,
                        epoch=len(art.result.logs))
    save_checkpoint(art.result.policy, out / "policy.json", seed=cfg.seed,
                    epoch=len(art.result.logs))
    write_epoch_csv(art.result.logs, out / "epochs.csv")
    write_timings_csv(art.result.logs, out / "timings.csv")


def load_artifacts(cfg: ExperimentConfig, out: Path) -> TrainArtifacts | None:
    """Reload a trained artifact set if all files exist, else None.  A set
    trained with another seed than ``cfg.seed`` raises ``ValueError``: its
    bench would take another seed's draws."""
    needed = [out / "scenario_resolved.yaml", out / "sae.json",
              out / "policy.json"]
    if not all(p.exists() for p in needed):
        return None
    policy, meta = load_checkpoint(out / "policy.json")
    if meta.get("seed") not in (None, cfg.seed):
        raise ValueError(f"{out}: trained with seed {meta['seed']}, "
                         f"but the config's seed is {cfg.seed}")
    scenario = load_scenario(out / "scenario_resolved.yaml")
    comp, _ = ChannelCompressor.load(out / "sae.json")
    return TrainArtifacts(scenario=scenario, compressor=comp, policy=policy,
                          seeds=SeedBundle.from_master(cfg.seed))


def bench_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None,
                     artifacts: TrainArtifacts | None = None) -> BenchReport:
    """Benchmark a trained policy, training one first when necessary."""
    out = None if out_dir is None else Path(out_dir)
    if artifacts is None and out is not None:
        artifacts = load_artifacts(cfg, out)
        if artifacts is not None:
            logger.info("loaded trained artifacts from %s", out)
    if artifacts is None:
        artifacts = train_experiment(cfg, out_dir)
    # the resolved (pre-shift) scenario, the one a reloaded set also has
    report = run_benchmark(
        artifacts.scenario, artifacts.policy, artifacts.compressor,
        cfg.asa,
        n_channels=cfg.bench.n_channels, asa_budget=cfg.bench.asa_budget,
        rng=np.random.default_rng(artifacts.seeds.bench),
        pso_cfg=PsoConfig() if cfg.bench.with_oracle else None,
        channel_seed=artifacts.seeds.channel)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_bench_csv(report, out / "bench.csv")
    return report


def nrr_samples(result: RunResult, scenario_pre: Scenario,
                seeds: SeedBundle, stride: int) -> tuple[list[float], list[float]]:
    """NRR of the online decision at every ``stride``-th epoch.

    Channels are regenerated from the epoch indices; evaluation uses the
    weights active at that epoch (pre- or post-shift scenario), and the
    oracle starts from the logged decision.  Returns the pre-shift and
    post-shift sample lists; without a shift everything lands in the first
    list.
    """
    shift = result.shift_epoch or (len(result.logs) + 1)
    pre: list[float] = []
    post: list[float] = []
    for row in result.logs:
        if row.epoch % stride != 0:
            continue
        scen = scenario_pre if row.epoch < shift else result.scenario_final
        channel = sample_channel_state(scen, row.epoch, seeds.channel)
        best = exact_oracle(Evaluator(scen, channel), row.decision)
        value = nrr(row.reward, 1.0 / best.latency)
        (pre if row.epoch < shift else post).append(value)
    return pre, post


def _dynamic_config(cfg: ExperimentConfig, m: int) -> ExperimentConfig:
    """The sweep's config for M = ``m``.

    The encoder's output width is ``sae.out_dim``, N when that is unset.
    """
    drl_cfg = replace(cfg.drl,
                      weight_shift_epoch=cfg.drl.weight_shift_epoch
                      or max(1, cfg.drl.t_drl // 2))
    return replace(cfg, scenario=replace(cfg.scenario, n_mecs=m),
                   sae=replace(cfg.sae,
                               out_dim=cfg.sae.out_dim or cfg.scenario.n_ues),
                   drl=drl_cfg)


def _dynamic_row(sub: ExperimentConfig) -> dict:
    m = sub.scenario.n_mecs
    art = train_experiment(sub)
    comp = art.compressor
    acc = heldout_accuracy(comp, art.scenario, art.seeds,
                           sub.dynamic.accuracy_samples)
    pre, post = nrr_samples(art.result, art.scenario, art.seeds,
                            sub.dynamic.nrr_stride)
    return {
        "m": m,
        "accuracy": acc,
        "compression_ratio": comp.compression_ratio(),
        "f_best": max(pre) if pre else float("nan"),
        "f_avg": float(np.mean(pre)) if pre else float("nan"),
        "s_best": max(post) if post else float("nan"),
        "s_avg": float(np.mean(post)) if post else float("nan"),
    }


def dynamic_experiment(cfg: ExperimentConfig,
                       out_dir: str | Path | None = None) -> list[dict]:
    """Per-M summary rows of a MEC-count sweep; the config is checked first."""
    cfg.check_sweep()
    rows = [_dynamic_row(_dynamic_config(cfg, m))
            for m in cfg.dynamic.mec_counts]
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_table_csv(rows, out / "table3.csv")
    return rows


_TABLE_COLUMNS = ("m", "accuracy", "compression_ratio", "f_best", "f_avg",
                  "s_best", "s_avg")


def write_table_csv(rows: list[dict], path: str | Path) -> None:
    write_csv(path, _TABLE_COLUMNS,
              ([row[c] for c in _TABLE_COLUMNS] for row in rows))


def format_table(rows: list[dict]) -> str:
    lines = [f"{'M':>2} {'acc':>7} {'CR':>5} {'F-Best':>7} {'F-Avg':>7} "
             f"{'S-Best':>7} {'S-Avg':>7}"]
    for r in rows:
        lines.append(f"{r['m']:>2} {r['accuracy']:>7.4f} "
                     f"{r['compression_ratio']:>5.2f} {r['f_best']:>7.4f} "
                     f"{r['f_avg']:>7.4f} {r['s_best']:>7.4f} "
                     f"{r['s_avg']:>7.4f}")
    return "\n".join(lines)

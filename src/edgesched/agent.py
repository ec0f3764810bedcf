"""Online scheduling agent: policy network, imitation training, main loop.

Per epoch the agent encodes the fresh channel state, reads a placement off
the policy network, then lets the annealing search improve that placement
under the current iteration budget.  The searched placement becomes the
training label; every ``train_interval`` epochs the policy takes one Adam
step of sigmoid cross-entropy towards a replayed batch of such labels.  The
loop is deterministic given a master seed: every stochastic component draws
from its own generator, so ablations do not perturb each other's streams.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .allocator import Evaluator
from .annealing import AnnealConfig, BudgetState, SearchResult, adapt_budget
from .annealing import random_search as _random_search
from .annealing import search as _anneal_search
from .autoencoder import ChannelCompressor
from .mec import OffloadDecision, Scenario, reweighted, sample_channel_state
from .neural import Adam, Gradients, Network, mlp_specs, save_checkpoint
from .replay import ReplayBuffer, ReplayConfig, Transition

_CLAMP = 1e-12


@dataclass(frozen=True)
class SeedBundle:
    """Independent per-component seeds fanned out from one master seed."""

    master: int
    channel: int
    sae: int
    policy: int
    asa: int
    replay: int
    shift: int
    explore: int
    bench: int

    @classmethod
    def from_master(cls, master: int) -> "SeedBundle":
        state = np.random.SeedSequence(master).generate_state(8, dtype=np.uint64)
        vals = [int(v) for v in state]
        return cls(master, *vals)


@dataclass
class AgentConfig:
    """Policy architecture and training-loop knobs."""

    hidden_dims: list[int] = field(default_factory=lambda: [120, 80])
    lambda_reg: float = 0.02
    t_drl: int = 3000
    train_interval: int = 10
    batch: int = 64
    lr: float = 1e-3
    hidden_activation: str = "relu"
    weight_shift_epoch: int | None = None
    shift_weight_low: float = 0.5
    shift_weight_high: float = 2.0
    search: str = "asa"               # "asa" | "random" (ablation)
    replay_mode: str = "prioritized"  # "prioritized" | "uniform" (ablation)
    epsilon_greedy: float = 0.0
    checkpoint_interval: int = 0

    def __post_init__(self) -> None:
        if self.t_drl < 1 or self.train_interval < 1 or self.batch < 1:
            raise ValueError("loop sizes must be positive")
        if self.search not in ("asa", "random"):
            raise ValueError(f"unknown search mode {self.search!r}")
        if self.replay_mode not in ("prioritized", "uniform"):
            raise ValueError(f"unknown replay mode {self.replay_mode!r}")
        if not 0.0 <= self.epsilon_greedy <= 1.0:
            raise ValueError("epsilon_greedy must lie in [0, 1]")


@dataclass
class EpochLog:
    """One row of the training trace; timing fields stay out of epochs.csv."""

    epoch: int
    reward: float
    latency: float
    loss: float | None
    delta_loss: float | None
    t_sa: int
    asa_best_objective: float
    buffer_size: int
    mean_priority: float
    evictions: int
    preserve_hits: int
    decision_ms: float
    asa_ms: float
    decision: np.ndarray


@dataclass
class RunResult:
    policy: Network
    logs: list[EpochLog]
    scenario_final: Scenario
    shift_epoch: int | None


def build_policy(state_dim: int, n_ues: int, n_mecs: int, cfg: AgentConfig,
                 rng: np.random.Generator) -> Network:
    """Fresh policy MLP: encoded state in, one sigmoid score per placement out."""
    dims = [state_dim, *cfg.hidden_dims, n_ues * (n_mecs + 1)]
    return Network(mlp_specs(dims, hidden=cfg.hidden_activation,
                             output="sigmoid"), rng=rng)


def decide(policy: Network, state: np.ndarray, n_ues: int,
           n_mecs: int) -> OffloadDecision:
    """Feasible placement from the policy head.

    The output reshapes to one row per UE with M+1 placement scores; the
    row-wise argmax picks the placement, ties resolving to the lowest index
    (local first).  Feasibility never depends on the parameter values.
    """
    out = policy.forward(state)
    if out.shape[-1] != n_ues * (n_mecs + 1):
        raise ValueError("policy head does not match N * (M + 1)")
    scores = out.reshape(n_ues, n_mecs + 1)
    return OffloadDecision(assign=np.argmax(scores, axis=1), n_mecs=n_mecs)


def one_hot_target(decision: np.ndarray, n_mecs: int) -> np.ndarray:
    """Flat 0/1 target vector matching the policy head layout."""
    n = decision.shape[0]
    mat = np.zeros((n, n_mecs + 1))
    mat[np.arange(n), decision] = 1.0
    return mat.ravel()


def policy_loss(net: Network, states: np.ndarray, targets: np.ndarray,
                lam: float) -> float:
    loss, _ = policy_loss_grads(net, states, targets, lam, want_grads=False)
    return loss


def policy_loss_grads(net: Network, states: np.ndarray, targets: np.ndarray,
                      lam: float, want_grads: bool = True) -> tuple[float, Gradients | None]:
    """Batch sigmoid cross-entropy with L2 regularisation, plus gradients.

    Outputs are clamped to [1e-12, 1 - 1e-12] before the logs; a clamped
    entry contributes zero gradient, matching the subgradient of the clamp.
    """
    x = np.atleast_2d(states)
    t = np.atleast_2d(targets)
    y, cache = net.forward_cached(x)
    b = x.shape[0]
    yc = np.clip(y, _CLAMP, 1.0 - _CLAMP)
    ce = -(t * np.log(yc) + (1.0 - t) * np.log(1.0 - yc)).sum() / b
    loss = float(ce + 0.5 * lam * net.l2_norm_sq())
    if not want_grads:
        return loss, None
    grad_y = -(t / yc - (1.0 - t) / (1.0 - yc)) / b
    grad_y[(y != yc)] = 0.0
    grads = net.backward(cache, grad_y)
    if lam != 0.0:
        grads = [(dw + lam * w, db + lam * bb)
                 for (dw, db), w, bb in zip(grads, net.weights, net.biases)]
    return loss, grads


def train_step(policy: Network, adam: Adam, buffer: ReplayBuffer, batch: int,
               lam: float, rng: np.random.Generator, encoder=None,
               prev_loss: float | None = None) -> tuple[float, float, float]:
    """One replayed imitation step.

    Returns (loss, delta_loss, theta_norm_sq): the batch loss before the
    update, its improvement over the previous training event (0 at the first
    event), and the post-update squared parameter norm.  Priorities of the
    sampled transitions are refreshed from the improvement.
    """
    picked, idx = buffer.sample(batch, rng, encoder=encoder)
    states = np.stack([t.state for t in picked])
    n_mecs = encoder.n_mecs if encoder is not None else None
    targets = np.stack([one_hot_target(t.best_action,
                                       _infer_m(t, n_mecs)) for t in picked])
    loss, grads = policy_loss_grads(policy, states, targets, lam)
    if not np.isfinite(loss):
        raise RuntimeError("policy loss diverged to a non-finite value")
    adam.step(grads)  # type: ignore[arg-type]
    delta_loss = 0.0 if prev_loss is None else prev_loss - loss
    theta_sq = policy.l2_norm_sq()
    buffer.update_stats(idx, delta_loss, theta_sq)
    return loss, delta_loss, theta_sq


def _infer_m(transition: Transition, n_mecs: int | None) -> int:
    if n_mecs is not None:
        return n_mecs
    # raw holds N*M entries and best_action N entries
    return transition.raw.size // transition.best_action.size


def run(scenario: Scenario, compressor: ChannelCompressor, cfg: AgentConfig,
        asa_cfg: AnnealConfig, replay_cfg: ReplayConfig, seeds: SeedBundle,
        policy: Network | None = None, sae_rng: np.random.Generator | None = None,
        out_dir: str | Path | None = None) -> RunResult:
    """Main online loop; see the module docstring.

    ``sae_rng`` continues the stream used for pretraining so incremental
    refreshes stay deterministic; it defaults to a fresh stream from the
    bundle's sae seed.
    """
    n, m = scenario.n_ues, scenario.n_mecs
    if compressor.n_ues != n or compressor.n_mecs != m:
        raise ValueError("compressor shape does not match the scenario")
    if policy is None:
        policy = build_policy(compressor.out_dim, n, m, cfg,
                              np.random.default_rng(seeds.policy))
    if policy.in_dim != compressor.out_dim or policy.out_dim != n * (m + 1):
        raise ValueError("policy dimensions do not match compressor/scenario")
    adam = Adam(policy, lr=cfg.lr)
    uniform = cfg.replay_mode == "uniform"
    buffer_cfg = replay_cfg if not uniform else ReplayConfig(
        capacity=replay_cfg.capacity, rho_max=replay_cfg.rho_max,
        tau=0.0, eps=replay_cfg.eps)
    buffer = ReplayBuffer(buffer_cfg, preserve=not uniform)
    rng_asa = np.random.default_rng(seeds.asa)
    rng_replay = np.random.default_rng(seeds.replay)
    rng_shift = np.random.default_rng(seeds.shift)
    rng_explore = np.random.default_rng(seeds.explore)
    sae_rng = sae_rng or np.random.default_rng(seeds.sae)
    budget = BudgetState(asa_cfg.t_sa_init)
    prev_loss: float | None = None
    theta_sq_now = policy.l2_norm_sq()  # parameters change only in train_step
    active = scenario
    logs: list[EpochLog] = []
    ckpt_dir = None
    if out_dir is not None and cfg.checkpoint_interval > 0:
        ckpt_dir = Path(out_dir) / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)

    for t in range(1, cfg.t_drl + 1):
        if cfg.weight_shift_epoch is not None and t == cfg.weight_shift_epoch:
            active = reweighted(scenario, rng_shift, cfg.shift_weight_low,
                                cfg.shift_weight_high)
        channel = sample_channel_state(active, t, seeds.channel)
        compressor.observe_and_admit(channel)
        if not compressor.primed:
            # not pretrained: publish the first observed bounds so encoding
            # can start, then leave snapshots to the periodic refresh
            compressor.sync()

        tic = time.perf_counter()
        state = compressor.encode_channel(channel)
        decision = decide(policy, state.vector, n, m)
        if cfg.epsilon_greedy > 0.0 and rng_explore.random() < cfg.epsilon_greedy:
            decision = OffloadDecision(
                assign=rng_explore.integers(0, m + 1, size=n), n_mecs=m)
        ev = Evaluator(active, channel)
        online_latency = ev.latency_of(decision.assign)
        decision_ms = (time.perf_counter() - tic) * 1e3

        used_budget = budget.budget
        tic = time.perf_counter()
        if cfg.search == "asa":
            result: SearchResult = _anneal_search(decision, active, channel,
                                                  asa_cfg, budget, rng_asa,
                                                  evaluator=ev)
        else:
            result = _random_search(decision, active, channel, used_budget,
                                    rng_asa, evaluator=ev)
        asa_ms = (time.perf_counter() - tic) * 1e3

        buffer.append(Transition(raw=channel.gains.ravel().copy(),
                                 state=np.asarray(state.vector, dtype=float),
                                 best_action=result.decision.assign.copy(),
                                 theta_norm_sq=theta_sq_now,
                                 collect_epoch=t,
                                 encoder_version=compressor.version),
                      theta_norm_now=theta_sq_now)

        loss = delta_loss = None
        if t % cfg.train_interval == 0 and len(buffer) > 0:
            loss, delta_loss, theta_sq_now = train_step(
                policy, adam, buffer, cfg.batch, cfg.lambda_reg, rng_replay,
                encoder=compressor, prev_loss=prev_loss)
            prev_loss = loss
            budget = adapt_budget(budget, delta_loss, asa_cfg)

        if (compressor.net is not None and compressor.cfg.sync_period > 0
                and t % compressor.cfg.sync_period == 0):
            compressor.refresh(sae_rng)
            compressor.sync()

        st = buffer.stats()
        logs.append(EpochLog(epoch=t, reward=1.0 / online_latency,
                             latency=online_latency, loss=loss,
                             delta_loss=delta_loss, t_sa=used_budget,
                             asa_best_objective=result.objective,
                             buffer_size=st["size"],
                             mean_priority=st["mean_priority"],
                             evictions=st["evictions"],
                             preserve_hits=st["preserve_hits"],
                             decision_ms=decision_ms, asa_ms=asa_ms,
                             decision=decision.assign.copy()))
        if ckpt_dir is not None and t % cfg.checkpoint_interval == 0:
            save_checkpoint(policy, ckpt_dir / f"policy_{t:06d}.json",
                            seed=seeds.master, epoch=t)

    return RunResult(policy=policy, logs=logs, scenario_final=active,
                     shift_epoch=cfg.weight_shift_epoch)


_EPOCH_COLUMNS = ("epoch", "reward", "latency", "loss", "delta_loss", "t_sa",
                  "asa_best_objective", "buffer_size", "mean_priority",
                  "evictions", "preserve_hits")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_epoch_csv(logs: list[EpochLog], path: str | Path) -> None:
    """Deterministic per-epoch trace; byte-identical across identical runs.

    Wall-clock timings are deliberately excluded (they vary run to run) and
    go to the companion timings file instead.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_EPOCH_COLUMNS)
        for row in logs:
            writer.writerow([_fmt(getattr(row, col)) for col in _EPOCH_COLUMNS])


def write_timings_csv(logs: list[EpochLog], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epoch", "decision_ms", "asa_ms"))
        for row in logs:
            writer.writerow([row.epoch, _fmt(row.decision_ms), _fmt(row.asa_ms)])

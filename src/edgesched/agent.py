"""Online scheduling agent: policy network, imitation training, main loop.

Per epoch the agent hands the fresh channel to the compressor, which primes
and refreshes itself, encodes it, reads a placement off the policy network,
then lets the annealing search improve that placement under the current
iteration budget.  The searched placement becomes the training label; every
``phi`` epochs the policy takes one Adam step of sigmoid cross-entropy
towards a replayed batch of such labels.  The loop is deterministic given a
master seed: every stochastic component (the channel, the autoencoder, the
policy's initial weights, the search, replay sampling and the workload
shift) draws from its own generator, seeded from ``SeedBundle``, so a change
to how many draws one takes moves no other.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .annealing import AnnealConfig, BudgetState, adapt_budget
from .annealing import search as _anneal_search
from .autoencoder import ChannelCompressor
from .mec import (OffloadDecision, Scenario, integer_at_least,
                  non_negative_finite, positive_finite, reweighted,
                  sample_channel_state)
from .neural import Adam, Gradients, Network, mlp_specs, write_csv
from .replay import ReplayBuffer, ReplayConfig

_CLAMP = 1e-12
# the replayed transitions of one training step
BATCH = 64


@dataclass(frozen=True)
class SeedBundle:
    """Independent per-component seeds fanned out from one master seed.

    The seeds are the first six and the eighth of eight values drawn from
    the master's ``SeedSequence``.  The seventh is skipped rather than
    dropped, so every seed, and with it every artifact of a given master
    seed, keeps its value.
    """

    master: int
    channel: int
    sae: int
    policy: int
    asa: int
    replay: int
    shift: int
    bench: int

    @classmethod
    def from_master(cls, master: int) -> "SeedBundle":
        state = np.random.SeedSequence(master).generate_state(8, dtype=np.uint64)
        vals = [int(v) for v in state]
        return cls(master, *vals[:6], vals[7])


@dataclass
class AgentConfig:
    """Policy architecture and training-loop knobs.

    ``hidden`` lists the widths of the relu layers between the encoded
    state and the N * (M + 1) head, which the compressor and the scenario
    fix; it may be empty.  The policy trains every ``phi`` epochs, on
    ``BATCH`` replayed transitions.
    """

    hidden: list[int] = field(default_factory=lambda: [120, 80])
    lambda_reg: float = 0.02
    t_drl: int = 3000
    phi: int = 10
    lr: float = 1e-3
    weight_shift_epoch: int | None = None

    def __post_init__(self) -> None:
        for key in ("t_drl", "phi"):
            integer_at_least(key, getattr(self, key), 1)
        for i, width in enumerate(self.hidden):
            integer_at_least(f"hidden[{i}]", width, 1)
        positive_finite("lr", self.lr)
        non_negative_finite("lambda_reg", self.lambda_reg)
        shift = self.weight_shift_epoch
        if shift is not None:
            integer_at_least("weight_shift_epoch", shift, 1)
            if shift > self.t_drl:
                raise ValueError(f"weight_shift_epoch {shift} must lie in "
                                 f"1..t_drl = 1..{self.t_drl}")


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
    decision_ms: float
    asa_ms: float
    decision: np.ndarray
    # replay eviction is FIFO (see replay), so the count of evictions that
    # spared the oldest sample is always 0; the epochs.csv column stays
    preserve_hits: int = 0


@dataclass
class RunResult:
    policy: Network
    logs: list[EpochLog]
    scenario_final: Scenario
    shift_epoch: int | None


def build_policy(state_dim: int, n_ues: int, n_mecs: int, cfg: AgentConfig,
                 rng: np.random.Generator) -> Network:
    """Fresh policy MLP: encoded state in, relu hidden layers, one sigmoid
    score per placement out."""
    dims = [state_dim, *cfg.hidden, n_ues * (n_mecs + 1)]
    return Network(mlp_specs(dims, hidden="relu", output="sigmoid"), rng=rng)


def decide(policy: Network, state: np.ndarray, n_ues: int,
           n_mecs: int) -> OffloadDecision:
    """Feasible placement from the policy head.

    The output reshapes to one row per UE with M+1 placement scores; the
    row-wise argmax picks the placement, ties resolving to the lowest index
    (local first).  Feasibility never depends on the parameter values.
    """
    if policy.out_dim != n_ues * (n_mecs + 1):
        raise ValueError("policy head does not match N * (M + 1)")
    scores = policy.forward(state).reshape(n_ues, n_mecs + 1)
    return OffloadDecision(assign=scores.argmax(axis=1), n_mecs=n_mecs)


def one_hot_target(decision: np.ndarray, n_mecs: int) -> np.ndarray:
    """0/1 policy-head target of a placement vector, or one per row of a stack."""
    decision = np.asarray(decision)
    return np.eye(n_mecs + 1)[decision].reshape(*decision.shape[:-1], -1)


def policy_loss_grads(net: Network, states: np.ndarray, targets: np.ndarray,
                      lam: float) -> tuple[float, Gradients]:
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
    grad_y = -(t / yc - (1.0 - t) / (1.0 - yc)) / b
    grad_y[(y != yc)] = 0.0
    return net.add_l2(lam, float(ce), net.backward(cache, grad_y))


def train_step(policy: Network, adam: Adam, buffer: ReplayBuffer, batch: int,
               lam: float, rng: np.random.Generator, encoder: ChannelCompressor,
               prev_loss: float | None = None) -> tuple[float, float]:
    """One replayed imitation step; returns (loss, delta_loss), the batch
    loss before the update and its improvement over the previous training
    event (0 at the first).  The sampled raw channels are encoded in one
    ``encoder.encode_raw`` call against its current snapshot, and the
    improvement refreshes their priorities."""
    raw, actions, idx = buffer.sample(batch, rng)
    states = encoder.encode_raw(raw)
    # the policy head holds M+1 scores per UE
    targets = one_hot_target(actions, policy.out_dim // actions.shape[1] - 1)
    loss, grads = policy_loss_grads(policy, states, targets, lam)
    if not np.isfinite(loss):
        raise RuntimeError("policy loss diverged to a non-finite value")
    adam.step(grads)
    delta_loss = 0.0 if prev_loss is None else prev_loss - loss
    buffer.update_stats(idx, delta_loss)
    return loss, delta_loss


def run(scenario: Scenario, compressor: ChannelCompressor, cfg: AgentConfig,
        asa_cfg: AnnealConfig, replay_cfg: ReplayConfig, seeds: SeedBundle,
        sae_rng: np.random.Generator | None = None) -> RunResult:
    """Main online loop; see the module docstring.  ``sae_rng`` continues
    the pretraining stream, so the compressor's refreshes stay
    deterministic; it defaults to a fresh stream from ``seeds.sae``."""
    n, m = scenario.n_ues, scenario.n_mecs
    if compressor.n_ues != n or compressor.n_mecs != m:
        raise ValueError("compressor shape does not match the scenario")
    policy = build_policy(compressor.out_dim, n, m, cfg,
                          np.random.default_rng(seeds.policy))
    adam = Adam(policy, lr=cfg.lr)
    buffer = ReplayBuffer(replay_cfg)
    rng_asa = np.random.default_rng(seeds.asa)
    rng_replay = np.random.default_rng(seeds.replay)
    rng_shift = np.random.default_rng(seeds.shift)
    sae_rng = sae_rng or np.random.default_rng(seeds.sae)
    budget = BudgetState(asa_cfg.t_sa_init)
    prev_loss: float | None = None
    active = scenario
    logs: list[EpochLog] = []

    for t in range(1, cfg.t_drl + 1):
        if cfg.weight_shift_epoch is not None and t == cfg.weight_shift_epoch:
            active = reweighted(scenario, rng_shift)
        channel = sample_channel_state(active, t, seeds.channel)
        compressor.observe_and_admit(channel)

        tic = time.perf_counter()
        state = compressor.encode_channel(channel)
        decision = decide(policy, state.vector, n, m)
        decision_ms = (time.perf_counter() - tic) * 1e3

        used_budget = budget.budget
        tic = time.perf_counter()
        result = _anneal_search(decision, active, channel, asa_cfg, budget,
                                rng_asa)
        asa_ms = (time.perf_counter() - tic) * 1e3
        # the search scores its start, the decision, first
        online_latency = result.improvements[0][1]

        buffer.append(channel.gains.ravel(), result.decision.assign)

        loss = delta_loss = None
        if t % cfg.phi == 0:
            loss, delta_loss = train_step(
                policy, adam, buffer, BATCH, cfg.lambda_reg, rng_replay,
                encoder=compressor, prev_loss=prev_loss)
            prev_loss = loss
            budget = adapt_budget(budget, delta_loss)

        compressor.after_epoch(t, sae_rng)

        st = buffer.stats()
        logs.append(EpochLog(epoch=t, reward=1.0 / online_latency,
                             latency=online_latency, loss=loss,
                             delta_loss=delta_loss, t_sa=used_budget,
                             asa_best_objective=result.objective,
                             buffer_size=st["size"],
                             mean_priority=st["mean_priority"],
                             evictions=st["evictions"],
                             decision_ms=decision_ms, asa_ms=asa_ms,
                             decision=decision.assign.copy()))

    return RunResult(policy=policy, logs=logs, scenario_final=active,
                     shift_epoch=cfg.weight_shift_epoch)


_EPOCH_COLUMNS = ("epoch", "reward", "latency", "loss", "delta_loss", "t_sa",
                  "asa_best_objective", "buffer_size", "mean_priority",
                  "evictions", "preserve_hits")


def write_epoch_csv(logs: list[EpochLog], path: str | Path) -> None:
    """Deterministic per-epoch trace; byte-identical across identical runs.

    Wall-clock timings are deliberately excluded (they vary run to run) and
    go to the companion timings file instead.
    """
    write_csv(path, _EPOCH_COLUMNS,
              ([getattr(row, col) for col in _EPOCH_COLUMNS] for row in logs))


def write_timings_csv(logs: list[EpochLog], path: str | Path) -> None:
    write_csv(path, ("epoch", "decision_ms", "asa_ms"),
              ([row.epoch, row.decision_ms, row.asa_ms] for row in logs))

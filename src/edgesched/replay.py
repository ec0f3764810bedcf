"""Experience replay with parameter-aware eviction and prioritised sampling.

A transition holds only what was observed: the raw channel gains, the
search's placement label, the policy's squared parameter norm and the epoch
at collection.  No encoded state is stored; the trainer encodes each sampled
batch on read, in one call against the current encoder snapshot.

The buffer owns the numbers it ranks by: norms and priorities sit in arrays
in store order and shift with their transitions on eviction.  The ratio of
the current norm to a sample's stamp measures how far the policy has drifted
since; eviction removes the oldest sample whose ratio left the band
(1/rho_max, rho_max), and falls back to plain FIFO when none has.  A new
sample enters at the highest stored priority, a trained one takes its
batch's loss improvement plus eps, and sampling weights are priorities
raised to the power tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ReplayConfig:
    capacity: int = 1024
    rho_max: float = 1.2
    tau: float = 0.6
    eps: float = 1e-3

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if self.rho_max <= 1.0:
            raise ValueError("rho_max must exceed 1")
        if self.tau < 0 or self.eps <= 0:
            raise ValueError("tau must be >= 0 and eps > 0")


@dataclass(frozen=True)
class Transition:
    """One scheduling experience: channel observation and its search label."""

    raw: np.ndarray            # flat, unnormalised gain vector
    best_action: np.ndarray    # placement vector found by the search
    theta_norm_sq: float       # policy ||theta||^2 when collected
    collect_epoch: int


def dissimilarity(theta_now_sq: float, theta_then_sq: float) -> float:
    """Parameter drift ratio between now and a sample's collection time."""
    if theta_then_sq <= 0 or theta_now_sq <= 0:
        raise ValueError("parameter norms must be positive")
    return theta_now_sq / theta_then_sq


class ReplayBuffer:
    """Bounded transition store; see the module docstring for the policy."""

    def __init__(self, cfg: ReplayConfig, preserve: bool = True):
        self.cfg = cfg
        self.preserve = preserve
        self._store: list[Transition] = []
        # theta_norm_sq and priority of each stored transition, in store order
        self._norms = np.empty(cfg.capacity)
        self._priorities = np.empty(cfg.capacity)
        self.evictions = 0
        self.preserve_hits = 0

    def __len__(self) -> int:
        return len(self._store)

    def reusable(self, rho):
        """Strict band test: 1/rho_max < rho < rho_max, elementwise on arrays."""
        return (1.0 / self.cfg.rho_max < rho) & (rho < self.cfg.rho_max)

    def append(self, transition: Transition, theta_norm_now: float) -> None:
        """Insert a transition, evicting per the preserve policy when full.

        The new sample enters at the maximum current priority so it is seen
        at least as eagerly as anything already stored.
        """
        size = len(self._store)
        priority = self._priorities[:size].max() if size else 1.0
        if size >= self.cfg.capacity:
            victim = self._victim(theta_norm_now) if self.preserve else 0
            if victim != 0:
                self.preserve_hits += 1
            self._store.pop(victim)
            for col in (self._norms, self._priorities):
                col[victim:size - 1] = col[victim + 1:size]
            self.evictions += 1
            size -= 1
        self._store.append(transition)
        self._norms[size] = transition.theta_norm_sq
        self._priorities[size] = priority

    def _victim(self, theta_norm_now: float) -> int:
        """Oldest sample outside the reuse band, else 0 (plain FIFO).

        Equivalent to scanning the store in order with ``dissimilarity`` and
        ``reusable``, including the ValueError for a non-positive norm met
        before the victim.
        """
        norms = self._norms[:len(self._store)]
        with np.errstate(divide="ignore", invalid="ignore"):
            rho = theta_norm_now / norms
        drifted = (norms <= 0) | (theta_norm_now <= 0) | ~self.reusable(rho)
        if not drifted.any():
            return 0
        victim = int(np.argmax(drifted))
        dissimilarity(theta_norm_now, float(norms[victim]))  # raises if <= 0
        return victim

    def sample_probs(self) -> np.ndarray:
        weights = self._priorities[:len(self._store)] ** self.cfg.tau
        return weights / weights.sum()

    def sample(self, batch: int,
               rng: np.random.Generator) -> tuple[list[Transition], np.ndarray]:
        """Draw ``batch`` transitions with replacement by priority."""
        if not self._store:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.choice(len(self._store), size=batch, replace=True,
                         p=self.sample_probs())
        return [self._store[i] for i in idx], idx

    def update_stats(self, indices: np.ndarray, delta_loss: float) -> None:
        """Refresh priorities of just-trained samples from the loss change."""
        self._priorities[indices] = abs(delta_loss) + self.cfg.eps

    def stats(self) -> dict:
        pri = self._priorities[:len(self._store)]
        return {
            "size": pri.size,
            "mean_priority": float(np.mean(pri)) if pri.size else 0.0,
            "evictions": self.evictions,
            "preserve_hits": self.preserve_hits,
        }

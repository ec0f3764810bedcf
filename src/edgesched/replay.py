"""Experience replay: a FIFO store with prioritised sampling.

A transition holds only what was observed: the raw channel gains and the
search's placement label.  The buffer copies both into two preallocated ring
arrays, and a sampled batch is one index into each.  No encoded state is
stored; the trainer encodes each sampled batch on read, in one call against
the current encoder snapshot.

The buffer owns its priorities: they sit in an array in store order and
shift when the oldest transition is evicted.  A new sample enters at the
highest stored priority, a trained one takes its batch's loss improvement
plus ``EPS``, and sampling weights are priorities raised to the power tau, so
``tau = 0`` is uniform replay.

The paper's preserved replay (2p-ER) evicts the oldest sample whose
collection-time parameter norm lies outside a band around the current one,
and keeps fresher samples.  Here that rule is FIFO.  Across the buffer
window the policy's squared norm only shrinks, apart from upticks far
smaller than the band: the ratio now/then stayed in [0.44, 1.0003] on every
eviction of the shipped configurations, against a band of (1/1.2, 1.2).  So
the samples outside the band form a prefix of the store, or there are none
and the rule falls back to FIFO; either way the victim is index 0.  The band
test and the norms it needed are therefore gone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mec import non_negative_finite

# added to a trained sample's loss improvement, so no priority is 0
EPS = 1e-3
# transitions the buffer holds before it evicts
CAPACITY = 1024


@dataclass(frozen=True)
class ReplayConfig:
    tau: float = 0.6

    def __post_init__(self) -> None:
        non_negative_finite("tau", self.tau)


@dataclass(frozen=True)
class Transition:
    """Scheduling experience: channel observation and its search label.

    ``ReplayBuffer.append`` takes one; ``ReplayBuffer.sample`` returns a
    batch as one, its fields stacked along a leading axis.
    """

    raw: np.ndarray            # flat, unnormalised gain vector
    best_action: np.ndarray    # placement vector found by the search


class ReplayBuffer:
    """Bounded transition store; see the module docstring for the policy.

    Raw channels and labels sit in two ring arrays of ``CAPACITY`` rows,
    allocated at the first append: store index k, 0 the oldest, lives in
    row ``(head + k) % capacity``, so an eviction only moves ``head``.
    """

    def __init__(self, cfg: ReplayConfig):
        self.cfg = cfg
        self.capacity = CAPACITY
        self._raw: np.ndarray | None = None
        self._labels: np.ndarray | None = None
        self._head = 0
        self._size = 0
        # priority of each stored transition, in store order
        self._priorities = np.empty(self.capacity)
        self.evictions = 0

    def __len__(self) -> int:
        return self._size

    def append(self, transition: Transition) -> None:
        """Copy a transition in, evicting the oldest one when full.

        The new sample enters at the maximum current priority so it is seen
        at least as eagerly as anything already stored.
        """
        cap, size = self.capacity, self._size
        if self._raw is None:
            raw = np.asarray(transition.raw)
            label = np.asarray(transition.best_action)
            self._raw = np.empty((cap, *raw.shape), raw.dtype)
            self._labels = np.empty((cap, *label.shape), label.dtype)
        priority = self._priorities[:size].max() if size else 1.0
        if size == cap:
            self._priorities[:size - 1] = self._priorities[1:size]
            self._head = (self._head + 1) % cap
            self.evictions += 1
            size -= 1
        slot = (self._head + size) % cap
        self._raw[slot] = transition.raw
        self._labels[slot] = transition.best_action
        self._priorities[size] = priority
        self._size = size + 1

    def _rows(self, idx: np.ndarray) -> np.ndarray:
        """Ring rows of store indices ``idx``."""
        return (self._head + idx) % self.capacity

    def sample_probs(self) -> np.ndarray:
        weights = self._priorities[:self._size] ** self.cfg.tau
        return weights / weights.sum()

    def sample(self, batch: int,
               rng: np.random.Generator) -> tuple[Transition, np.ndarray]:
        """Draw ``batch`` transitions with replacement by priority.

        Returns them as one ``Transition`` of (batch, ...) arrays, with
        their store indices.
        """
        if not self._size:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.choice(self._size, size=batch, replace=True,
                         p=self.sample_probs())
        rows = self._rows(idx)
        return Transition(raw=self._raw[rows],
                          best_action=self._labels[rows]), idx

    def update_stats(self, indices: np.ndarray, delta_loss: float) -> None:
        """Refresh priorities of just-trained samples from the loss change."""
        self._priorities[indices] = abs(delta_loss) + EPS

    def stats(self) -> dict:
        pri = self._priorities[:self._size]
        return {
            "size": pri.size,
            # np.mean's sum and division, without its Python wrappers
            "mean_priority": float(pri.sum() / pri.size) if pri.size else 0.0,
            "evictions": self.evictions,
        }

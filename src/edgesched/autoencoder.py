"""Channel-state compression with a stacked autoencoder.

The scheduler's policy network takes a low-dimensional encoding of the N x M
channel gain matrix.  Gains span several orders of magnitude, so raster
vectors are log10-transformed and min-max scaled to [0, 1] against running
dataset bounds.  Training minimises a reconstruction loss with two extra
terms: a per-row relative-shape term (each UE row divided by its row maximum,
so the loss also preserves which MEC looks best relative to the others; with
one MEC every shape is 1 and the term is skipped) and an L2 weight penalty.

Every observed channel enters a bounded FIFO memory that training draws
from.  The paper's admission threshold, 0.01 RMSE, lies below what any
compressor reaches on i.i.d. fading (PCA at the same width leaves about
0.05), so every sample passed and the test is gone.

The compressor keeps its own schedule.  Encodings read a snapshot, the
encoder half copied into a network of its own: published at the first
observed channel unless pretraining did, then every ``SYNC_PERIOD`` epochs
after ``REFRESH_ITERS`` training steps on the memory, so online encodings
stay stable between refreshes.  Checkpoints embed the autoencoder in the
network checkpoint layout of ``neural``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .mec import ChannelState, non_negative_finite, positive_finite
from .neural import (Adam, Gradients, Network, checkpoint_dict, mlp_specs,
                     network_from_dict, read_json, write_json)

SAE_FORMAT = "edgesched-sae-v1"

_DIVERGED = "autoencoder loss diverged to a non-finite value"

# Epochs between two online refreshes, and the training steps of one.
SYNC_PERIOD = 200
REFRESH_ITERS = 20


@dataclass
class AutoencoderConfig:
    """Encoder output width plus training and memory knobs.

    ``out_dim`` is the one width setting: the compressor lays the encoder
    out with ``default_dims`` once it knows N and M, and the decoder mirrors
    it.  ``None`` halves the N * M input; an ``out_dim`` of at least N * M
    means no compression at all, an identity map over the normalised raster
    vector.  Zero steps or samples skip that step; zero penalties switch
    the term off.
    """

    out_dim: int | None = None
    gamma1: float = 0.5
    gamma2: float = 0.08
    t_sae: int = 500
    memory: int = 4096
    batch: int = 32
    lr: float = 1e-3
    pretrain_samples: int = 2000

    def __post_init__(self) -> None:
        for key in ("out_dim", "memory", "batch"):
            value = getattr(self, key)
            if value is not None and value < 1:
                raise ValueError(f"{key} must be at least 1, got {value}")
        positive_finite("lr", self.lr)
        for key in ("gamma1", "gamma2", "t_sae", "pretrain_samples"):
            non_negative_finite(key, getattr(self, key))


def default_dims(n_ues: int, n_mecs: int, out_dim: int | None = None) -> list[int]:
    """The encoder layout of a scenario.

    Halves the input by default, with one intermediate layer at the midpoint
    (30 UEs with 2 MECs gives 60-45-30).  When the requested output is not
    smaller than the input, the identity layout is returned.
    """
    in_dim = n_ues * n_mecs
    out = in_dim // 2 if out_dim is None else out_dim
    if out >= in_dim or in_dim == 1:
        return [in_dim]
    mid = (in_dim + out + 1) // 2
    if mid in (in_dim, out):
        return [in_dim, out]
    return [in_dim, mid, out]


@dataclass(frozen=True)
class EncodedState:
    """Compressed channel observation handed to the policy.

    It wraps one vector; it stays while the benchmark reads ``.vector``.
    """

    vector: np.ndarray


class Rasterizer:
    """Row-major flattening plus log10 min-max normalisation to [0, 1].

    Bounds grow as data is observed; ``transform`` clips, so entries stay in
    [0, 1] even when a later sample exceeds the recorded bounds.
    """

    def __init__(self, lo: float | None = None, hi: float | None = None):
        """Both bounds unset, or both finite with ``lo <= hi``."""
        if (lo is None) != (hi is None):
            raise ValueError(f"raster bounds [{lo}, {hi}] set only one end")
        if lo is not None and not np.isfinite([lo, hi]).all():
            raise ValueError(f"non-finite raster bounds [{lo}, {hi}]")
        if lo is not None and lo > hi:
            raise ValueError(f"raster bounds [{lo}, {hi}] have lo above hi")
        self.lo = lo
        self.hi = hi

    def observe(self, gains: np.ndarray) -> np.ndarray:
        """Widen the bounds to the gains; returns their flattened ``log10``,
        a new array that ``scale`` may normalise in place."""
        flat = np.log10(np.ravel(gains))
        lo, hi = float(flat.min()), float(flat.max())
        self.lo = lo if self.lo is None else min(self.lo, lo)
        self.hi = hi if self.hi is None else max(self.hi, hi)
        return flat

    def transform(self, gains: np.ndarray) -> np.ndarray:
        """The flattened, normalised float gains, as a new array that owns
        its data (``ravel`` after ``log10`` would return a view that keeps
        a temporary alive)."""
        return self.scale(np.log10(np.ravel(gains)))

    def scale(self, flat: np.ndarray) -> np.ndarray:
        """Min-max normalise flattened ``log10`` gains in place; returns them."""
        if self.lo is None:
            raise RuntimeError("no bounds observed yet")
        span = self.hi - self.lo
        if span <= 0:
            return np.full(flat.shape, 0.5)
        flat -= self.lo
        flat /= span
        return flat.clip(0.0, 1.0, out=flat)

    def copy(self) -> "Rasterizer":
        return Rasterizer(self.lo, self.hi)


def _row_shapes(batch: np.ndarray, n_rows: int, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Each UE row divided by its row maximum; also returns the maxima."""
    rows = batch.reshape(batch.shape[0], n_rows, n_cols)
    maxima = rows.max(axis=2, keepdims=True)
    if np.any(maxima <= 0):
        raise ValueError("row maximum must be positive")
    return rows / maxima, maxima


def reconstruction_loss_grads(net: Network, batch: np.ndarray, n_rows: int,
                              n_cols: int, gamma1: float,
                              gamma2: float) -> tuple[float, Gradients]:
    """Loss and analytic parameter gradients for one batch.

    The relative term treats each sample's row maximum as part of the
    computation graph, so its gradient has an extra component at the argmax
    entry of every reconstructed row.
    """
    x = np.atleast_2d(np.asarray(batch, dtype=float))
    b, d = x.shape
    if d != n_rows * n_cols:
        raise ValueError("batch width does not match n_rows * n_cols")
    y, cache = net.forward_cached(x)

    diff = y - x
    loss = float(np.mean(diff * diff))
    grad_y = 2.0 * diff / diff.size

    # With one server (n_cols == 1) every row's shape is 1 and the term is
    # 0; its input row is 0 where the gain is the smallest observed, and
    # would divide by 0.
    if gamma1 != 0.0 and n_cols > 1:
        u, _ = _row_shapes(x, n_rows, n_cols)
        yr = y.reshape(b, n_rows, n_cols)
        maxima = yr.max(axis=2, keepdims=True)
        if np.any(maxima <= 0):
            # a sigmoid output row underflows to 0 only once training
            # diverged, and its shape term would be 0/0
            raise RuntimeError(_DIVERGED)
        v = yr / maxima
        e = u - v
        loss += float(0.5 * gamma1 * np.sum(e * e) / b)
        # d/dy_j of sum_l e_l^2 / 2: -e_j/m everywhere, plus the row-max
        # entry picking up +(sum_l e_l v_l)/m from the quotient rule.
        g = -e / maxima
        argmax = yr.argmax(axis=2, keepdims=True)
        extra = (e * v).sum(axis=2, keepdims=True) / maxima
        np.put_along_axis(g, argmax, np.take_along_axis(g, argmax, axis=2) + extra,
                          axis=2)
        grad_y = grad_y + gamma1 * g.reshape(b, d) / b

    return net.add_l2(gamma2, loss, net.backward(cache, grad_y))


class ChannelCompressor:
    """Autoencoder, its memory, and the synced online encoder snapshot.

    The training side (net, bounds, memory) advances whenever a channel is
    observed or a refresh runs.  Every encoding, of the live channel
    (``encode_channel``) and of replayed raw channels (``encode_raw``), uses
    the snapshot of encoder half and bounds taken at the last ``sync`` call,
    so one snapshot gives one meaning to every state until the next sync.
    """

    def __init__(self, cfg: AutoencoderConfig, n_ues: int, n_mecs: int,
                 rng: np.random.Generator | None = None,
                 net: Network | None = None):
        """``net`` is a trained autoencoder to adopt; else ``rng`` inits one."""
        self.dims = default_dims(n_ues, n_mecs, cfg.out_dim)
        self.cfg = replace(cfg, out_dim=self.dims[-1])
        self.n_ues = n_ues
        self.n_mecs = n_mecs
        self.raster = Rasterizer()
        self.memory: deque[np.ndarray] = deque(maxlen=cfg.memory)
        full_dims = self.dims + self.dims[-2::-1]
        if net is not None and net.dims != full_dims:
            raise ValueError(f"autoencoder layers {net.dims} do not mirror "
                             f"the encoder dims {self.dims}")
        if len(self.dims) == 1 or net is not None:
            self.net = net
        elif rng is None:
            raise ValueError("need an rng to initialise the autoencoder")
        else:
            self.net = Network(mlp_specs(full_dims, hidden="sigmoid",
                                         output="sigmoid"), rng=rng)
        self.adam = None if self.net is None else Adam(self.net, lr=cfg.lr)
        self._encoder: Network | None = None
        self._online_raster = Rasterizer()
        self.sync()

    # --- dimensions -----------------------------------------------------

    @property
    def in_dim(self) -> int:
        return self.dims[0]

    @property
    def out_dim(self) -> int:
        return self.dims[-1]

    def compression_ratio(self) -> float:
        """Fraction of channel entries the encoder removes: 1 - out/in."""
        return 1.0 - self.out_dim / self.in_dim

    # --- training side --------------------------------------------------

    def observe_and_admit(self, channel: ChannelState) -> bool:
        """Widen the bounds and append the sample to the memory; False if no
        net.  An unprimed compressor then syncs, so encoding can start."""
        logs = self.raster.observe(channel.gains)
        if self.net is not None:
            self.memory.append(self.raster.scale(logs))
        if not self.primed:
            self.sync()
        return self.net is not None

    def pretrain(self, gain_mats: Iterable[np.ndarray],
                 rng: np.random.Generator) -> list[float]:
        """Memorise a dataset and run the configured number of training steps.

        Bounds are settled over the whole dataset before any sample is
        rasterized, so the memory is not polluted by early, badly scaled
        vectors.
        """
        logs = [self.raster.observe(np.asarray(g, dtype=float))
                for g in gain_mats]
        if self.net is not None:
            self.memory.extend(self.raster.scale(x) for x in logs)
        trace = self._train(rng, self.cfg.t_sae)
        self.sync()
        return trace

    def refresh(self, rng: np.random.Generator,
                iters: int = REFRESH_ITERS) -> list[float]:
        """Continue training from the current memory (incremental learning)."""
        return self._train(rng, iters)

    def after_epoch(self, epoch: int, rng: np.random.Generator) -> None:
        """Refresh and sync every ``SYNC_PERIOD`` epochs; never if no net."""
        if self.net is not None and epoch % SYNC_PERIOD == 0:
            self.refresh(rng)
            self.sync()

    def _train(self, rng: np.random.Generator, iters: int) -> list[float]:
        """``iters`` Adam steps on mini-batches drawn from the memory."""
        if self.net is None or iters <= 0 or not self.memory:
            return []
        data = np.stack(self.memory)
        take = min(self.cfg.batch, len(data))
        trace = []
        for _ in range(iters):
            idx = rng.integers(0, len(data), size=take)
            loss, grads = reconstruction_loss_grads(
                self.net, data[idx], self.n_ues, self.n_mecs, self.cfg.gamma1,
                self.cfg.gamma2)
            if not np.isfinite(loss):
                raise RuntimeError(_DIVERGED)
            self.adam.step(grads)
            trace.append(loss)
        return trace

    def accuracy(self, gain_mats: Sequence[np.ndarray]) -> float:
        """1 minus the mean relative entry error on held-out data, in [0, 1].

        Scored with the training-side net; the identity compressor scores 1.
        """
        if self.net is None:
            return 1.0
        x = np.stack([self.raster.transform(g) for g in gain_mats])
        rel = np.abs(x - self.net.forward(x)) / np.maximum(np.abs(x), 1e-9)
        return float(np.clip(1.0 - rel.mean(), 0.0, 1.0))

    # --- online side ----------------------------------------------------

    @property
    def primed(self) -> bool:
        """Whether the online snapshot has normalisation bounds to encode with."""
        return self._online_raster.lo is not None

    def sync(self) -> None:
        """Publish the training-side encoder half and bounds to the encoder."""
        k = len(self.dims) - 1
        # Network copies the parameter arrays it is given
        self._encoder = None if self.net is None else Network(
            self.net.specs[:k], weights=self.net.weights[:k],
            biases=self.net.biases[:k])
        self._online_raster = self.raster.copy()

    def rasterize(self, channel: ChannelState) -> np.ndarray:
        """Normalised flat vector of one channel state (online bounds)."""
        return self._online_raster.transform(channel.gains)

    def encode_raw(self, raw_flat: np.ndarray) -> np.ndarray:
        """Encode raw (unnormalised) flat gain vectors; batch friendly."""
        x = self._online_raster.transform(np.asarray(raw_flat, dtype=float))
        if raw_flat.ndim == 2:
            x = x.reshape(raw_flat.shape)
        return self._encode_normalised(x)

    def encode_channel(self, channel: ChannelState) -> EncodedState:
        vec = self._encode_normalised(self.rasterize(channel))
        return EncodedState(vector=vec)

    def _encode_normalised(self, x: np.ndarray) -> np.ndarray:
        return x if self._encoder is None else self._encoder.forward(x)

    # --- persistence ----------------------------------------------------

    def save(self, path: str | Path, *, seed: int | None = None,
             epoch: int = 0) -> None:
        doc = {
            "format": SAE_FORMAT,
            "n_ues": self.n_ues,
            "n_mecs": self.n_mecs,
            "dims": list(self.dims),
            "lo": self.raster.lo,
            "hi": self.raster.hi,
            "net": None if self.net is None
            else checkpoint_dict(self.net, seed, epoch),
        }
        write_json(path, doc)

    @classmethod
    def load(cls, path: str | Path) -> tuple["ChannelCompressor", dict]:
        """The compressor and its network checkpoint's metadata (seed,
        epoch; empty for the identity compressor).  ``dims`` other than
        ``default_dims``'s layout, parameters that do not fit them or are
        not finite, and bounds ``Rasterizer`` rejects raise a ``ValueError``
        naming ``path``.
        """
        doc = read_json(path, SAE_FORMAT)
        meta = doc["net"] or {}
        net = network_from_dict(meta, path) if meta else None
        try:
            dims = doc["dims"]
            cfg = AutoencoderConfig(out_dim=dims[-1] if dims else None)
            layout = default_dims(doc["n_ues"], doc["n_mecs"], cfg.out_dim)
            if dims != layout:
                raise ValueError(f"encoder dims {dims} are not the layout "
                                 f"{layout} of N = {doc['n_ues']}, "
                                 f"M = {doc['n_mecs']}")
            comp = cls(cfg, doc["n_ues"], doc["n_mecs"], net=net)
            comp.raster = Rasterizer(doc["lo"], doc["hi"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
        comp.sync()
        return comp, meta

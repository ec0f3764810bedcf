"""Minimal dense feedforward networks with hand-written backpropagation.

Everything the package trains (the channel autoencoder and the scheduling
policy) runs through this module: float64 numpy parameters, explicit forward
caches, analytic gradients and Adam steps.  A training step allocates
little: ``backward`` forms each layer's derivative in the array that becomes
its ``dz``, ``add_l2`` adds the penalty into the gradients ``backward``
returned, and ``Adam`` updates its moments and the parameters in place
through two work buffers that every parameter shares within a step.  Each
keeps the operations of the whole-array expressions, in their order, so the
bits are the same.  Checkpoints are canonical JSON so that save -> load ->
save is byte-identical; ``read_json`` checks their format,
``network_from_dict`` is the one reader of their layer list and weights,
which must fit the layers and be finite, and ``write_json`` the one writer,
for networks and autoencoders alike.  Every artifact, CSV traces included,
is replaced in one rename by ``write_atomic``.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

CHECKPOINT_FORMAT = "edgesched-net-v1"

ACTIVATIONS = ("sigmoid", "relu")


@dataclass(frozen=True)
class LayerSpec:
    in_dim: int
    out_dim: int
    activation: str = "sigmoid"

    def __post_init__(self) -> None:
        if self.in_dim <= 0 or self.out_dim <= 0:
            raise ValueError("layer dimensions must be positive")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def mlp_specs(dims: Sequence[int], hidden: str = "sigmoid",
              output: str = "sigmoid") -> tuple[LayerSpec, ...]:
    """Layer specs for a plain MLP given the full list of layer sizes."""
    if len(dims) < 2:
        raise ValueError("need at least an input and an output size")
    acts = [hidden] * (len(dims) - 2) + [output]
    return tuple(LayerSpec(int(a), int(b), act)
                 for a, b, act in zip(dims[:-1], dims[1:], acts))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1+e^-z) for z >= 0 and e^z/(1+e^z) below, so exp never overflows;
    # copysign gives -|z| in one call, and e is reused for 1 + e
    e = np.copysign(z, -1.0)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def _apply(act: str, z: np.ndarray) -> np.ndarray:
    """The activation of ``z``; relu reuses ``z``'s buffer.

    relu overwrites ``z`` in place, which leaves the sign mask
    ``_derivative`` reads from it unchanged.
    """
    if act == "sigmoid":
        return _sigmoid(z)
    return np.maximum(z, 0.0, out=z)


def _derivative(act: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """d(activation)/dz, sigmoid's (1 - a) * a from its output, as a new
    array the caller may overwrite."""
    if act == "sigmoid":
        d = np.subtract(1.0, a)
        d *= a
        return d
    return (z > 0.0).astype(z.dtype)


Gradients = list[tuple[np.ndarray, np.ndarray]]


class Network:
    """Dense MLP with weights of shape (out, in) per layer."""

    def __init__(self, specs: Iterable[LayerSpec],
                 rng: np.random.Generator | None = None,
                 weights: list[np.ndarray] | None = None,
                 biases: list[np.ndarray] | None = None):
        self.specs = tuple(specs)
        for prev, nxt in zip(self.specs[:-1], self.specs[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError("adjacent layer dimensions do not chain")
        if weights is not None or biases is not None:
            self.weights = [np.array(w, dtype=float) for w in weights]
            self.biases = [np.array(b, dtype=float) for b in biases]
            want = [((s.out_dim, s.in_dim), (s.out_dim,)) for s in self.specs]
            got = [(w.shape, b.shape) for w, b in zip(self.weights,
                                                        self.biases)]
            if len(self.weights) != len(self.biases) or got != want:
                raise ValueError(f"weight and bias shapes {got} do not fit "
                                 f"the layers {want}")
        else:
            if rng is None:
                raise ValueError("need an rng to initialise parameters")
            self.weights, self.biases = [], []
            for spec in self.specs:
                # Glorot/Xavier uniform keeps early activations in range
                limit = np.sqrt(6.0 / (spec.in_dim + spec.out_dim))
                self.weights.append(rng.uniform(-limit, limit,
                                                size=(spec.out_dim, spec.in_dim)))
                self.biases.append(np.zeros(spec.out_dim))

    @property
    def in_dim(self) -> int:
        return self.specs[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim

    @property
    def dims(self) -> list[int]:
        """Every layer size, input first."""
        return [self.in_dim] + [s.out_dim for s in self.specs]

    def _layers(self, a: np.ndarray):
        """The one forward kernel: per layer, (input, pre-activation, output).

        ``a`` is a float (B, in_dim) array; a relu layer's pre-activation
        is its output (see ``_apply``).
        """
        for spec, w, b in zip(self.specs, self.weights, self.biases):
            z = a @ w.T
            z += b
            out = _apply(spec.activation, z)
            yield a, z, out
            a = out

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Map a float (B, in_dim) or (in_dim,) array to outputs; no cache.

        A single vector runs as a (1, in_dim) row, as in ``forward_cached``,
        so both give the same bits.
        """
        for _, _, out in self._layers(x[None] if x.ndim == 1 else x):
            pass
        return out[0] if x.ndim == 1 else out

    def forward_cached(self, x: np.ndarray):
        """Forward pass keeping every layer's triple from ``_layers``."""
        cache = list(self._layers(np.atleast_2d(np.asarray(x, dtype=float))))
        return cache[-1][2], cache

    def backward(self, cache, grad_out: np.ndarray) -> Gradients:
        """Backpropagate dLoss/dOutput through the cached forward pass.

        Returns one (dW, db) pair per layer.  The caller owns any batch
        averaging: gradients here are plain sums over the batch rows of
        whatever upstream gradient is passed in.
        """
        grads: Gradients = [None] * len(self.specs)  # type: ignore[list-item]
        delta = np.atleast_2d(np.asarray(grad_out, dtype=float))
        for idx in range(len(self.specs) - 1, -1, -1):
            spec = self.specs[idx]
            a_in, z, a_out = cache[idx]
            dz = _derivative(spec.activation, z, a_out)
            dz *= delta
            grads[idx] = (dz.T @ a_in, dz.sum(axis=0))
            if idx > 0:
                delta = dz @ self.weights[idx]
        return grads

    def l2_norm_sq(self) -> float:
        """Squared L2 norm over all weights and biases."""
        return sum(float((w * w).sum() + (b * b).sum())
                   for w, b in zip(self.weights, self.biases))

    def add_l2(self, lam: float, loss: float,
               grads: Gradients) -> tuple[float, Gradients]:
        """``loss`` plus 0.5*lam*|theta|^2, ``grads`` plus lam*theta.

        The one place either learner regularises its parameters.  lam*theta
        is added into the arrays of ``grads``, the fresh ones ``backward``
        returned, and ``grads`` is returned; ``lam=0`` leaves both unchanged.
        """
        if lam == 0.0:
            return loss, grads
        for (dw, db), w, b in zip(grads, self.weights, self.biases):
            dw += lam * w
            db += lam * b
        return loss + 0.5 * lam * self.l2_norm_sq(), grads

    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


# Adam's moment decay rates and denominator guard, the usual defaults
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam optimiser bound to one network; ``lr`` is its one setting.

    A step updates the moments and the parameters in place.  Its
    temporaries live in two work buffers the size of the largest parameter,
    viewed per parameter, so they cost two parameter arrays, not two per
    parameter.  They are made at each step and freed with it, so between
    steps an optimiser holds only its moments and leaves the heap as
    whole-array updates do; buffers kept for its life made desk-bench's
    peak RSS differ by 4 MB from run to run.
    """

    def __init__(self, net: Network, lr: float = 1e-3):
        self.net = net
        self.lr = lr
        self.t = 0
        self.m = [(np.zeros_like(w), np.zeros_like(b))
                  for w, b in zip(net.weights, net.biases)]
        self.v = [(np.zeros_like(w), np.zeros_like(b))
                  for w, b in zip(net.weights, net.biases)]
        self._work_size = max(p.size for p in (*net.weights, *net.biases))

    def step(self, grads: Gradients) -> None:
        """One update; the bits of ``p -= lr * (m / b1c) / (sqrt(v / b2c)
        + eps)`` with m += (1 - b1) * g and v += (1 - b2) * g * g."""
        self.t += 1
        b1c = 1.0 - _BETA1 ** self.t
        b2c = 1.0 - _BETA2 ** self.t
        params = zip(self.net.weights, self.net.biases)
        work_a, work_c = np.empty(self._work_size), np.empty(self._work_size)
        for layer in zip(params, grads, self.m, self.v):
            for p, g, m, v in zip(*layer):  # weights, then biases
                a = work_a[:p.size].reshape(p.shape)
                c = work_c[:p.size].reshape(p.shape)
                np.multiply(g, 1.0 - _BETA1, out=a)
                m *= _BETA1
                m += a
                np.multiply(g, 1.0 - _BETA2, out=a)
                a *= g
                v *= _BETA2
                v += a
                np.divide(m, b1c, out=a)
                a *= self.lr
                np.divide(v, b2c, out=c)
                np.sqrt(c, out=c)
                c += _EPS
                a /= c
                p -= a


def checkpoint_dict(net: Network, seed: int | None, epoch: int) -> dict:
    return {
        "format": CHECKPOINT_FORMAT,
        "seed": seed,
        "epoch": epoch,
        "layers": [
            {"in": s.in_dim, "out": s.out_dim, "activation": s.activation}
            for s in net.specs
        ],
        "weights": [w.ravel().tolist() for w in net.weights],  # row-major
        "biases": [b.tolist() for b in net.biases],
        "extra": {},
    }


def network_from_dict(doc: dict, path: str | Path) -> Network:
    """Rebuild the network of a ``checkpoint_dict`` document read from ``path``.

    A missing key, a value of the wrong type, an unknown activation, a
    width below 1, and parameters that do not fit the layer list or are not
    finite raise a ``ValueError`` naming ``path``.
    """
    try:
        specs = [LayerSpec(d["in"], d["out"], d["activation"])
                 for d in doc["layers"]]
        net = Network(specs, weights=[np.reshape(w, (s.out_dim, s.in_dim))
                                      for w, s in zip(doc["weights"], specs)],
                      biases=doc["biases"])
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not all(np.isfinite(a).all() for a in (*net.weights, *net.biases)):
        raise ValueError(f"{path}: non-finite parameters")
    return net


def read_json(path: str | Path, fmt: str | None = None) -> dict:
    """The JSON object at ``path``, which must declare format ``fmt`` if
    one is given.  Text that is not JSON and a document that is not an
    object raise a ``ValueError`` naming ``path``."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: holds a JSON {type(doc).__name__}, not "
                         "an object")
    if fmt is not None and doc.get("format") != fmt:
        raise ValueError(f"not a {fmt} file: {path}")
    return doc


def write_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` in one rename.

    The text goes to a temporary file beside the target first, so a writer
    killed mid-write leaves the previous file (or none), never a truncated
    one.  An error names ``path``, not the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != str(tmp):
            raise
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        tmp.unlink(missing_ok=True)


def write_json(path: str | Path, doc: dict) -> None:
    """Write ``doc`` as canonical JSON: sorted keys, one-space indent, atomic.

    Python floats round-trip exactly through repr, so loading a checkpoint
    and saving it again reproduces the file byte for byte.
    """
    write_atomic(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def _cell(value) -> str:
    """A CSV cell: empty for None, ``repr`` for a float (numpy's too, which
    would otherwise print as ``np.float64(...)``), else ``str``."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, header: Sequence,
              rows: Iterable[Sequence]) -> None:
    """Write a CSV table (CRLF line ends) in one rename, see ``write_atomic``.

    Every cell is written by the one rule of ``_cell``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    write_atomic(path, buf.getvalue())


def save_checkpoint(net: Network, path: str | Path, *, seed: int | None = None,
                    epoch: int = 0) -> None:
    """Write the network as a canonical JSON checkpoint (see ``write_json``)."""
    write_json(path, checkpoint_dict(net, seed, epoch))


def load_checkpoint(path: str | Path) -> tuple[Network, dict]:
    """Load a checkpoint; returns the network and the full metadata dict."""
    doc = read_json(path, CHECKPOINT_FORMAT)
    return network_from_dict(doc, path), doc

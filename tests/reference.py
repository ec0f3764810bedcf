"""Reference implementations the tests use as oracles.

``allocate_frequencies_oracle`` re-solves the frequency program that
``edgesched.allocator.allocate_frequencies`` solves in closed form: a
generic SQP solve, polished by projected gradient steps until a KKT
gradient-spread certificate holds.  It shares no algebra with the closed
form beyond the objective, so it is an independent check of it.  It is
deliberately slow and needs scipy, and no run uses it, so it lives beside
the tests that use it as an oracle (``test_allocator.py`` and acceptance
criterion 01) rather than in the package.

``weighted_latency`` is the per-UE latency of a placement under any
frequency and power assignment: a Python loop over the UEs that shares no
code with ``Evaluator``'s gather-and-bincount kernel.  The optimality tests
perturb the closed-form allocation through it, and the tests require
``Evaluator`` (and with it ``evaluate``) to agree with it on the
closed-form allocation.

``allocate_frequencies_loop`` and ``greedy_baseline_loop`` are the plain
per-MEC loops that ``allocate_frequencies`` and ``bench.greedy_baseline``
replace with whole-array steps; they pin the vectorised forms.

``exact_oracle_numpy`` is ``bench.exact_oracle``'s branch-and-bound with
every node's bounds taken in whole-array numpy steps; the package runs the
same search on lists of Python floats, and the tests require the same
placements and latencies from both.

``latencies_per_call`` is ``Evaluator``'s scoring kernel with its index
arrays built on every call, where the package keeps them per scenario in
``Scenario.arrays`` and ``Scenario.batch_rows``; the tests require the
same bits from both.

``mutation_probs`` is the annealing search's keep probability, gene by
gene: the step-by-step chain in ``test_annealing.py`` builds its candidates
with it, and the tests require ``annealing.keep_table`` to hold the same
bits.

``stored`` reads a ``ReplayBuffer``'s ring arrays back in store order,
oldest first, as the list of transitions the ring replaced held them.

``window_rewards`` compares a training run's logged rewards with greedy and
random on the same channel draws; acceptance criterion 08 reads it, and no
run does.

``sigmoid_reference`` and ``forward_reference`` are the forward pass as it
was written before its cheaper calls: the sigmoid's numerator picked by
``np.where`` and each layer's product taken by ``@``.  The tests require
the same bits from ``_sigmoid``, ``forward`` and ``forward_cached``.

``backward_reference``, ``add_l2_reference``, ``adam_step_reference`` and
``reconstruction_loss_grads_reference`` are a training step as whole-array
expressions, each temporary a new array: the code that ``neural`` and
``autoencoder`` replaced with in-place updates, shared work buffers and
argmax-derived row maxima.  ``pretrain_per_sample`` observes and scales one
sample at a time, where ``ChannelCompressor.pretrain`` takes one batch.  The
tests require the same bits from both sides.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import minimize

from edgesched import bench
from edgesched.agent import EpochLog
from edgesched.allocator import Evaluator
from edgesched.bench import greedy_baseline, random_baseline
from edgesched.mec import (ChannelState, OffloadDecision, Scenario, data_rate,
                           local_capacity, sample_channel_state)
from edgesched.neural import _BETA1, _BETA2, _EPS


def _project_simplex(y: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) = total} (sort-based)."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u) - total
    k = np.arange(1, y.size + 1)
    cond = u - css / k > 0
    rho = np.max(np.flatnonzero(cond)) + 1
    theta = css[rho - 1] / rho
    return np.maximum(y - theta, 0.0)


def _kkt_spread(c: np.ndarray, v: np.ndarray) -> float:
    """Relative spread of the objective gradient across coordinates.

    At the optimum of sum(c_i / x_i) on the simplex all partial derivatives
    -c_i/x_i^2 coincide, so this is an optimality certificate that does not
    reuse the closed-form solution.
    """
    grad = -c / (v * v)
    return float((grad.max() - grad.min()) / abs(grad.mean()))


def _polish_split(c: np.ndarray, u: np.ndarray, tol: float,
                  max_iter: int) -> np.ndarray:
    """Projected gradient steps driving the KKT spread below ``tol``.

    Near the optimum the objective flattens below float64 resolution while
    the gradient spread stays well resolved, so the line search accepts a
    step when it lowers either the value or the spread.
    """

    def value(v: np.ndarray) -> float:
        return float(np.sum(c / v))

    step = 1e-2 / float(np.max(c))
    fu = value(u)
    su = _kkt_spread(c, u)
    for _ in range(max_iter):
        if su < tol:
            return u
        grad = -c / (u * u)
        # displacements beyond a few simplex diameters all project to the
        # same boundary point; capping here keeps step * grad finite no
        # matter how often the growth branch fires
        step = min(step, 4.0 / float(np.abs(grad).max()))
        moved = False
        for _ in range(60):
            cand = _project_simplex(u - step * grad, 1.0)
            cand = np.maximum(cand, 1e-15)
            cand /= cand.sum()
            fc = value(cand)
            sc = _kkt_spread(c, cand)
            if fc < fu or sc < su:
                u, fu, su = cand, fc, sc
                step *= 1.3
                moved = True
                break
            step *= 0.5
        if not moved:
            # step underflowed with no progress on either metric: accept if
            # the certificate is nearly met, otherwise report failure
            if su < 10 * tol:
                return u
            raise RuntimeError("frequency oracle stalled before convergence")
    raise RuntimeError("frequency oracle did not converge")


def _numeric_split(c: np.ndarray, total: float, tol: float,
                   max_iter: int) -> np.ndarray:
    """Minimise sum(c_i / x_i) over the simplex {x >= 0, sum(x) = total}.

    A generic SQP solve gets within ~1e-7 of the optimum; projected
    gradient polishing then drives the KKT gradient-spread certificate
    below ``tol``.  Nothing here knows the square-root structure of the
    solution, so this is an independent check of the closed form.
    """
    n = c.size
    if n == 1:
        return np.array([total])
    cs = c / float(c.max())  # condition the objective, work on unit simplex
    with warnings.catch_warnings():
        # the SQP line search may step outside the box before clipping
        warnings.simplefilter("ignore", RuntimeWarning)
        res = minimize(
            lambda x: float(np.sum(cs / x)),
            np.full(n, 1.0 / n),
            jac=lambda x: -cs / (x * x),
            method="SLSQP",
            bounds=[(1e-9, 1.0)] * n,
            constraints=[{"type": "eq", "fun": lambda x: x.sum() - 1.0,
                          "jac": lambda x: np.ones_like(x)}],
            options={"maxiter": 500, "ftol": 1e-16},
        )
    u = np.maximum(res.x, 1e-12)
    u /= u.sum()
    return total * _polish_split(cs, u, tol, max_iter)


def allocate_frequencies_oracle(decision: OffloadDecision, scenario: Scenario,
                                tol: float = 1e-9,
                                max_iter: int = 100_000) -> np.ndarray:
    """Numeric re-solve of the per-MEC frequency split; see module docstring."""
    assign = decision.assign
    freqs = np.zeros(scenario.n_ues)
    for i, ue in enumerate(scenario.ues):
        if assign[i] == 0:
            freqs[i] = local_capacity(ue)
    c = np.array([u.weight * u.task.cycles for u in scenario.ues])
    for j, mec in enumerate(scenario.mecs, start=1):
        members = np.flatnonzero(assign == j)
        if members.size == 0:
            continue
        freqs[members] = _numeric_split(c[members], mec.f_max, tol, max_iter)
    return freqs


def weighted_latency(scenario: Scenario, decision: OffloadDecision,
                     freqs: np.ndarray, powers: np.ndarray,
                     channel: ChannelState) -> float:
    """Total weighted task latency for a placement and a resource assignment.

    Offloaded tasks pay upload time D/r plus remote computation F/f; local
    tasks pay F/f only.  ``freqs`` holds the CPU frequency serving each UE
    (local or remote), ``powers`` the transmit power used for offloading.
    """
    assign = decision.assign
    if assign.shape[0] != scenario.n_ues or decision.n_mecs != scenario.n_mecs:
        raise ValueError("decision does not match scenario shape")
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs <= 0):
        raise ValueError("every active placement needs a positive frequency")
    total = 0.0
    radio = scenario.radio
    for i, ue in enumerate(scenario.ues):
        j = assign[i]
        lat = ue.task.cycles / freqs[i]
        if j > 0:
            rate = data_rate(radio.bandwidth_hz, powers[i],
                             channel.gains[i, j - 1], radio.noise_w)
            lat += ue.task.data_bits / float(rate)
        total += ue.weight * lat
    return float(total)


def allocate_frequencies_loop(decision: OffloadDecision,
                              scenario: Scenario) -> np.ndarray:
    """The closed-form split, one MEC at a time: f_j * s_i / sum of s."""
    assign = decision.assign
    arr = scenario.arrays
    freqs = np.where(assign == 0, arr.local_cap, 0.0)
    for j, f_max in enumerate(arr.f_mec, start=1):
        members = np.flatnonzero(assign == j)
        if members.size:
            s = arr.sqrt_wf[members]
            freqs[members] = f_max * s / s.sum()
    return freqs


def greedy_baseline_loop(scenario: Scenario,
                         channel: ChannelState) -> np.ndarray:
    """Greedy placement, one MEC at a time, one UE moved local per step."""
    arr, radio = scenario.arrays, scenario.radio
    rates = data_rate(radio.bandwidth_hz, arr.p_max[:, None], channel.gains,
                      radio.noise_w)
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
    return assign


def exact_oracle_numpy(ev: Evaluator, incumbent: np.ndarray) -> bench.OracleResult:
    """``bench.exact_oracle`` on numpy arrays; reads ``bench.NODE_LIMIT``."""
    n, m = ev.n, ev.m
    order = np.argsort(-ev.s, kind="stable")
    cost, s = ev.cost[order], ev.s[order]
    inv_f = 1.0 / ev.f_mec
    # undecided UE i joining MEC j at load L costs solo[i, j-1] + 2 s_i L / f_j
    solo = cost[:, 1:] + (s * s)[:, None] * inv_f
    two_s = 2.0 * s[:, None]
    # row j: the loads a child adds by placing the next UE on option j
    step = np.vstack([np.zeros(m), np.eye(m)])
    best = np.asarray(incumbent, dtype=np.int64).copy()
    best_f = ev.latency_of(best)
    path = np.zeros(n, dtype=np.int64)
    nodes, stopped = 0, False

    def relaxation_cut(k: int, loads: np.ndarray, fixed: float,
                       x: np.ndarray) -> bool:
        c, rows = cost[k:], np.arange(n - k)
        base = fixed - loads @ (loads * inv_f)
        grad = c.copy()
        for _ in range(bench._FW_ITERS):
            t = loads + s[k:] @ x[:, 1:]
            tf = t * inv_f
            x_c = np.vdot(c, x)
            value = base + x_c + t @ tf
            if value < best_f:
                return False
            grad[:, 1:] = c[:, 1:] + two_s[k:] * tf
            e = grad.argmin(axis=1)
            g = grad[rows, e].sum()
            gap = x_c + 2.0 * (tf @ (t - loads)) - g
            if value - gap >= best_f:
                return True
            d = -x
            d[rows, e] += 1.0
            d_s = s[k:] @ d[:, 1:]
            curv = d_s @ (d_s * inv_f)
            x += (1.0 if curv <= 0 else min(1.0, gap / (2.0 * curv))) * d
        return False

    def expand(k: int, loads: np.ndarray, fixed: float, x: np.ndarray) -> None:
        nonlocal best, best_f, nodes, stopped
        marg = np.concatenate([cost[k, :1], solo[k] + two_s[k] * (loads * inv_f)])
        child_fixed = fixed + marg
        if k + 1 == n:
            j = int(marg.argmin())
            if child_fixed[j] < best_f:
                path[k] = j
                cand = np.empty(n, dtype=np.int64)
                cand[order] = path
                f = ev.latency_of(cand)
                if f < best_f:
                    best, best_f = cand, f
            return
        child_loads = loads + s[k] * step
        tail = solo[k + 1:] + two_s[None, k + 1:] * (child_loads * inv_f)[:, None]
        bound = child_fixed + np.minimum(cost[k + 1:, 0], tail.min(axis=2)).sum(axis=1)
        for j in np.argsort(marg, kind="stable"):
            if bound[j] >= best_f:
                continue
            if stopped or nodes >= bench.NODE_LIMIT:
                stopped = True
                return
            nodes += 1
            child_x = x[1:].copy()
            if not relaxation_cut(k + 1, child_loads[j], child_fixed[j], child_x):
                path[k] = j
                expand(k + 1, child_loads[j], child_fixed[j], child_x)

    start = np.zeros((n, m + 1))
    start[np.arange(n), np.column_stack([cost[:, 0], solo]).argmin(axis=1)] = 1.0
    expand(0, np.zeros(m), 0.0, start)
    return bench.OracleResult(decision=OffloadDecision(assign=best, n_mecs=m),
                              latency=best_f, nodes=nodes, exact=not stopped)


def stored(buf) -> tuple[np.ndarray, np.ndarray]:
    """Raw channels and labels of ``buf``, oldest first."""
    rows = buf._rows(np.arange(len(buf)))
    return buf._raw[rows], buf._labels[rows]


def mutation_probs(assign: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Keep probability of each gene of ``assign``: 1/(M+1) on the local
    placement, else the serving MEC's share of the gene's channel gains."""
    m = gains.shape[1]
    return np.array([gains[i, a - 1] / gains[i].sum() if a else 1.0 / (m + 1)
                     for i, a in enumerate(assign.tolist())])


def latencies_per_call(ev: Evaluator, assigns: np.ndarray) -> np.ndarray:
    """``ev.latencies(assigns)``, every index array built for this call."""
    assigns = np.ascontiguousarray(assigns)
    b, width = assigns.shape[0], ev.m + 1
    total = ev.cost[np.arange(ev.n), assigns].sum(axis=1)
    bins = (assigns + width * np.arange(b)[:, None]).ravel()
    loads = np.bincount(bins, weights=np.tile(ev.s, b),
                        minlength=b * width).reshape(b, width)[:, 1:]
    return total + (loads * loads / ev.f_mec).sum(axis=1)


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


def sigmoid_reference(z: np.ndarray) -> np.ndarray:
    """``neural._sigmoid`` with its numerator 1 for z >= 0, else
    exp(-|z|), picked by ``np.where``."""
    e = np.copysign(z, -1.0)
    np.exp(e, out=e)
    out = np.where(z >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def forward_reference(net, x: np.ndarray) -> np.ndarray:
    """``net.forward`` of a (B, in_dim) batch with each layer's product
    taken by ``@`` and its sigmoid by ``sigmoid_reference``."""
    a = x
    for spec, w, b in zip(net.specs, net.weights, net.biases):
        z = a @ w.T
        z += b
        a = (sigmoid_reference(z) if spec.activation == "sigmoid"
             else np.maximum(z, 0.0))
    return a


def backward_reference(net, cache, grad_out: np.ndarray) -> list:
    """``net.backward`` with each layer's derivative and ``dz`` new arrays."""
    grads = [None] * len(net.specs)
    delta = np.atleast_2d(np.asarray(grad_out, dtype=float))
    for idx in range(len(net.specs) - 1, -1, -1):
        a_in, z, a_out = cache[idx]
        if net.specs[idx].activation == "sigmoid":
            deriv = a_out * (1.0 - a_out)
        else:
            deriv = (z > 0.0).astype(z.dtype)
        dz = delta * deriv
        grads[idx] = (dz.T @ a_in, dz.sum(axis=0))
        if idx > 0:
            delta = dz @ net.weights[idx]
    return grads


def add_l2_reference(net, lam: float, loss: float, grads: list):
    """``net.add_l2`` returning new gradient arrays."""
    if lam == 0.0:
        return loss, grads
    return (loss + 0.5 * lam * net.l2_norm_sq(),
            [(dw + lam * w, db + lam * b)
             for (dw, db), w, b in zip(grads, net.weights, net.biases)])


def adam_step_reference(adam, grads: list) -> None:
    """``adam.step`` with every temporary of the update a new array."""
    adam.t += 1
    b1c = 1.0 - _BETA1 ** adam.t
    b2c = 1.0 - _BETA2 ** adam.t
    params = zip(adam.net.weights, adam.net.biases)
    for layer in zip(params, grads, adam.m, adam.v):
        for p, g, m, v in zip(*layer):
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            p -= adam.lr * (m / b1c) / (np.sqrt(v / b2c) + _EPS)


def _row_shapes_reference(rows: np.ndarray) -> np.ndarray:
    """(B, N, M) rows over their ``max``; an all-zero row is all ones."""
    maxima = rows.max(axis=2, keepdims=True)
    if np.any(maxima < 0):
        raise ValueError("row maximum must not be negative")
    shapes = rows / np.where(maxima > 0, maxima, 1.0)
    shapes[(maxima == 0)[..., 0]] = 1.0
    return shapes


def reconstruction_loss_grads_reference(net, batch: np.ndarray, n_rows: int,
                                        n_cols: int, gamma1: float,
                                        gamma2: float):
    """``autoencoder.reconstruction_loss_grads`` on (B, N, M) rows, maxima
    by ``max``, the quotient-rule term by ``take_along_axis`` and
    ``put_along_axis``, and the backward pass and penalty above."""
    x = np.atleast_2d(np.asarray(batch, dtype=float))
    b, d = x.shape
    y, cache = net.forward_cached(x)
    diff = y - x
    loss = float(np.mean(diff * diff))
    grad_y = 2.0 * diff / diff.size
    if gamma1 != 0.0 and n_cols > 1:
        u = _row_shapes_reference(x.reshape(b, n_rows, n_cols))
        yr = y.reshape(b, n_rows, n_cols)
        maxima = yr.max(axis=2, keepdims=True)
        v = yr / maxima
        e = u - v
        loss += float(0.5 * gamma1 * np.sum(e * e) / b)
        g = -e / maxima
        argmax = yr.argmax(axis=2, keepdims=True)
        extra = (e * v).sum(axis=2, keepdims=True) / maxima
        np.put_along_axis(g, argmax,
                          np.take_along_axis(g, argmax, axis=2) + extra,
                          axis=2)
        grad_y = grad_y + gamma1 * g.reshape(b, d) / b
    return add_l2_reference(net, gamma2, loss,
                            backward_reference(net, cache, grad_y))


def pretrain_per_sample(comp, gain_mats, rng: np.random.Generator) -> list:
    """``comp.pretrain``, each sample observed and then scaled on its own."""
    logs = [comp.raster.observe(np.asarray(g, dtype=float))
            for g in gain_mats]
    if comp.net is not None:
        comp.memory.extend(comp.raster.scale(x) for x in logs)
    trace = comp._train(rng, comp.cfg.t_sae)
    comp.sync()
    return trace

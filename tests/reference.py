"""Reference implementations the tests use as oracles.

``allocate_frequencies_oracle`` re-solves the frequency program that
``edgesched.allocator.allocate_frequencies`` solves in closed form: a
generic SQP solve, polished by projected gradient steps until a KKT
gradient-spread certificate holds.  It shares no algebra with the closed
form beyond the objective, so it is an independent check of it.  It is
deliberately slow and needs scipy, and no run uses it, so it lives beside
the tests that use it as an oracle (``test_allocator.py`` and acceptance
criterion 01) rather than in the package.

``allocate_frequencies_loop`` and ``greedy_baseline_loop`` are the plain
per-MEC loops that ``allocate_frequencies`` and ``bench.greedy_baseline``
replace with whole-array steps; they pin the vectorised forms.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import minimize

from edgesched.allocator import local_capacity
from edgesched.mec import ChannelState, OffloadDecision, Scenario, data_rate


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

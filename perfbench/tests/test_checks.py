"""Fast tests of the benchmark's own model, checks, clock and spans.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import time
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import refclock
from probes import Patches, Tracer, after_each
from edgesched import (Evaluator, OffloadDecision, allocate_frequencies,
                       evaluate, exhaustive_best, max_power_assignment,
                       sample_channel_state)
from edgesched.config import ScenarioConfig, build_scenario


def instance(n, m, seed, epoch=1):
    scen = build_scenario(ScenarioConfig(n_ues=n, n_mecs=m), fallback_seed=seed)
    return scen, sample_channel_state(scen, epoch, seed)


@pytest.mark.parametrize("n,m,seed", [(10, 2, 1), (6, 3, 4), (30, 5, 2)])
def test_latency_matches_program(n, m, seed):
    scen, ch = instance(n, m, seed)
    prob = checks.problem(scen, ch.gains)
    ev = Evaluator(scen, ch)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        a = rng.integers(0, m + 1, size=n)
        mine = checks.latency(prob, a)
        assert checks.close(mine, ev.latency_of(a))
        # the per-UE reference loop with the closed-form allocation
        assert checks.close(mine, evaluate(OffloadDecision(a, m), scen, ch).latency)


def test_enumeration_is_exact():
    scen, ch = instance(6, 2, 3)
    prob = checks.problem(scen, ch.gains)
    enum = checks.Enumeration(6, 2)
    lat = enum.latencies(prob)
    brute = [checks.latency(prob, a) for a in itertools.product(range(3), repeat=6)]
    assert np.allclose(np.sort(lat), np.sort(brute), rtol=1e-12)
    opt, best = enum.optimum(prob)
    assert checks.close(opt, min(brute))
    _, f = exhaustive_best(scen, ch)
    assert checks.close(opt, f)
    assert checks.close(checks.latency(prob, best), opt)


def test_enumeration_refuses_large_spaces():
    with pytest.raises(ValueError):
        checks.Enumeration(30, 5)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relaxation_bound_is_a_tight_lower_bound(seed):
    scen, ch = instance(8, 2, seed)
    prob = checks.problem(scen, ch.gains)
    opt, _ = checks.Enumeration(8, 2).optimum(prob)
    bound = checks.relaxation_bound(prob)
    assert bound <= opt * (1 + 1e-12)
    assert bound >= 0.98 * opt


def test_schedule_check_accepts_program_schedule_and_rejects_a_bad_split():
    scen, ch = instance(10, 2, 1)
    prob = checks.problem(scen, ch.gains)
    dec = OffloadDecision(np.array([0, 1, 2, 1, 2, 0, 1, 1, 2, 0]), 2)
    freqs = allocate_frequencies(dec, scen)
    powers = max_power_assignment(scen, dec)
    checks.check_schedule(prob, dec.assign, freqs, powers)
    bad = freqs.copy()
    bad[1] *= 1.01
    with pytest.raises(checks.CheckFailed):
        checks.check_schedule(prob, dec.assign, bad, powers)
    slow = freqs.copy()
    slow[0] *= 0.5
    with pytest.raises(checks.CheckFailed):
        checks.check_schedule(prob, dec.assign, slow, powers)


def test_scored_and_floor_checks_raise():
    scen, ch = instance(10, 2, 1)
    prob = checks.problem(scen, ch.gains)
    a = np.ones(10, dtype=int)
    value = checks.check_scored(prob, a, checks.latency(prob, a), "ok")
    with pytest.raises(checks.CheckFailed):
        checks.check_scored(prob, a, value * (1 + 1e-6), "off")
    with pytest.raises(checks.CheckFailed):
        checks.check_not_below(value * 0.99, value, "below")


def test_tracer_self_time_and_patches_restore():
    def inner():
        time.sleep(0.01)

    def outer():
        box.inner()
        time.sleep(0.01)

    box = SimpleNamespace(inner=inner, outer=outer)
    tracer = Tracer()
    seen = []
    p = Patches()
    p.wrap(box, "inner", tracer.span("inner"))
    p.wrap(box, "outer", after_each(lambda out: seen.append(out)))
    p.wrap(box, "outer", tracer.span("outer"))
    box.outer()
    p.restore()
    assert box.inner is inner and box.outer is outer
    s = tracer.summary()
    assert s["outer"]["calls"] == 1 and s["inner"]["calls"] == 1
    assert s["outer"]["total_s"] >= s["inner"]["total_s"] + 0.009
    assert abs(s["outer"]["self_s"] - (s["outer"]["total_s"] - s["inner"]["total_s"])) < 1e-12
    assert tracer.parent == [-1, 0]
    assert seen == [None]


def test_stretch_clock_scales_laps_by_their_stretch():
    clock = refclock.StretchClock()
    clock.start()
    for _ in range(3):
        clock.lap(1e-3)
        time.sleep(refclock.STRETCH_S)
        clock.tick()
    clock.stop()
    # three stretches closed by ticks, a fourth (empty) one by stop
    assert len(clock.ref_samples) == 4
    factors = [refclock.NOMINAL_S / r for r in clock.ref_samples[:3]]
    assert np.allclose(clock.samples, [1e-3 * f for f in factors])
    assert clock.wall_s >= 3 * refclock.STRETCH_S

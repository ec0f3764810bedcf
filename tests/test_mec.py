import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from edgesched import mec
from edgesched.mec import (BENCH_EPOCH_BASE, EPOCH_RANGE_WIDTH,
                           HELDOUT_EPOCH_BASE, PRETRAIN_EPOCH_BASE,
                           ChannelState, MecSpec, OffloadDecision, RadioParams,
                           Scenario, Task, UeSpec, data_rate,
                           default_mec_positions, non_negative_finite,
                           random_scenario, reweighted, sample_channel_gains,
                           sample_channel_state)

from reference import channel_gains_reference, weighted_latency


def make_scenario(n=4, m=2, seed=0, **kw):
    return random_scenario(n, m, rng_seed=seed, **kw)


class TestConstruction:
    def test_task_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Task(data_bits=0.0, cycles=1e9)
        with pytest.raises(ValueError):
            Task(data_bits=1e5, cycles=-1.0)

    @pytest.mark.parametrize("v", [0.0, -1.0])
    def test_ue_rejects_nonpositive_power_exponent(self, v):
        with pytest.raises(ValueError,
                           match="^v must be a positive finite number"):
            UeSpec(position=(0.0, 0.0), task=Task(1e5, 1e9), v=v)

    @pytest.mark.parametrize("build, message", [
        (lambda: Task(data_bits=float("nan"), cycles=1e9),
         "data_bits must be a positive finite number, got nan"),
        (lambda: Task(data_bits=1e5, cycles="1e9"),
         "cycles must be a positive finite number, got '1e9'"),
        (lambda: UeSpec(position=(0.0, 0.0), task=Task(1e5, 1e9),
                        weight=True),
         "weight must be a positive finite number, got True"),
        (lambda: UeSpec(position=(0.0, float("nan")), task=Task(1e5, 1e9)),
         "position must be two finite numbers, got (0.0, nan)"),
        (lambda: MecSpec(position=(1.0, 1.0), f_max=float("inf")),
         "f_max must be a positive finite number, got inf"),
        (lambda: MecSpec(position=(1.0, 1.0, 1.0)),
         "position must be two finite numbers, got (1.0, 1.0, 1.0)"),
        (lambda: RadioParams(noise_w=float("-inf")),
         "noise_w must be a positive finite number, got -inf"),
        (lambda: Scenario(ues=make_scenario().ues, mecs=make_scenario().mecs,
                          area_m=float("nan")),
         "area_m must be a positive finite number, got nan"),
        (lambda: Scenario(ues=make_scenario().ues, mecs=make_scenario().mecs,
                          rng_seed=1.9),
         "rng_seed must be an integer, got 1.9")])
    def test_specs_reject_what_no_model_can_use(self, build, message):
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            build()

    @pytest.mark.parametrize("kw, message", [
        ({"area_m": float("nan")},
         "area_m must be a positive finite number, got nan"),
        ({"area_m": -5.0},
         "area_m must be a positive finite number, got -5.0"),
        ({"weights": (float("nan"), 1.0)},
         "weights.low must be a positive finite number, got nan"),
        ({"cycles": (1e9, float("inf"))},
         "cycles.high must be a positive finite number, got inf"),
        ({"weights": (2.0, 1.0)},
         "weights range (2.0, 1.0) has low above high")])
    def test_random_scenario_checks_before_it_draws(self, kw, message,
                                                    monkeypatch):
        monkeypatch.setattr(mec, "_epoch_rng", lambda *a, **k: pytest.fail(
            "random_scenario drew before checking its arguments"))
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            random_scenario(3, 2, **kw)

    def test_non_negative_twin_takes_zero(self):
        assert non_negative_finite("tau", 0) == 0.0
        for bad in (-1e-9, float("nan"), float("inf"), True, "0"):
            with pytest.raises(ValueError, match="^tau must be a "
                               "non-negative finite number, got "):
                non_negative_finite("tau", bad)

    def test_specs_store_integers_as_floats(self):
        ue = UeSpec(position=(1, 2), task=Task(100_000, 10**9), weight=2)
        assert ue.position == (1.0, 2.0) and ue.weight == 2.0
        values = (*ue.position, ue.weight, ue.task.data_bits, ue.task.cycles)
        assert all(type(v) is float for v in values)
        assert type(RadioParams(bandwidth_hz=10**6).bandwidth_hz) is float

    def test_channel_epoch_ranges_are_disjoint(self):
        bases = [1, BENCH_EPOCH_BASE, PRETRAIN_EPOCH_BASE, HELDOUT_EPOCH_BASE]
        assert [b - a for a, b in zip(bases, bases[1:])] == [
            EPOCH_RANGE_WIDTH] * 3

    def test_position_outside_area_rejected(self):
        ue = UeSpec(position=(60.0, 10.0), task=Task(1e5, 1e9))
        mec = MecSpec(position=(25.0, 25.0))
        with pytest.raises(ValueError, match="outside area"):
            Scenario(ues=(ue,), mecs=(mec,), area_m=50.0)

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError):
            Scenario(ues=(), mecs=(MecSpec(position=(1.0, 1.0)),))

    def test_unknown_fading_rejected(self):
        with pytest.raises(ValueError):
            RadioParams(fading="rician")

    def test_channel_state_rejects_nonpositive_gain(self):
        with pytest.raises(ValueError):
            ChannelState(gains=np.array([[1e-6, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1e-6])
    def test_channel_state_rejects_bad_gain(self, bad):
        for at in ((0, 0), (1, 1), (2, 0)):
            gains = np.full((3, 2), 1e-6)
            gains[at] = bad
            with pytest.raises(ValueError, match="positive and finite"):
                ChannelState(gains=gains)

    def test_channel_state_accepts_no_mecs(self):
        assert ChannelState(gains=np.empty((3, 0))).gains.shape == (3, 0)

    def test_decision_bounds(self):
        with pytest.raises(ValueError):
            OffloadDecision(assign=np.array([0, 3]), n_mecs=2)
        with pytest.raises(ValueError):
            OffloadDecision(assign=np.array([-1, 0]), n_mecs=2)

    @pytest.mark.parametrize("assign, message", [
        ([0, 2, -1], "in {0..M}"),
        ([3, 0, 1], "in {0..M}"),
        ([[0, 1], [2, 0]], "length-N vector"),
        ([0.5, 1.0], "must be integers"),
        ([-2**63], "in {0..M}"),
        ([2**62], "in {0..M}")])
    def test_decision_rejects(self, assign, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            OffloadDecision(assign=np.array(assign), n_mecs=2)

    @pytest.mark.parametrize("assign", [[], [0, 2, 1], [2, 2]])
    def test_decision_accepts(self, assign):
        dec = OffloadDecision(assign=np.array(assign, dtype=int), n_mecs=2)
        assert dec.assign.dtype == np.int64
        np.testing.assert_array_equal(dec.assign, assign)

    @given(st.lists(st.one_of(st.integers(-3, 7),
                              st.integers(-2**63, 2**63 - 1)), max_size=12),
           st.integers(1, 5))
    @example([], 1)
    @example([2**63 - 1], 5)
    @example([0, -1, 5], 5)
    def test_decision_accepts_exactly_zero_to_m(self, assign, m):
        # the uint64 argmax gather against the rule in plain Python
        vec = np.array(assign, dtype=np.int64)
        if all(0 <= v <= m for v in assign):
            dec = OffloadDecision(assign=vec, n_mecs=m)
            assert dec.assign is vec
        else:
            with pytest.raises(ValueError, match=re.escape("in {0..M}")):
                OffloadDecision(assign=vec, n_mecs=m)


class TestGeometry:
    def test_distance(self):
        scen = Scenario(ues=(UeSpec(position=(0.0, 0.0), task=Task(1e5, 1e9)),),
                        mecs=(MecSpec(position=(3.0, 4.0)),))
        assert scen.arrays.distances[0, 0] == 5.0

    def test_distance_matrix_shape_and_values(self):
        scen = make_scenario(3, 2)
        d = scen.arrays.distances
        assert d.shape == (3, 2)
        (ux, uy), (mx, my) = scen.ues[1].position, scen.mecs[0].position
        expect = np.hypot(ux - mx, uy - my)
        assert d[1, 0] == pytest.approx(expect)

    def test_default_layouts_scale_with_area(self):
        base = default_mec_positions(2, 50.0)
        scaled = default_mec_positions(2, 100.0)
        assert scaled == tuple((2 * x, 2 * y) for x, y in base)

    def test_default_layouts_inside_area(self):
        for m in range(1, 9):
            for x, y in default_mec_positions(m, 50.0):
                assert 0.0 <= x <= 50.0 and 0.0 <= y <= 50.0


def on_a_line(offsets, fading="deterministic"):
    """UEs east of one MEC at (25, 25), ``offsets`` metres away."""
    ues = tuple(UeSpec(position=(25.0 + dx, 25.0),
                       task=Task(data_bits=8e5, cycles=1e9)) for dx in offsets)
    return Scenario(ues=ues, mecs=(MecSpec(position=(25.0, 25.0)),),
                    radio=RadioParams(fading=fading))


class TestChannel:
    def test_gain_inverse_square(self):
        # doubling the distance quarters the gain
        scen = on_a_line([10.0, 20.0])
        g1, g2 = sample_channel_state(scen, epoch=1).gains[:, 0]
        assert g1 == pytest.approx(4.0 * g2)
        assert g1 == 1e-3 / 100.0

    def test_gain_distance_clamp(self):
        # below the minimum distance the gain stops growing, also on the MEC
        scen = on_a_line([0.0, 0.01, 1.0])
        gains = sample_channel_state(scen, epoch=1).gains[:, 0]
        assert gains.tolist() == [1e-3] * 3

    def test_fading_unit_mean(self):
        # l = h * max(R, R_min)**2 / beta0, 5000 values per draw
        scen = make_scenario(n=1000, m=5)
        r = np.maximum(scen.arrays.distances, scen.radio.min_distance_m)
        draws = np.stack([sample_channel_state(scen, e).gains * (r * r)
                          / scen.radio.beta0 for e in range(40)])
        assert draws.size == 200_000
        assert draws.mean() == pytest.approx(1.0, abs=5e-3)
        assert np.all(draws > 0)

    def test_fading_deterministic(self):
        # every gain is exactly beta0 / max(d, R_min)**2
        scen = make_scenario(n=16, m=3, radio=RadioParams(
            fading="deterministic", beta0=2e-3, min_distance_m=5.0))
        r = np.maximum(scen.arrays.distances, 5.0)
        for epoch in (1, 2):
            np.testing.assert_array_equal(
                sample_channel_state(scen, epoch).gains, 2e-3 / (r * r))

    def test_sample_is_pure_in_epoch_and_seed(self):
        scen = make_scenario()
        a = sample_channel_state(scen, epoch=7)
        b = sample_channel_state(scen, epoch=7)
        np.testing.assert_array_equal(a.gains, b.gains)
        c = sample_channel_state(scen, epoch=8)
        assert not np.array_equal(a.gains, c.gains)
        d = sample_channel_state(scen, epoch=7, seed=99)
        assert not np.array_equal(a.gains, d.gains)

    def test_sample_independent_of_call_order(self):
        scen = make_scenario()
        forward = [sample_channel_state(scen, e).gains for e in (1, 2, 3)]
        backward = [sample_channel_state(scen, e).gains for e in (3, 2, 1)]
        for f, b in zip(forward, backward[::-1]):
            np.testing.assert_array_equal(f, b)

    @pytest.mark.parametrize("fading", ["exponential", "deterministic"])
    @pytest.mark.parametrize("n, m", [(4, 2), (30, 5)])
    def test_stacked_draws_are_the_single_draws(self, fading, n, m):
        """Each row of a stacked draw is its epoch's single draw, and both
        are ``beta0 * exponential(scale=1.0) / R**2``, bit for bit."""
        radio = RadioParams(fading=fading)
        scen = make_scenario(n, m, seed=3, radio=radio)
        r2 = scen.arrays.clamped_r2
        stack = sample_channel_gains(scen, PRETRAIN_EPOCH_BASE, 50, seed=7)
        assert stack.shape == (50, n, m)
        for k, gains in enumerate(stack):
            epoch = PRETRAIN_EPOCH_BASE + k
            single = sample_channel_state(scen, epoch, seed=7).gains
            if fading == "deterministic":
                l = np.ones(r2.shape)
            else:
                l = mec._epoch_rng(7, epoch).exponential(scale=1.0,
                                                         size=r2.shape)
            want = radio.beta0 * l / r2
            assert gains.tobytes() == single.tobytes() == want.tobytes()
        np.testing.assert_array_equal(sample_channel_gains(scen, 9, 3)[1],
                                      sample_channel_state(scen, 10).gains)
        assert sample_channel_gains(scen, 1, 0).shape == (0, n, m)

    @pytest.mark.parametrize("seed", [None, 11])
    @pytest.mark.parametrize("fading", ["exponential", "deterministic"])
    @pytest.mark.parametrize("n, m", [(10, 2), (30, 5), (6, 1)])
    def test_draws_match_the_per_epoch_reference(self, n, m, fading, seed):
        """``sample_channel_state`` and every row of a stacked draw hold the
        per-epoch draw's bits, at the start of every epoch range."""
        scen = make_scenario(n, m, seed=3, radio=RadioParams(fading=fading))
        for base in (1, BENCH_EPOCH_BASE, PRETRAIN_EPOCH_BASE,
                     HELDOUT_EPOCH_BASE):
            stack = sample_channel_gains(scen, base, 4, seed)
            for k, row in enumerate(stack):
                want = channel_gains_reference(scen, base + k, seed).tobytes()
                single = sample_channel_state(scen, base + k, seed).gains
                assert row.tobytes() == single.tobytes() == want
                # a kept draw holds no view of a one-row stack
                assert single.flags.owndata

    def test_stacked_draws_are_checked(self):
        scen = make_scenario(radio=RadioParams(beta0=5e-324))  # underflows
        for draw in (lambda: sample_channel_state(scen, 1, seed=2),
                     lambda: sample_channel_gains(scen, 1, 5, seed=2)):
            with pytest.raises(ValueError, match="positive and finite"):
                draw()

    def test_deterministic_fading_matches_pathloss(self):
        radio = RadioParams(fading="deterministic")
        scen = make_scenario(radio=radio)
        ch = sample_channel_state(scen, 1)
        d = np.maximum(scen.arrays.distances, radio.min_distance_m)
        np.testing.assert_allclose(ch.gains, radio.beta0 / d ** 2)

    def test_data_rate_formula(self):
        # B log2(1 + p h / sigma^2) with easy numbers: SNR 3 -> 2 bits/s/Hz
        r = data_rate(1e6, 3.0, 1e-10, 1e-10)
        assert r == pytest.approx(2e6)

    def test_data_rate_monotone_in_gain(self):
        gains = np.array([1e-8, 1e-7, 1e-6])
        r = data_rate(1e6, 1.0, gains, 1e-10)
        assert np.all(np.diff(r) > 0)


class TestWeightedLatency:
    def test_hand_computed_local_only(self):
        scen = make_scenario(2, 1)
        ch = sample_channel_state(scen, 1)
        dec = OffloadDecision(assign=np.array([0, 0]), n_mecs=1)
        freqs = np.array([1e9, 2e9])
        lat = weighted_latency(scen, dec, freqs, np.zeros(2), ch)
        expect = sum(u.weight * u.task.cycles / f
                     for u, f in zip(scen.ues, freqs))
        assert lat == pytest.approx(expect)

    def test_hand_computed_offloaded(self):
        scen = make_scenario(1, 1)
        ch = sample_channel_state(scen, 1)
        dec = OffloadDecision(assign=np.array([1]), n_mecs=1)
        freqs = np.array([5e10])
        powers = np.array([scen.ues[0].p_max])
        lat = weighted_latency(scen, dec, freqs, powers, ch)
        ue = scen.ues[0]
        r = data_rate(scen.radio.bandwidth_hz, powers[0], ch.gains[0, 0],
                      scen.radio.noise_w)
        expect = ue.weight * (ue.task.data_bits / r + ue.task.cycles / freqs[0])
        assert lat == pytest.approx(expect)

    def test_rejects_nonpositive_frequency(self):
        scen = make_scenario(2, 1)
        ch = sample_channel_state(scen, 1)
        dec = OffloadDecision(assign=np.array([0, 0]), n_mecs=1)
        with pytest.raises(ValueError):
            weighted_latency(scen, dec, np.array([1e9, 0.0]), np.zeros(2), ch)

    def test_latency_decreases_with_faster_cpu(self):
        scen = make_scenario(3, 2)
        ch = sample_channel_state(scen, 1)
        dec = OffloadDecision(assign=np.array([0, 1, 2]), n_mecs=2)
        powers = np.array([u.p_max for u in scen.ues])
        slow = weighted_latency(scen, dec, np.full(3, 1e9), powers, ch)
        fast = weighted_latency(scen, dec, np.full(3, 2e9), powers, ch)
        assert fast < slow

    def test_shape_mismatch_rejected(self):
        scen = make_scenario(3, 2)
        ch = sample_channel_state(scen, 1)
        dec = OffloadDecision(assign=np.array([0, 0]), n_mecs=2)
        with pytest.raises(ValueError):
            weighted_latency(scen, dec, np.full(2, 1e9), np.zeros(2), ch)


class TestScenarioFactory:
    def test_weight_modes(self):
        scalar = make_scenario(weights=1.5)
        assert all(u.weight == 1.5 for u in scalar.ues)
        explicit = make_scenario(weights=[1.0, 2.0, 3.0, 4.0])
        assert [u.weight for u in explicit.ues] == [1.0, 2.0, 3.0, 4.0]
        ranged = make_scenario(weights=(0.5, 2.0))
        assert all(0.5 <= u.weight <= 2.0 for u in ranged.ues)

    @pytest.mark.parametrize("weights", [np.array([1.0, 3.0]), [1.0, 3.0]],
                             ids=["array", "list"])
    def test_only_a_tuple_is_a_range(self, weights):
        # a two-element array was once drawn from as a (low, high) range
        scen = random_scenario(2, 1, weights=weights)
        assert [u.weight for u in scen.ues] == [1.0, 3.0]

    def test_cycle_modes(self):
        # cycles take what weights take
        scalar = make_scenario(cycles=2e9)
        assert all(u.task.cycles == 2e9 for u in scalar.ues)
        explicit = make_scenario(cycles=[1e9, 2e9, 3e9, 4e9])
        assert [u.task.cycles for u in explicit.ues] == [1e9, 2e9, 3e9, 4e9]
        ranged = make_scenario(cycles=(1e8, 4e9))
        assert all(1e8 <= u.task.cycles <= 4e9 for u in ranged.ues)
        assert len({u.task.cycles for u in ranged.ues}) > 1

    def test_draw_order_positions_weights_cycles(self):
        # scenario_resolved.yaml depends on this order: cycles draw last, so
        # ranging them leaves positions and weights as they were, while
        # ranging the weights shifts the cycle draw
        base = make_scenario(weights=(0.5, 2.0), cycles=1e9)
        both = make_scenario(weights=(0.5, 2.0), cycles=(1e8, 4e9))
        assert ([(u.position, u.weight) for u in both.ues]
                == [(u.position, u.weight) for u in base.ues])
        fixed_w = make_scenario(weights=1.0, cycles=(1e8, 4e9))
        assert ([u.position for u in fixed_w.ues]
                == [u.position for u in both.ues])
        assert all(a.task.cycles != b.task.cycles
                   for a, b in zip(fixed_w.ues, both.ues))

    def test_explicit_weights_length_checked(self):
        with pytest.raises(ValueError):
            make_scenario(weights=[1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="explicit cycles"):
            make_scenario(cycles=[1e9, 2e9, 3e9])

    def test_reproducible(self):
        a = make_scenario(seed=5)
        b = make_scenario(seed=5)
        assert a == b

    def test_reweighted_keeps_positions(self):
        scen = make_scenario(weights=(0.5, 2.0))
        shifted = reweighted(scen, np.random.default_rng(1))
        assert [u.position for u in shifted.ues] == [u.position for u in scen.ues]
        assert any(a.weight != b.weight for a, b in zip(scen.ues, shifted.ues))
        # same positions, same channel draws
        np.testing.assert_array_equal(sample_channel_state(scen, 3).gains,
                                      sample_channel_state(shifted, 3).gains)

import dataclasses

import numpy as np
import pytest

from edgesched.allocator import (Evaluator, allocate_frequencies,
                                 evaluate, max_power_assignment)
from edgesched.config import ScenarioConfig, build_scenario
from edgesched.mec import (OffloadDecision, Task, UeSpec, local_capacity,
                           random_scenario, reweighted, sample_channel_state)

from reference import (allocate_frequencies_loop, allocate_frequencies_oracle,
                       latencies_per_call, weighted_latency)


def reference_latency(dec, scen, ch):
    """The per-UE reference latency under the closed-form allocation."""
    return weighted_latency(scen, dec, allocate_frequencies(dec, scen),
                            max_power_assignment(scen, dec), ch)


def fuzz_case(rng, n_max=8, m_max=3):
    """Random scenario and decision with varied weights and task sizes."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    scen = random_scenario(
        n, m, rng_seed=int(rng.integers(0, 2**31)),
        weights=[float(w) for w in rng.uniform(0.2, 5.0, size=n)],
        data_bits=float(rng.uniform(1e5, 2e6)),
        cycles=float(rng.uniform(1e8, 5e9)))
    assign = rng.integers(0, m + 1, size=n)
    return scen, OffloadDecision(assign=assign, n_mecs=m)


class TestLocalCapacity:
    def test_hardware_cap_binds(self):
        # power model allows 1e9 but the cap is lower
        ue = UeSpec(position=(0, 0), task=Task(1e5, 1e9), f_local_max=5e8,
                    p_max=1.0, kappa=1e-27, v=3.0)
        assert local_capacity(ue) == 5e8

    def test_power_model_binds(self):
        # (p_max/kappa)^(1/v) = (1e-3/1e-27)^(1/3) = 1e8 < f_local_max
        ue = UeSpec(position=(0, 0), task=Task(1e5, 1e9), f_local_max=1e9,
                    p_max=1e-3, kappa=1e-27, v=3.0)
        assert local_capacity(ue) == pytest.approx(1e8)

    def test_local_power_draw_respects_cap(self):
        scen = random_scenario(3, 1, rng_seed=0, p_max=1e-3)
        dec = OffloadDecision(assign=np.zeros(3, dtype=int), n_mecs=1)
        powers = max_power_assignment(scen, dec)
        for p, ue in zip(powers, scen.ues):
            assert p <= ue.p_max * (1 + 1e-12)

    def test_offloaded_power_at_cap(self):
        scen = random_scenario(3, 1, rng_seed=0)
        dec = OffloadDecision(assign=np.array([1, 0, 1]), n_mecs=1)
        powers = max_power_assignment(scen, dec)
        assert powers[0] == scen.ues[0].p_max
        assert powers[2] == scen.ues[2].p_max


class TestClosedForm:
    def test_budget_tight_per_mec(self):
        # every MEC with at least one task spends its full budget
        rng = np.random.default_rng(1)
        for _ in range(20):
            scen, dec = fuzz_case(rng)
            freqs = allocate_frequencies(dec, scen)
            for j, mec in enumerate(scen.mecs, start=1):
                members = dec.assign == j
                if members.any():
                    assert freqs[members].sum() == pytest.approx(mec.f_max,
                                                                 rel=1e-12)

    def test_local_tasks_at_capacity(self):
        scen = random_scenario(4, 2, rng_seed=3)
        dec = OffloadDecision(assign=np.array([0, 1, 0, 2]), n_mecs=2)
        freqs = allocate_frequencies(dec, scen)
        assert freqs[0] == local_capacity(scen.ues[0])
        assert freqs[2] == local_capacity(scen.ues[2])

    def test_split_proportional_to_sqrt_weighted_cycles(self):
        scen = random_scenario(3, 1, rng_seed=0, weights=[1.0, 4.0, 1.0])
        dec = OffloadDecision(assign=np.array([1, 1, 0]), n_mecs=1)
        freqs = allocate_frequencies(dec, scen)
        # same cycles, weight ratio 4 -> frequency ratio 2
        assert freqs[1] / freqs[0] == pytest.approx(2.0)

    def test_uniform_weight_scaling_leaves_split_unchanged(self):
        base = random_scenario(5, 2, rng_seed=7, weights=[1, 2, 3, 4, 5])
        scaled = random_scenario(5, 2, rng_seed=7,
                                 weights=[10, 20, 30, 40, 50])
        dec = OffloadDecision(assign=np.array([1, 1, 2, 2, 1]), n_mecs=2)
        np.testing.assert_allclose(allocate_frequencies(dec, base),
                                   allocate_frequencies(dec, scaled))


class TestMatchesPerMecLoop:
    """The one-``bincount`` split against the per-MEC loop it replaced.

    The two sum a MEC's loads in a different order once it serves 8 or more
    UEs (numpy's pairwise sum against bincount's sequential one), so they
    agree to 1e-15 relative there and bit for bit below.
    """

    # (N, M, placement): an empty MEC, all local, all remote, 12 UEs on one
    CASES = {
        "empty-mec": (6, 3, [1, 1, 0, 3, 3, 1]),
        "all-local": (5, 2, [0, 0, 0, 0, 0]),
        "all-remote": (4, 2, [1, 2, 2, 1]),
        "twelve-on-one": (14, 2, [2] * 12 + [0, 1]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_named_case(self, name):
        n, m, assign = self.CASES[name]
        scen = random_scenario(n, m, rng_seed=4, weights=(0.3, 3.0),
                               cycles=(1e8, 4e9))
        dec = OffloadDecision(assign=np.array(assign), n_mecs=m)
        freqs = allocate_frequencies(dec, scen)
        ref = allocate_frequencies_loop(dec, scen)
        np.testing.assert_allclose(freqs, ref, rtol=1e-15, atol=0)
        for j, mec in enumerate(scen.mecs, start=1):
            members = dec.assign == j
            if members.any():
                assert freqs[members].sum() == pytest.approx(mec.f_max,
                                                             rel=1e-14)
            if members.sum() < 8:
                np.testing.assert_array_equal(freqs[members], ref[members])

    def test_fuzz(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            scen, dec = fuzz_case(rng, n_max=40, m_max=5)
            np.testing.assert_allclose(allocate_frequencies(dec, scen),
                                       allocate_frequencies_loop(dec, scen),
                                       rtol=1e-15, atol=0)


class TestOracleAgreement:
    def test_fuzz_closed_form_vs_pgd(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            scen, dec = fuzz_case(rng)
            closed = allocate_frequencies(dec, scen)
            numeric = allocate_frequencies_oracle(dec, scen)
            np.testing.assert_allclose(numeric, closed, rtol=1e-6)

    def test_extreme_cycle_ratio(self):
        # 100:1 weighted-cycle ratio stresses the PGD line search
        scen = random_scenario(2, 1, rng_seed=0, weights=[100.0, 1.0])
        dec = OffloadDecision(assign=np.array([1, 1]), n_mecs=1)
        np.testing.assert_allclose(allocate_frequencies_oracle(dec, scen),
                                   allocate_frequencies(dec, scen), rtol=1e-6)

    def test_single_member_exact(self):
        scen = random_scenario(2, 2, rng_seed=0)
        dec = OffloadDecision(assign=np.array([1, 2]), n_mecs=2)
        freqs = allocate_frequencies_oracle(dec, scen)
        assert freqs[0] == scen.mecs[0].f_max
        assert freqs[1] == scen.mecs[1].f_max


class TestOptimality:
    def test_perturbed_split_never_better(self):
        """Moving 1% of budget between two co-located tasks raises latency."""
        rng = np.random.default_rng(5)
        scen, _ = fuzz_case(rng, n_max=6, m_max=2)
        n = scen.n_ues
        dec = OffloadDecision(assign=np.ones(n, dtype=int), n_mecs=scen.n_mecs)
        ch = sample_channel_state(scen, 1)
        freqs = allocate_frequencies(dec, scen)
        powers = max_power_assignment(scen, dec)
        best = weighted_latency(scen, dec, freqs, powers, ch)
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                pert = freqs.copy()
                delta = 0.01 * pert[a]
                pert[a] -= delta
                pert[b] += delta
                assert weighted_latency(scen, dec, pert, powers, ch) >= best

    def test_random_feasible_points_never_better(self):
        rng = np.random.default_rng(6)
        scen, dec = fuzz_case(rng)
        ch = sample_channel_state(scen, 1)
        opt = evaluate(dec, scen, ch)
        powers = max_power_assignment(scen, dec)
        for _ in range(50):
            freqs = np.zeros(scen.n_ues)
            for i, ue in enumerate(scen.ues):
                if dec.assign[i] == 0:
                    freqs[i] = local_capacity(ue) * rng.uniform(0.1, 1.0)
            for j, mec in enumerate(scen.mecs, start=1):
                members = np.flatnonzero(dec.assign == j)
                if members.size == 0:
                    continue
                split = rng.dirichlet(np.ones(members.size))
                freqs[members] = mec.f_max * np.maximum(split, 1e-9)
            lat = weighted_latency(scen, dec, np.where(freqs > 0, freqs, 1.0),
                                   powers, ch)
            assert lat >= opt.latency - 1e-9


class TestEvaluator:
    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            scen, dec = fuzz_case(rng)
            ch = sample_channel_state(scen, 1)
            ev = Evaluator(scen, ch)
            assert ev.latency_of(dec.assign) == pytest.approx(
                reference_latency(dec, scen, ch), rel=1e-12)

    @pytest.mark.parametrize("n, m", [(10, 2), (30, 5), (6, 3)])
    def test_evaluate_scores_through_the_kernel(self, n, m):
        """``evaluate`` takes its latency from ``Evaluator.latency_of``, bit
        for bit, and both stay within 1e-12 of the per-UE reference."""
        rng = np.random.default_rng(n * m)
        for seed in range(5):
            scen = build_scenario(ScenarioConfig(n_ues=n, n_mecs=m),
                                  fallback_seed=seed)
            for epoch in range(1, 41):
                ch = sample_channel_state(scen, epoch, seed)
                ev = Evaluator(scen, ch)
                dec = OffloadDecision(rng.integers(0, m + 1, size=n), m)
                lat = evaluate(dec, scen, ch).latency
                assert lat == ev.latency_of(dec.assign)
                assert lat == pytest.approx(reference_latency(dec, scen, ch),
                                            rel=1e-12)

    def test_evaluate_rejects_a_decision_of_another_shape(self):
        scen = random_scenario(4, 2, rng_seed=1)
        ch = sample_channel_state(scen, 1)
        for dec in (OffloadDecision(np.zeros(3, dtype=int), 2),
                    OffloadDecision(np.zeros(4, dtype=int), 3)):
            with pytest.raises(ValueError, match="does not match"):
                evaluate(dec, scen, ch)

    @pytest.mark.parametrize("n, m", [(6, 3), (10, 2), (30, 5)])
    def test_batch_matches_loop(self, n, m):
        scen = random_scenario(n, m, rng_seed=2, weights=(0.5, 2.0))
        ch = sample_channel_state(scen, 1)
        ev = Evaluator(scen, ch)
        rng = np.random.default_rng(0)
        batch = rng.integers(0, m + 1, size=(500, n))
        rows = [ev.latency_of(row) for row in batch]
        np.testing.assert_array_equal(ev.latencies(batch), rows)
        # a Fortran-ordered batch sums its rows in the same order
        np.testing.assert_array_equal(ev.latencies(np.asfortranarray(batch)),
                                      rows)


class TestScoringSetup:
    SIZES = [1, 7, 32, 33, 200, 5, 64]

    @staticmethod
    def check_sizes(ev, rng, b):
        batch = rng.integers(0, ev.m + 1, size=(b, ev.n))
        lat = ev.latencies(batch)
        np.testing.assert_array_equal(lat, latencies_per_call(ev, batch))
        for k in {0, b // 2, b - 1}:
            one = ev.latency_of(batch[k])
            assert one == ev.latencies(batch[k][None])[0] == lat[k]

    def test_rows_grow_with_the_batch(self):
        scen = random_scenario(9, 3, rng_seed=7, weights=(0.5, 2.0))
        ev = Evaluator(scen, sample_channel_state(scen, 1))
        rng = np.random.default_rng(1)
        sizes = []
        for b in self.SIZES:
            self.check_sizes(ev, rng, b)
            sizes.append(len(vars(scen)["_batch_rows"][0]))
        # grown at least twofold when outgrown, sliced for smaller batches
        assert sizes == [1, 7, 32, 64, 200, 200, 200]

    def test_scenarios_never_share_a_setup(self):
        a = random_scenario(9, 3, rng_seed=7, weights=(0.5, 2.0))
        b = random_scenario(14, 2, rng_seed=8, weights=(0.2, 5.0))
        c = reweighted(a, np.random.default_rng(3))
        evs = [Evaluator(s, sample_channel_state(s, e))
               for e in (1, 2) for s in (a, b, c)]
        rng = np.random.default_rng(2)
        for b_size in self.SIZES:
            for ev in evs:
                self.check_sizes(ev, rng, b_size)
        for field in ("arrays", "_batch_rows"):
            assert len({id(vars(s)[field]) for s in (a, b, c)}) == 3

    def test_built_once_per_scenario(self):
        scen = random_scenario(5, 2, rng_seed=3)
        arr = scen.arrays
        ev = Evaluator(scen, sample_channel_state(scen, 1))
        ev.latencies(np.zeros((40, 5), dtype=int))
        rows = vars(scen)["_batch_rows"]
        ev.latencies(np.zeros((7, 5), dtype=int))
        assert scen.arrays is arr
        assert vars(scen)["_batch_rows"] is rows
        assert arr.cost_offsets.tolist() == [0, 3, 6, 9, 12]


class TestScenarioArrays:
    def test_read_only_and_built_once(self):
        scen = random_scenario(5, 2, rng_seed=3, weights=(0.5, 2.0))
        arr = scen.arrays
        assert scen.arrays is arr
        for a in arr:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0
        with pytest.raises(AttributeError):
            arr.weight = np.ones(5)

    def test_capacity_and_power_taken_per_ue(self):
        # the power model binds here: (p_max/kappa)**(1/v) < f_local_max
        scen = random_scenario(50, 1, rng_seed=4, p_max=0.37, kappa=3e-28,
                               v=2.7, f_local_max=1e12)
        caps = [local_capacity(u) for u in scen.ues]
        assert scen.arrays.local_cap.tolist() == caps
        assert scen.arrays.local_power.tolist() == [
            u.kappa * c ** u.v for u, c in zip(scen.ues, caps)]

    @pytest.mark.parametrize("copy", [
        lambda s: reweighted(s, np.random.default_rng(1)),
        lambda s: dataclasses.replace(s, ues=s.ues[::-1])],
        ids=["reweighted", "replace"])
    def test_copies_get_their_own_arrays(self, copy):
        scen = random_scenario(6, 2, rng_seed=3, weights=(0.5, 2.0))
        before = scen.arrays
        other = copy(scen)
        assert other.arrays is not before and scen.arrays is before
        assert other.arrays.weight.tolist() == [u.weight for u in other.ues]
        assert before.weight.tolist() == [u.weight for u in scen.ues]
        ch = sample_channel_state(other, 2)
        rng = np.random.default_rng(5)
        for _ in range(20):
            dec = OffloadDecision(assign=rng.integers(0, 3, size=6), n_mecs=2)
            assert Evaluator(other, ch).latency_of(dec.assign) == \
                pytest.approx(reference_latency(dec, other, ch), rel=1e-12)

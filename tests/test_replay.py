import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from edgesched.replay import (ReplayBuffer, ReplayConfig, Transition,
                              dissimilarity)


def make_transition(epoch, theta=1.0, priority=1.0, dim=4):
    return Transition(raw=np.full(dim, float(epoch)),
                      state=np.full(dim, float(epoch)),
                      best_action=np.zeros(2, dtype=int),
                      theta_norm_sq=theta, collect_epoch=epoch,
                      priority=priority)


class TestDissimilarity:
    def test_ratio(self):
        assert dissimilarity(2.0, 1.0) == 2.0
        assert dissimilarity(1.0, 4.0) == 0.25

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            dissimilarity(0.0, 1.0)
        with pytest.raises(ValueError):
            dissimilarity(1.0, -1.0)

    def test_band_is_reciprocal_and_strict(self):
        buf = ReplayBuffer(ReplayConfig(rho_max=1.2))
        assert buf.reusable(1.0)
        assert buf.reusable(1.19)
        assert buf.reusable(1.0 / 1.19)
        assert not buf.reusable(1.2)    # boundary excluded
        assert not buf.reusable(1.0 / 1.2)
        assert not buf.reusable(1.5)
        assert not buf.reusable(0.5)


class TestAppendEvict:
    def test_capacity_bound(self):
        buf = ReplayBuffer(ReplayConfig(capacity=5))
        for e in range(12):
            buf.append(make_transition(e), theta_norm_now=1.0)
        assert len(buf) == 5
        assert buf.evictions == 7

    def test_new_sample_takes_max_priority(self):
        buf = ReplayBuffer(ReplayConfig(capacity=8))
        buf.append(make_transition(0), 1.0)
        assert buf._store[0].priority == 1.0
        buf._store[0].priority = 7.5
        buf.append(make_transition(1), 1.0)
        assert buf._store[1].priority == 7.5

    def test_evicts_oldest_drifted_sample(self):
        buf = ReplayBuffer(ReplayConfig(capacity=3, rho_max=1.2))
        # epochs 0 and 1 collected long ago (small norm), epoch 2 is fresh
        buf.append(make_transition(0, theta=0.5), 1.0)
        buf.append(make_transition(1, theta=0.6), 1.0)
        buf.append(make_transition(2, theta=1.0), 1.0)
        # rho against theta 0.5/0.6 is outside the band, against 1.0 inside;
        # oldest drifted is epoch 0
        buf.append(make_transition(3, theta=1.0), theta_norm_now=1.0)
        epochs = [t.collect_epoch for t in buf._store]
        assert epochs == [1, 2, 3]
        assert buf.preserve_hits == 0  # victim was index 0 anyway

    def test_preserves_fresh_head(self):
        buf = ReplayBuffer(ReplayConfig(capacity=3, rho_max=1.2))
        buf.append(make_transition(0, theta=1.0), 1.0)   # fresh, stays
        buf.append(make_transition(1, theta=0.5), 1.0)   # drifted
        buf.append(make_transition(2, theta=1.0), 1.0)
        buf.append(make_transition(3, theta=1.0), theta_norm_now=1.0)
        epochs = [t.collect_epoch for t in buf._store]
        assert epochs == [0, 2, 3]
        assert buf.preserve_hits == 1

    def test_all_fresh_falls_back_to_fifo(self):
        buf = ReplayBuffer(ReplayConfig(capacity=3, rho_max=1.2))
        for e in range(3):
            buf.append(make_transition(e, theta=1.0), 1.0)
        buf.append(make_transition(3, theta=1.0), theta_norm_now=1.0)
        assert [t.collect_epoch for t in buf._store] == [1, 2, 3]
        assert buf.preserve_hits == 0

    def test_preserve_disabled_is_fifo(self):
        buf = ReplayBuffer(ReplayConfig(capacity=3, rho_max=1.2),
                           preserve=False)
        buf.append(make_transition(0, theta=1.0), 1.0)
        buf.append(make_transition(1, theta=0.5), 1.0)
        buf.append(make_transition(2, theta=1.0), 1.0)
        buf.append(make_transition(3, theta=1.0), theta_norm_now=1.0)
        assert [t.collect_epoch for t in buf._store] == [1, 2, 3]


def scan_victim(buf, theta_now):
    """Eviction victim by an in-order scan of the store."""
    for idx, old in enumerate(buf._store):
        if not buf.reusable(dissimilarity(theta_now, old.theta_norm_sq)):
            return idx
    return 0


class TestVictimMatchesScan:
    @given(norms=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 0.85, 1.0, 1.1,
                                            1.2, 2.0]), min_size=1,
                          max_size=8),
           now=st.sampled_from([-1.0, 0.0, 0.9, 1.0, 1.2, float("nan")]),
           rounds=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_same_victim_or_error(self, norms, now, rounds):
        buf = ReplayBuffer(ReplayConfig(capacity=len(norms), rho_max=1.2))
        for e, theta in enumerate(norms):
            buf.append(make_transition(e, theta=theta), 1.0)
        for r in range(rounds):
            kept = [t.collect_epoch for t in buf._store]
            try:
                victim = scan_victim(buf, now)
            except ValueError:
                with pytest.raises(ValueError):
                    buf.append(make_transition(100 + r, theta=1.0), now)
                return
            hits = buf.preserve_hits
            buf.append(make_transition(100 + r, theta=1.0), now)
            del kept[victim]
            assert [t.collect_epoch for t in buf._store] == kept + [100 + r]
            assert buf.preserve_hits == hits + (victim != 0)


class TestSampling:
    def test_empty_buffer_raises(self):
        buf = ReplayBuffer(ReplayConfig())
        with pytest.raises(ValueError):
            buf.sample(4, np.random.default_rng(0))

    def test_two_priority_frequencies(self):
        # priorities {1, 3} at tau=1: sampling rates 0.25 / 0.75
        buf = ReplayBuffer(ReplayConfig(capacity=4, tau=1.0))
        buf.append(make_transition(0), 1.0)
        buf.append(make_transition(1), 1.0)
        buf._store[0].priority = 1.0
        buf._store[1].priority = 3.0
        np.testing.assert_allclose(buf.sample_probs(), [0.25, 0.75])
        rng = np.random.default_rng(0)
        _, idx = buf.sample(100_000, rng)
        freq = np.bincount(idx, minlength=2) / idx.size
        assert freq[0] == pytest.approx(0.25, abs=0.01)
        assert freq[1] == pytest.approx(0.75, abs=0.01)

    def test_tau_zero_is_uniform(self):
        buf = ReplayBuffer(ReplayConfig(capacity=8, tau=0.0))
        for e in range(5):
            buf.append(make_transition(e), 1.0)
            buf._store[e].priority = float(1 + 10 * e)  # wildly different
        np.testing.assert_allclose(buf.sample_probs(), np.full(5, 0.2))
        _, idx = buf.sample(50_000, np.random.default_rng(1))
        counts = np.bincount(idx, minlength=5)
        _, p = sps.chisquare(counts)
        assert p > 0.01

    def test_sharpening_increases_contrast(self):
        def top_prob(tau):
            buf = ReplayBuffer(ReplayConfig(capacity=4, tau=tau))
            buf.append(make_transition(0), 1.0)
            buf.append(make_transition(1), 1.0)
            buf._store[0].priority = 1.0
            buf._store[1].priority = 5.0
            return buf.sample_probs()[1]

        assert top_prob(0.0) < top_prob(0.6) < top_prob(1.0)

    def test_sample_with_replacement_exceeds_size(self):
        buf = ReplayBuffer(ReplayConfig(capacity=4))
        buf.append(make_transition(0), 1.0)
        picked, idx = buf.sample(16, np.random.default_rng(2))
        assert len(picked) == 16
        assert np.all(idx == 0)


class _FakeEncoder:
    def __init__(self, version):
        self.version = version
        self.calls = 0

    def encode_raw(self, raw):
        self.calls += 1
        return raw * 10.0


class TestReencoding:
    def test_stale_states_recomputed_once(self):
        buf = ReplayBuffer(ReplayConfig(capacity=8))
        t = make_transition(0)
        t.encoder_version = 1
        buf.append(t, 1.0)
        enc = _FakeEncoder(version=3)
        picked, _ = buf.sample(6, np.random.default_rng(3), encoder=enc)
        # six draws of the same stale transition: one re-encode
        assert enc.calls == 1
        assert all(p.encoder_version == 3 for p in picked)
        np.testing.assert_array_equal(picked[0].state, t.raw * 10.0)

    def test_fresh_states_left_alone(self):
        buf = ReplayBuffer(ReplayConfig(capacity=8))
        t = make_transition(0)
        t.encoder_version = 3
        buf.append(t, 1.0)
        enc = _FakeEncoder(version=3)
        before = t.state.copy()
        buf.sample(4, np.random.default_rng(4), encoder=enc)
        assert enc.calls == 0
        np.testing.assert_array_equal(t.state, before)


class TestStats:
    def test_update_stats_sets_priorities(self):
        buf = ReplayBuffer(ReplayConfig(capacity=8, eps=1e-3))
        for e in range(4):
            buf.append(make_transition(e), 1.0)
        buf.update_stats(np.array([0, 2, 2]), delta_loss=-0.5,
                         theta_norm_now=2.0)
        assert buf._store[0].priority == pytest.approx(0.501)
        assert buf._store[2].priority == pytest.approx(0.501)
        assert buf._store[1].priority == 1.0
        assert buf.last_policy_norm == 2.0

    def test_stats_dict(self):
        buf = ReplayBuffer(ReplayConfig(capacity=4))
        assert buf.stats() == {"size": 0, "mean_priority": 0.0,
                               "evictions": 0, "preserve_hits": 0}
        buf.append(make_transition(0), 1.0)
        s = buf.stats()
        assert s["size"] == 1 and s["mean_priority"] == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(capacity=0)
        with pytest.raises(ValueError):
            ReplayConfig(rho_max=1.0)
        with pytest.raises(ValueError):
            ReplayConfig(tau=-0.1)
        with pytest.raises(ValueError):
            ReplayConfig(eps=0.0)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from edgesched import replay
from edgesched.replay import EPS, ReplayBuffer, ReplayConfig, Transition

from reference import stored


def sized(capacity):
    """A buffer of ``capacity`` rows: ``replay.CAPACITY`` while it is built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(replay, "CAPACITY", capacity)
        return ReplayBuffer(ReplayConfig())


def make_transition(epoch, dim=4):
    return Transition(raw=np.full(dim, float(epoch)),
                      best_action=np.zeros(2, dtype=int))


def epochs_of(buf):
    return [int(raw[0]) for raw in stored(buf)[0]]


def test_transition_is_a_frozen_observation():
    names = [f.name for f in dataclasses.fields(Transition)]
    assert names == ["raw", "best_action"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        make_transition(0).raw = np.zeros(4)


class TestAppendEvict:
    def test_capacity_bound(self):
        buf = sized(5)
        for e in range(12):
            buf.append(make_transition(e))
        assert len(buf) == 5
        assert buf.evictions == 7

    def test_new_sample_takes_max_priority(self):
        buf = ReplayBuffer(ReplayConfig())
        buf.append(make_transition(0))
        assert buf._priorities[0] == 1.0
        buf._priorities[0] = 7.5
        buf.append(make_transition(1))
        assert buf._priorities[1] == 7.5

    def test_overflow_moves_priorities_with_transitions(self):
        buf = sized(3)
        for e in range(3):
            buf.append(make_transition(e))
        buf._priorities[:3] = [5.0, 2.0, 3.0]
        # the newcomer takes the top priority seen before the eviction
        buf.append(make_transition(3))
        assert epochs_of(buf) == [1, 2, 3]
        assert buf._priorities[:3].tolist() == [2.0, 3.0, 5.0]
        buf._priorities[2] = 4.0
        buf.append(make_transition(4))
        assert epochs_of(buf) == [2, 3, 4]
        assert buf._priorities[:3].tolist() == [3.0, 4.0, 4.0]
        assert buf.evictions == 2


class TestFifoMatchesModel:
    @given(capacity=st.integers(1, 6), appends=st.integers(1, 14),
           updates=st.lists(st.tuples(st.lists(st.integers(0, 7), max_size=3),
                                      st.sampled_from([-2.0, -0.5, 0.0, 0.25,
                                                       3.0])),
                            max_size=14))
    @settings(max_examples=200, deadline=None)
    def test_store_and_priorities_follow_a_fifo_model(self, capacity, appends,
                                                      updates):
        # in-order model: one [epoch, priority] entry per transition
        buf = sized(capacity)
        model = []
        for e in range(appends):
            top = max((p for _, p in model), default=1.0)
            buf.append(make_transition(e))
            if len(model) == capacity:
                del model[0]
            model.append([e, top])
            if e < len(updates):
                picks, delta = updates[e]
                picks = np.array(picks, dtype=int) % len(model)
                buf.update_stats(picks, delta)
                for i in picks:
                    model[i][1] = abs(delta) + EPS
            assert epochs_of(buf) == [e for e, _ in model]
            assert buf._priorities[:len(model)].tolist() == [p for _, p in model]
        assert buf.evictions == max(0, appends - capacity)


class TestRing:
    @pytest.mark.parametrize("capacity", [1, 3, 5])
    def test_store_order_across_evictions(self, capacity):
        rng = np.random.default_rng(capacity)
        buf = sized(capacity)
        kept = []   # the transitions a FIFO list would hold
        for e in range(13):
            t = Transition(raw=rng.normal(size=6),
                           best_action=rng.integers(0, 4, size=3))
            buf.append(t)
            kept = (kept + [t])[-capacity:]
            raws, labels = stored(buf)
            np.testing.assert_array_equal(raws, [k.raw for k in kept])
            np.testing.assert_array_equal(labels,
                                          [k.best_action for k in kept])
        # the rings replace the list: one row per slot, no more
        assert buf._raw.shape == (capacity, 6)
        assert buf._labels.shape == (capacity, 3)

    def test_append_copies_its_arrays(self):
        buf = ReplayBuffer(ReplayConfig())
        raw, action = np.arange(4.0), np.array([1, 0])
        buf.append(Transition(raw=raw, best_action=action))
        raw[0], action[0] = -1.0, 7
        raws, labels = stored(buf)
        assert raws[0].tolist() == [0.0, 1.0, 2.0, 3.0]
        assert labels[0].tolist() == [1, 0]

    def test_sample_equals_stacking_the_stored_transitions(self):
        rng = np.random.default_rng(4)
        buf = sized(5)
        kept = []
        for e in range(9):
            t = Transition(raw=rng.normal(size=4),
                           best_action=rng.integers(0, 3, size=2))
            buf.append(t)
            kept = (kept + [t])[-5:]
        picked, idx = buf.sample(64, np.random.default_rng(1))
        np.testing.assert_array_equal(
            picked.raw, np.stack([kept[i].raw for i in idx]))
        np.testing.assert_array_equal(
            picked.best_action, np.stack([kept[i].best_action for i in idx]))


class TestSampling:
    def test_empty_buffer_raises(self):
        buf = ReplayBuffer(ReplayConfig())
        with pytest.raises(ValueError):
            buf.sample(4, np.random.default_rng(0))

    def test_two_priority_frequencies(self):
        # priorities {1, 3} at tau=1: sampling rates 0.25 / 0.75
        buf = ReplayBuffer(ReplayConfig(tau=1.0))
        buf.append(make_transition(0))
        buf.append(make_transition(1))
        buf._priorities[0] = 1.0
        buf._priorities[1] = 3.0
        np.testing.assert_allclose(buf.sample_probs(), [0.25, 0.75])
        rng = np.random.default_rng(0)
        _, idx = buf.sample(100_000, rng)
        freq = np.bincount(idx, minlength=2) / idx.size
        assert freq[0] == pytest.approx(0.25, abs=0.01)
        assert freq[1] == pytest.approx(0.75, abs=0.01)

    def test_tau_zero_is_uniform(self):
        buf = ReplayBuffer(ReplayConfig(tau=0.0))
        for e in range(5):
            buf.append(make_transition(e))
            buf._priorities[e] = float(1 + 10 * e)  # wildly different
        np.testing.assert_allclose(buf.sample_probs(), np.full(5, 0.2))
        _, idx = buf.sample(50_000, np.random.default_rng(1))
        counts = np.bincount(idx, minlength=5)
        _, p = sps.chisquare(counts)
        assert p > 0.01

    def test_sharpening_increases_contrast(self):
        def top_prob(tau):
            buf = ReplayBuffer(ReplayConfig(tau=tau))
            buf.append(make_transition(0))
            buf.append(make_transition(1))
            buf._priorities[0] = 1.0
            buf._priorities[1] = 5.0
            return buf.sample_probs()[1]

        assert top_prob(0.0) < top_prob(0.6) < top_prob(1.0)

    def test_sample_with_replacement_exceeds_size(self):
        buf = ReplayBuffer(ReplayConfig())
        buf.append(make_transition(0))
        picked, idx = buf.sample(16, np.random.default_rng(2))
        assert picked.raw.shape == (16, 4)
        assert picked.best_action.shape == (16, 2)
        assert np.all(idx == 0)


class TestStats:
    def test_update_stats_sets_priorities(self):
        assert EPS == 1e-3
        buf = ReplayBuffer(ReplayConfig())
        for e in range(4):
            buf.append(make_transition(e))
        buf.update_stats(np.array([0, 2, 2]), delta_loss=-0.5)
        assert buf._priorities[0] == pytest.approx(0.501)
        assert buf._priorities[2] == pytest.approx(0.501)
        assert buf._priorities[1] == 1.0

    def test_stats_dict(self):
        buf = ReplayBuffer(ReplayConfig())
        assert buf.stats() == {"size": 0, "mean_priority": 0.0,
                               "evictions": 0}
        buf.append(make_transition(0))
        s = buf.stats()
        assert s["size"] == 1 and s["mean_priority"] == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReplayConfig(tau=-0.1)

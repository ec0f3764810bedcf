import copy
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesched.agent import (AgentConfig, SeedBundle, build_policy, decide,
                             one_hot_target, policy_loss_grads, run,
                             train_step, write_epoch_csv, write_timings_csv)
from edgesched.allocator import Evaluator
from edgesched.annealing import AnnealConfig
from edgesched.autoencoder import AutoencoderConfig, ChannelCompressor
from edgesched.mec import random_scenario, sample_channel_state
from edgesched.neural import Adam, LayerSpec, Network, mlp_specs
from edgesched.replay import ReplayBuffer, ReplayConfig

from reference import stored
from test_neural import assert_grads_close, fd_gradients
from test_replay import sized


def policy_loss(net, states, targets, lam):
    return policy_loss_grads(net, states, targets, lam)[0]


def identity_compressor(n, m):
    """Compressor that passes the normalised raster straight through."""
    return ChannelCompressor(AutoencoderConfig(out_dim=n * m), n, m)


def quick_run(n=4, m=2, t_drl=25, master=9, replay=ReplayConfig(), **cfg_kw):
    scen = random_scenario(n, m, rng_seed=3, weights=(0.5, 2.0))
    seeds = SeedBundle.from_master(master)
    cfg = AgentConfig(hidden=[16], t_drl=t_drl, phi=5, **cfg_kw)
    res = run(scen, identity_compressor(n, m), cfg, AnnealConfig(t_sa_init=4),
              replay, seeds)
    return scen, res


class TestSeeds:
    def test_fan_out_deterministic(self):
        a = SeedBundle.from_master(7)
        b = SeedBundle.from_master(7)
        assert a == b

    def test_components_distinct(self):
        s = SeedBundle.from_master(7)
        parts = [s.channel, s.sae, s.policy, s.asa, s.replay, s.shift,
                 s.bench]
        assert len(set(parts)) == len(parts)
        # the seventh value is skipped, so every seed keeps its value
        state = np.random.SeedSequence(7).generate_state(8, dtype=np.uint64)
        assert parts[:6] == [int(v) for v in state[0:6]]
        assert s.bench == int(state[7])

    def test_different_masters_differ(self):
        assert SeedBundle.from_master(1) != SeedBundle.from_master(2)


class TestDecide:
    @given(st.integers(1, 8), st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_always_feasible(self, n, m, seed):
        rng = np.random.default_rng(seed)
        net = Network(mlp_specs([3, n * (m + 1)]), rng=rng)
        state = rng.normal(size=3)
        dec = decide(net, state, n, m)
        assert dec.assign.shape == (n,)
        assert np.all((dec.assign >= 0) & (dec.assign <= m))

    def test_head_size_checked(self):
        net = Network(mlp_specs([3, 7]), rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            decide(net, np.zeros(3), n_ues=2, n_mecs=2)

    def test_argmax_rows(self):
        # a relu head with identity weights passes the non-negative state
        # through: scores are the state itself
        net = Network([LayerSpec(6, 6, "relu")],
                      weights=[np.eye(6)], biases=[np.zeros(6)])
        state = np.array([0.1, 0.9, 0.2, 0.8, 0.1, 0.1])
        dec = decide(net, state, n_ues=2, n_mecs=2)
        np.testing.assert_array_equal(dec.assign, [1, 0])

    @pytest.mark.parametrize("n, m", [(10, 2), (30, 5)])
    def test_argmax_of_forward_cached_on_draws(self, n, m):
        # an untrained policy on rasterized draws, whose decisions vary
        scen = random_scenario(n, m, rng_seed=5, weights=(0.5, 2.0))
        rng = np.random.default_rng(6)
        comp = identity_compressor(n, m)
        comp.pretrain([sample_channel_state(scen, e).gains
                       for e in range(1, 21)], rng)
        net = build_policy(comp.out_dim, n, m, AgentConfig(), rng)
        seen = set()
        for e in range(100, 300):
            state = comp.encode_channel(sample_channel_state(scen, e)).vector
            scores, _ = net.forward_cached(state)
            assign = decide(net, state, n, m).assign
            np.testing.assert_array_equal(
                assign, scores.reshape(n, m + 1).argmax(axis=1))
            seen.add(assign.tobytes())
        assert len(seen) > 10

    def test_tie_prefers_local(self):
        net = Network([LayerSpec(3, 3, "relu")],
                      weights=[np.eye(3)], biases=[np.zeros(3)])
        dec = decide(net, np.array([0.5, 0.5, 0.5]), n_ues=1, n_mecs=2)
        assert dec.assign[0] == 0


class TestLoss:
    def test_one_hot_layout(self):
        target = one_hot_target(np.array([0, 2]), n_mecs=2)
        np.testing.assert_array_equal(target, [1, 0, 0, 0, 0, 1])

    def test_one_hot_matches_put_along_axis(self):
        actions = np.random.default_rng(2).integers(0, 4, size=(64, 7))
        mat = np.zeros((64, 7, 4))
        np.put_along_axis(mat, actions[..., None], 1.0, axis=-1)
        target = one_hot_target(actions, n_mecs=3)
        assert target.dtype == np.float64
        np.testing.assert_array_equal(target, mat.reshape(64, -1))

    def test_one_hot_batch_is_rowwise(self):
        actions = np.array([[0, 2], [1, 1], [2, 0]])
        np.testing.assert_array_equal(
            one_hot_target(actions, n_mecs=2),
            np.stack([one_hot_target(a, n_mecs=2) for a in actions]))

    def test_cross_entropy_hand_value(self):
        # outputs (0.9, 0.1) against target (1, 0): loss = -2 ln 0.9
        z = np.log(9.0)
        net = Network([LayerSpec(1, 2, "sigmoid")],
                      weights=[np.array([[z], [-z]])], biases=[np.zeros(2)])
        loss = policy_loss(net, np.array([[1.0]]), np.array([[1.0, 0.0]]),
                           lam=0.0)
        assert loss == pytest.approx(-2.0 * np.log(0.9), rel=1e-12)

    def test_batch_average(self):
        z = np.log(9.0)
        net = Network([LayerSpec(1, 2, "sigmoid")],
                      weights=[np.array([[z], [-z]])], biases=[np.zeros(2)])
        one = policy_loss(net, np.array([[1.0]]), np.array([[1.0, 0.0]]), 0.0)
        two = policy_loss(net, np.array([[1.0], [1.0]]),
                          np.array([[1.0, 0.0], [1.0, 0.0]]), 0.0)
        assert two == pytest.approx(one)

    def test_l2_term(self):
        z = np.log(9.0)
        net = Network([LayerSpec(1, 2, "sigmoid")],
                      weights=[np.array([[z], [-z]])], biases=[np.zeros(2)])
        base = policy_loss(net, np.array([[1.0]]), np.array([[1.0, 0.0]]), 0.0)
        reg = policy_loss(net, np.array([[1.0]]), np.array([[1.0, 0.0]]), 0.1)
        assert reg - base == pytest.approx(0.05 * net.l2_norm_sq())

    @pytest.mark.parametrize("lam", [0.0, 0.02])
    def test_gradcheck(self, lam):
        rng = np.random.default_rng(4)
        net = Network(mlp_specs([3, 5, 4], hidden="relu"), rng=rng)
        states = rng.normal(size=(3, 3))
        actions = rng.integers(0, 2, size=(3, 2))
        targets = np.stack([one_hot_target(a, 1) for a in actions])
        _, grads = policy_loss_grads(net, states, targets, lam)
        numeric = fd_gradients(
            net, states, lambda _y: policy_loss(net, states, targets, lam))
        assert_grads_close(grads, numeric, atol=2e-6)

    def test_saturated_outputs_stay_finite(self):
        net = Network([LayerSpec(1, 2, "sigmoid")],
                      weights=[np.array([[500.0], [-500.0]])],
                      biases=[np.zeros(2)])
        loss, grads = policy_loss_grads(net, np.array([[1.0]]),
                                        np.array([[0.0, 1.0]]), 0.0)
        assert np.isfinite(loss)
        for dw, db in grads:
            assert np.all(np.isfinite(dw)) and np.all(np.isfinite(db))


class RawEncoder:
    """Encoder stand-in: a raw channel vector is its own state."""

    def __init__(self):
        self.calls = []

    def encode_raw(self, raw):
        self.calls.append(raw.copy())
        return raw


def fill_buffer(buf, rng, n=2, m=1, count=6):
    for _ in range(count):
        raw = rng.uniform(0.0, 1.0, size=n * m)
        action = rng.integers(0, m + 1, size=n)
        buf.append(raw, action)


class TestTrainStep:
    def test_memorizes_fixed_labels(self):
        rng = np.random.default_rng(5)
        buf = ReplayBuffer(ReplayConfig())
        fill_buffer(buf, rng, count=4)
        net = Network(mlp_specs([2, 24, 4], hidden="relu"), rng=rng)
        adam = Adam(net, lr=1e-2)
        loss = None
        for _ in range(1500):
            loss, _ = train_step(net, adam, buf, batch=8, lam=0.0, rng=rng,
                                 encoder=RawEncoder(), prev_loss=loss)
        assert loss < 0.01
        # the learned policy reproduces every stored label
        for raw, action in zip(*stored(buf)):
            dec = decide(net, raw, n_ues=2, n_mecs=1)
            np.testing.assert_array_equal(dec.assign, action)

    def test_first_event_delta_is_zero(self):
        rng = np.random.default_rng(6)
        buf = ReplayBuffer(ReplayConfig())
        fill_buffer(buf, rng)
        net = Network(mlp_specs([2, 8, 4]), rng=rng)
        adam = Adam(net)
        _, delta = train_step(net, adam, buf, 4, 0.02, rng, RawEncoder(),
                              prev_loss=None)
        assert delta == 0.0

    def test_delta_is_improvement(self):
        rng = np.random.default_rng(7)
        buf = ReplayBuffer(ReplayConfig())
        fill_buffer(buf, rng)
        net = Network(mlp_specs([2, 8, 4]), rng=rng)
        adam = Adam(net)
        enc = RawEncoder()
        l1, _ = train_step(net, adam, buf, 4, 0.02, rng, enc, prev_loss=None)
        l2, d2 = train_step(net, adam, buf, 4, 0.02, rng, enc, prev_loss=l1)
        assert d2 == pytest.approx(l1 - l2)

    def test_priorities_updated(self):
        rng = np.random.default_rng(8)
        buf = ReplayBuffer(ReplayConfig())
        fill_buffer(buf, rng, count=3)
        net = Network(mlp_specs([2, 8, 4]), rng=rng)
        _, delta = train_step(net, Adam(net), buf, 8, 0.0, rng, RawEncoder(),
                              prev_loss=5.0)
        touched = [p for p in buf._priorities[:len(buf)] if p != 1.0]
        assert touched
        assert touched[0] == pytest.approx(abs(delta) + 1e-3)

    def test_one_encode_call_on_the_sampled_rows(self):
        rng = np.random.default_rng(11)
        buf = sized(4)
        kept = []   # the transitions a FIFO list would hold
        for _ in range(7):
            t = rng.uniform(0.0, 1.0, size=2), rng.integers(0, 2, size=2)
            buf.append(*t)
            kept = (kept + [t])[-4:]
        net = Network(mlp_specs([2, 8, 4]), rng=rng)
        twin = copy.deepcopy(net)
        adam = Adam(net)
        enc = RawEncoder()
        for step in range(3):
            _, _, idx = buf.sample(5, np.random.default_rng(step))
            loss, _ = train_step(net, adam, buf, 5, 0.0,
                                 np.random.default_rng(step), enc)
            assert len(enc.calls) == step + 1
            # the batch the old list of transitions stacked
            raws = np.stack([kept[i][0] for i in idx])
            actions = np.stack([kept[i][1] for i in idx])
            np.testing.assert_array_equal(enc.calls[-1], raws)
            if step == 0:
                targets = np.stack([one_hot_target(a, 1) for a in actions])
                assert loss == policy_loss(twin, raws, targets, 0.0)

    def test_states_follow_the_encoder_after_sync(self):
        n, m = 3, 2
        rng = np.random.default_rng(10)
        comp = ChannelCompressor(AutoencoderConfig(out_dim=4), n, m, rng=rng)
        scen = random_scenario(n, m, rng_seed=10)
        for e in range(1, 6):
            comp.observe_and_admit(sample_channel_state(scen, e))
        comp.sync()
        buf = ReplayBuffer(ReplayConfig())
        for e in range(1, 7):
            buf.append(sample_channel_state(scen, 10 + e).gains.ravel(),
                       rng.integers(0, m + 1, size=n))
        raws = stored(buf)[0]
        before = comp.encode_raw(raws)
        # wider bounds and a refreshed net, published by the sync
        comp.observe_and_admit(sample_channel_state(scen, 99))
        comp.raster.observe(raws * 1e3)
        comp.refresh(rng, iters=5)
        comp.sync()
        assert not np.allclose(comp.encode_raw(raws), before)
        net = Network(mlp_specs([4, 8, n * (m + 1)]), rng=rng)
        twin = copy.deepcopy(net)
        sampled, labels, _ = buf.sample(4, np.random.default_rng(3))
        loss, _ = train_step(net, Adam(net), buf, 4, 0.02,
                             np.random.default_rng(3), comp)
        states = comp.encode_raw(sampled)
        targets = one_hot_target(labels, m)
        assert loss == policy_loss(twin, states, targets, 0.02)

    def test_nonfinite_loss_aborts(self):
        rng = np.random.default_rng(9)
        buf = ReplayBuffer(ReplayConfig())
        fill_buffer(buf, rng)
        net = Network(mlp_specs([2, 4, 4]), rng=rng)
        net.weights[0][0, 0] = np.nan
        with pytest.raises(RuntimeError):
            train_step(net, Adam(net), buf, 4, 0.0, rng, RawEncoder())


class TestRun:
    def test_log_shape_and_identities(self):
        scen, res = quick_run()
        assert len(res.logs) == 25
        for row in res.logs:
            assert row.reward == pytest.approx(1.0 / row.latency, rel=1e-12)
            # the search result never scores worse than the online decision
            assert row.asa_best_objective <= row.latency + 1e-12
            assert row.buffer_size >= 1
        assert res.shift_epoch is None

    @pytest.mark.parametrize("shift", [None, 6])
    def test_logged_latency_scores_the_logged_decision(self, shift):
        scen, res = quick_run(t_drl=12, master=5, weight_shift_epoch=shift)
        seeds = SeedBundle.from_master(5)
        for row in res.logs:
            active = (res.scenario_final if shift and row.epoch >= shift
                      else scen)
            channel = sample_channel_state(active, row.epoch, seeds.channel)
            assert row.latency == Evaluator(active, channel).latency_of(
                row.decision)
            assert row.reward == 1.0 / row.latency

    def test_bit_reproducible(self):
        _, a = quick_run(master=11)
        _, b = quick_run(master=11)
        for ra, rb in zip(a.logs, b.logs):
            assert ra.reward == rb.reward
            assert ra.loss == rb.loss
            np.testing.assert_array_equal(ra.decision, rb.decision)
        for wa, wb in zip(a.policy.weights, b.policy.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_master_seed_changes_run(self):
        _, a = quick_run(master=11)
        _, b = quick_run(master=12)
        assert any(ra.reward != rb.reward for ra, rb in zip(a.logs, b.logs))

    def test_training_happens_on_schedule(self):
        _, res = quick_run(t_drl=20)
        for row in res.logs:
            if row.epoch % 5 == 0:
                assert row.loss is not None
            else:
                assert row.loss is None
        first = next(r for r in res.logs if r.loss is not None)
        assert first.delta_loss == 0.0

    def test_budget_adapts_downward_on_plateau(self):
        # imitation of a fixed search converges quickly at this scale, so
        # the budget must shrink from its initial value at some point
        _, res = quick_run(t_drl=60)
        assert res.logs[0].t_sa == 4
        assert min(r.t_sa for r in res.logs) < 4

    def test_weight_shift_applies(self):
        scen, res = quick_run(t_drl=10, weight_shift_epoch=6)
        assert res.shift_epoch == 6
        w_before = [u.weight for u in scen.ues]
        w_after = [u.weight for u in res.scenario_final.ues]
        assert w_before != w_after
        assert [u.position for u in res.scenario_final.ues] == \
            [u.position for u in scen.ues]

    def test_uniform_replay_mode_runs(self):
        # tau = 0 weighs every priority alike: uniform replay
        _, res = quick_run(t_drl=10, replay=ReplayConfig(tau=0.0))
        assert len(res.logs) == 10

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AgentConfig(t_drl=0)

    def test_mismatched_compressor_rejected(self):
        scen = random_scenario(4, 2, rng_seed=0)
        seeds = SeedBundle.from_master(0)
        with pytest.raises(ValueError):
            run(scen, identity_compressor(3, 2), AgentConfig(t_drl=1),
                AnnealConfig(), ReplayConfig(), seeds)


class TestCsv:
    def test_epoch_csv_excludes_timings(self, tmp_path):
        _, res = quick_run(t_drl=8)
        p = tmp_path / "epochs.csv"
        write_epoch_csv(res.logs, p)
        header = p.read_text().splitlines()[0].split(",")
        assert header == ["epoch", "reward", "latency", "loss", "delta_loss",
                          "t_sa", "asa_best_objective", "buffer_size",
                          "mean_priority", "evictions", "preserve_hits"]
        assert "decision_ms" not in header and "asa_ms" not in header

    def test_epoch_csv_round_trips_floats(self, tmp_path):
        _, res = quick_run(t_drl=6)
        p = tmp_path / "epochs.csv"
        write_epoch_csv(res.logs, p)
        lines = p.read_text().splitlines()[1:]
        assert len(lines) == 6
        first = lines[0].split(",")
        assert float(first[1]) == res.logs[0].reward  # repr round-trip
        assert first[3] == ""  # no training at epoch 1

    def test_timings_csv(self, tmp_path):
        _, res = quick_run(t_drl=5)
        p = tmp_path / "timings.csv"
        write_timings_csv(res.logs, p)
        lines = p.read_text().splitlines()
        assert lines[0] == "epoch,decision_ms,asa_ms"
        assert len(lines) == 6

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        _, res = quick_run(t_drl=6)
        p = tmp_path / "epochs.csv"
        write_epoch_csv(res.logs[:3], p)
        before = p.read_bytes()
        assert before.count(b"\r\n") == 4  # csv line ends, header included

        def fail(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            write_epoch_csv(res.logs, p)
        assert p.read_bytes() == before
        assert [q.name for q in tmp_path.iterdir()] == ["epochs.csv"]

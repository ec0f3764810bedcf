import copy
import json
import re

import numpy as np
import pytest

from edgesched import autoencoder
from edgesched.autoencoder import (SYNC_PERIOD, AutoencoderConfig,
                                   ChannelCompressor, Rasterizer, default_dims,
                                   reconstruction_loss_grads)
from edgesched.mec import (ChannelState, random_scenario,
                           sample_channel_gains, sample_channel_state)
from edgesched.neural import Adam, Network, mlp_specs

from reference import (_row_shapes_reference, adam_step_reference,
                       pretrain_per_sample, reconstruction_loss_grads_reference)
from test_neural import (assert_grads_close, assert_same_bits,
                         assert_same_grads, assert_same_params, deep_copy,
                         fd_gradients, per_layer_adam, pickle_copy,
                         views_own_vector)


def reconstruction_loss(net, batch, n_rows, n_cols, gamma1, gamma2):
    return reconstruction_loss_grads(net, batch, n_rows, n_cols, gamma1,
                                     gamma2)[0]


def rms_errors(net, x):
    """Root-mean-square reconstruction error of each row of ``x``."""
    return np.sqrt(np.mean((net.forward(x) - x) ** 2, axis=1))


class TestDims:
    def test_compression_ratio_by_mec_count(self):
        # 30 UEs, encoder output fixed at 30: ratios 0, .5, .67, .75, .8
        expect = {1: 0.0, 2: 0.5, 3: 0.67, 4: 0.75, 5: 0.80}
        rng = np.random.default_rng(0)
        for m, val in expect.items():
            comp = ChannelCompressor(AutoencoderConfig(out_dim=30), 30, m,
                                     rng=rng)
            assert round(comp.compression_ratio(), 2) == val
        # asking for more outputs than inputs keeps the raster: ratio 0
        wide = ChannelCompressor(AutoencoderConfig(out_dim=60), 30, 1)
        assert wide.compression_ratio() == 0.0

    def test_default_dims_midpoint(self):
        assert default_dims(30, 2) == [60, 45, 30]

    def test_default_dims_identity_when_no_gain(self):
        # out_dim >= in_dim means nothing to compress
        assert default_dims(30, 1, out_dim=30) == [30]
        assert default_dims(1, 1) == [1]
        assert default_dims(4, 1, out_dim=8) == [4]

    def test_default_dims_requested_output(self):
        dims = default_dims(10, 3, out_dim=10)
        assert dims[0] == 30 and dims[-1] == 10

    def test_config_validation(self):
        for out_dim in (0, -3):
            with pytest.raises(ValueError, match="out_dim must be at least 1"):
                AutoencoderConfig(out_dim=out_dim)
        assert ChannelCompressor(AutoencoderConfig(out_dim=10), 10, 1).net is None

    # out_dim left unset halves the input; set, it lays the encoder out
    @pytest.mark.parametrize("cfg, dims", [
        (AutoencoderConfig(), [20, 15, 10]),
        (AutoencoderConfig(out_dim=19), [20, 19]),
        (AutoencoderConfig(out_dim=5), [20, 13, 5]),
        (AutoencoderConfig(out_dim=20), [20]),
        (AutoencoderConfig(out_dim=40), [20])])
    def test_either_size_setting_resolves(self, cfg, dims):
        comp = ChannelCompressor(cfg, 10, 2, rng=np.random.default_rng(0))
        assert comp.dims == dims
        assert comp.out_dim == comp.cfg.out_dim == dims[-1]


class TestRasterizer:
    def test_bounds_grow(self):
        r = Rasterizer()
        r.observe(np.array([[1e-6, 1e-4]]))
        assert (r.lo, r.hi) == (-6.0, -4.0)
        r.observe(np.array([[1e-8, 1e-5]]))
        assert (r.lo, r.hi) == (-8.0, -4.0)

    def test_transform_normalises_and_clips(self):
        r = Rasterizer(lo=-8.0, hi=-4.0)
        out = r.transform(np.array([[1e-8, 1e-6, 1e-4, 1e-2]]))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0, 1.0])

    def test_zero_span(self):
        r = Rasterizer(lo=-5.0, hi=-5.0)
        np.testing.assert_array_equal(r.transform(np.array([[1e-5, 1e-5]])),
                                      [0.5, 0.5])

    @pytest.mark.parametrize("lo, hi", [(-8.0, -4.0), (-5.0, -5.0)])
    @pytest.mark.parametrize("shape", [(3, 2), (6,), (4, 6)])
    def test_result_owns_its_data(self, lo, hi, shape):
        # a view would keep the log10 temporary alive in every memory entry
        out = Rasterizer(lo, hi).transform(np.full(shape, 1e-6))
        assert out.base is None and out.flags.owndata
        assert out.shape == (int(np.prod(shape)),)

    def test_requires_observation(self):
        with pytest.raises(RuntimeError):
            Rasterizer().transform(np.ones((1, 1)))


def with_memory(memory, *args, **kwargs):
    """``ChannelCompressor(*args, **kwargs)`` with a memory of ``memory``
    samples: ``autoencoder.MEMORY`` while it is built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(autoencoder, "MEMORY", memory)
        return ChannelCompressor(*args, **kwargs)


class TestMemory:
    def make(self, memory):
        return with_memory(memory, AutoencoderConfig(out_dim=2), 2, 2,
                           rng=np.random.default_rng(0))

    def test_fifo_capacity(self):
        comp = self.make(3)
        comp.raster.observe(np.array([[1e-9, 1e-1]]))  # fixed bounds
        for k in range(5):
            gains = np.full((2, 2), 10.0 ** -(k + 2))
            assert comp.observe_and_admit(ChannelState(gains))
        assert len(comp.memory) == 3
        np.testing.assert_allclose(np.stack(comp.memory)[:, 0],
                                   [0.625, 0.5, 0.375])

    def test_every_observed_channel_enters_in_order(self):
        # each channel is stored as rasterized under the bounds seen so far
        comp = self.make(4)
        scen = random_scenario(2, 2, rng_seed=3)
        twin = Rasterizer()
        expect = []
        for e in range(1, 8):
            ch = sample_channel_state(scen, e)
            assert comp.observe_and_admit(ch)
            twin.observe(ch.gains)
            expect.append(twin.transform(ch.gains))
        np.testing.assert_array_equal(np.stack(comp.memory), expect[-4:])

    def test_entries_own_their_data(self):
        comp = self.make(4)
        scen = random_scenario(2, 2, rng_seed=3)
        comp.pretrain([sample_channel_state(scen, e).gains for e in (1, 2)],
                      np.random.default_rng(0))
        for e in range(3, 6):
            comp.observe_and_admit(sample_channel_state(scen, e))
        assert len(comp.memory) == 4
        assert all(x.base is None and x.flags.owndata for x in comp.memory)

    def test_identity_compressor_keeps_no_memory(self):
        comp = ChannelCompressor(AutoencoderConfig(out_dim=4), 2, 2)
        ch = sample_channel_state(random_scenario(2, 2, rng_seed=3), 1)
        assert not comp.observe_and_admit(ch)
        assert len(comp.memory) == 0 and comp.raster.lo is not None


class TestLoss:
    def tiny_net(self, seed=0, dims=(6, 4, 6)):
        return Network(mlp_specs(list(dims)), rng=np.random.default_rng(seed))

    def test_reduces_to_mse_when_gammas_zero(self):
        net = self.tiny_net()
        batch = np.random.default_rng(2).uniform(0.1, 0.9, size=(5, 6))
        composite = reconstruction_loss(net, batch, n_rows=3, n_cols=2,
                                        gamma1=0.0, gamma2=0.0)
        diff = net.forward(batch) - batch
        assert composite == float(np.mean(diff * diff))

    def test_l2_term_value(self):
        net = self.tiny_net()
        batch = np.random.default_rng(2).uniform(0.1, 0.9, size=(2, 6))
        without = reconstruction_loss(net, batch, 3, 2, gamma1=0.0, gamma2=0.0)
        with_l2 = reconstruction_loss(net, batch, 3, 2, gamma1=0.0, gamma2=0.1)
        assert with_l2 - without == pytest.approx(0.05 * net.l2_norm_sq())

    def test_relative_term_zero_for_perfect_reconstruction(self):
        # identity network (relu on positive inputs): the shape term
        # vanishes even though gamma1 > 0
        ident = Network([mlp_specs([4, 4], output="relu")[0]],
                        weights=[np.eye(4)], biases=[np.zeros(4)])
        batch = np.random.default_rng(3).uniform(0.1, 0.9, size=(3, 4))
        loss = reconstruction_loss(ident, batch, 2, 2, gamma1=0.7, gamma2=0.0)
        assert loss == pytest.approx(0.0, abs=1e-300)

    def test_row_shape_scale_invariance(self):
        """Scaling an input row leaves its target shape unchanged."""
        from edgesched.autoencoder import _row_shapes
        rng = np.random.default_rng(4)
        batch = rng.uniform(0.1, 1.0, size=(2, 6))
        scaled = batch.copy()
        scaled[0, 0:3] *= 0.37  # first row of sample 0
        u1, _ = _row_shapes(batch, 2, 3)
        u2, _ = _row_shapes(scaled, 2, 3)
        np.testing.assert_allclose(u1[0, 0], u2[0, 0])

    @pytest.mark.parametrize("gamma1,gamma2", [(0.0, 0.0), (0.5, 0.0),
                                               (0.0, 0.08), (0.5, 0.08)])
    def test_gradcheck(self, gamma1, gamma2):
        net = self.tiny_net(seed=5)
        batch = np.random.default_rng(6).uniform(0.2, 0.8, size=(3, 6))
        _, grads = reconstruction_loss_grads(net, batch, 3, 2, gamma1, gamma2)

        def loss_fn(_y):
            return reconstruction_loss(net, batch, 3, 2, gamma1, gamma2)

        numeric = fd_gradients(net, batch, loss_fn)
        assert_grads_close(grads, numeric, atol=2e-6)

    def test_gradcheck_wide_rows(self):
        # more columns per row exercises the argmax bookkeeping
        net = self.tiny_net(seed=7, dims=(8, 5, 8))
        batch = np.random.default_rng(8).uniform(0.2, 0.8, size=(4, 8))
        _, grads = reconstruction_loss_grads(net, batch, 2, 4, 0.5, 0.08)
        numeric = fd_gradients(
            net, batch,
            lambda _y: reconstruction_loss(net, batch, 2, 4, 0.5, 0.08))
        assert_grads_close(grads, numeric, atol=2e-6)

    def test_all_zero_input_row_takes_the_all_ones_shape(self):
        from edgesched.autoencoder import _row_shapes
        net = self.tiny_net()
        batch = np.full((2, 6), 0.5)
        batch[0, 3:] = 0.0  # the second of two input rows is all zero
        batch[1, :3] = [0.2, 0.8, 0.4]
        shapes, maxima = _row_shapes(batch, 2, 3)
        assert_same_bits(shapes[0, 1], np.ones(3))
        assert_same_bits(shapes[1], batch[1].reshape(2, 3)
                         / batch[1].reshape(2, 3).max(axis=1, keepdims=True))
        assert_same_bits(maxima[:, 0], [0.5, 0.0, 0.8, 0.5])
        got = reconstruction_loss_grads(net, batch, 2, 3, 0.5, 0.08)
        want = reconstruction_loss_grads_reference(net, batch, 2, 3, 0.5,
                                                   0.08)
        assert got[0] == want[0] and np.isfinite(got[0])
        assert_same_grads(got[1], want[1])

    @pytest.mark.parametrize("cols", [1, 2, 5, 17])
    def test_row_shapes_match_reference_on_zero_rows(self, cols):
        """Shapes equal ``max``'s bit for bit on rows with -0.0 entries and
        all-zero rows; the maxima equal ``max``'s, and but for a zero's
        sign, their bits too."""
        from edgesched.autoencoder import _row_shapes
        rng = np.random.default_rng(cols)
        batch = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0], size=(40, 3 * cols),
                           p=[0.3, 0.3, 0.1, 0.1, 0.2])
        batch[0, :cols] = 0.0
        batch[1, :cols] = -0.0
        batch[2, cols:2 * cols] = rng.choice([0.0, -0.0], size=cols)
        shapes, maxima = _row_shapes(batch, 3, cols)
        rows = batch.reshape(40, 3, cols)
        assert_same_bits(shapes, _row_shapes_reference(rows))
        want = rows.max(axis=2).reshape(-1, 1)
        np.testing.assert_array_equal(maxima, want)
        assert_same_bits(maxima[want != 0], want[want != 0])
        assert (shapes.reshape(-1, cols)[want[:, 0] == 0] == 1.0).all()
        # the quotient takes the plain division when no maximum is 0
        positive = batch + 0.125
        shapes, _ = _row_shapes(positive, 3, cols)
        assert_same_bits(shapes, _row_shapes_reference(
            positive.reshape(40, 3, cols)))

    def test_negative_input_row_maximum_raises(self):
        batch = np.full((1, 6), 0.5)
        batch[0, 3:] = -0.1
        with pytest.raises(ValueError, match="must not be negative"):
            reconstruction_loss_grads(self.tiny_net(), batch, 2, 3, 0.5, 0.0)

    @pytest.mark.parametrize("rows,cols,gamma1,gamma2", [
        (3, 2, 0.5, 0.08), (3, 2, 0.0, 0.08), (3, 2, 0.5, 0.0),
        (3, 2, 0.0, 0.0), (6, 1, 0.5, 0.08), (2, 4, 0.7, 0.08)])
    def test_loss_grads_and_steps_match_reference(self, rows, cols, gamma1,
                                                  gamma2):
        """Loss, gradients and parameters over several Adam steps equal the
        whole-array step's, bit for bit."""
        d = rows * cols
        net = self.tiny_net(seed=d, dims=(d, 4, d))
        twin = Network(net.specs, weights=net.weights, biases=net.biases)
        opt, ref = Adam(net, lr=1e-2), per_layer_adam(twin, 1e-2)
        rng = np.random.default_rng(d + cols)
        for _ in range(5):
            batch = rng.uniform(0.0, 1.0, size=(7, d))
            batch[0, :cols] = 0.0  # one all-zero UE row
            got = reconstruction_loss_grads(net, batch, rows, cols, gamma1,
                                            gamma2)
            want = reconstruction_loss_grads_reference(
                twin, batch, rows, cols, gamma1, gamma2)
            assert got[0] == want[0]
            assert_same_grads(got[1], want[1])
            opt.step(got[1])
            adam_step_reference(ref, want[1])
            assert_same_params(net, twin)

    def test_tied_row_maxima_give_the_extra_term_to_the_first(self):
        # output entries 0 and 1 share their weights and bias, so they tie
        # and are their row's maximum; inputs tie too
        net = self.tiny_net(seed=3, dims=(6, 4, 6))
        net.weights[-1][1] = net.weights[-1][0]
        net.biases[-1][:2] = 4.0
        batch = np.random.default_rng(4).uniform(0.1, 0.9, size=(5, 6))
        batch[:, 4] = batch[:, 5]
        y = net.forward(batch)
        assert (y[:, 0] == y[:, 1]).all() and (y[:, 0] > y[:, 2]).all()
        seen = []
        backward = net.backward
        net.backward = lambda cache, g: seen.append(g.copy()) or backward(
            cache, g)
        got = reconstruction_loss_grads(net, batch, 3, 2, 0.5, 0.08)
        del net.backward
        want = reconstruction_loss_grads_reference(net, batch, 3, 2, 0.5,
                                                   0.08)
        assert got[0] == want[0]
        assert_same_grads(got[1], want[1])
        # the shape term's gradient, -e_j/m plus the quotient-rule term at
        # the first of the two tied entries only
        y3, x3 = y.reshape(5, 3, 2), batch.reshape(5, 3, 2)
        m = y3.max(axis=2)
        v = y3 / m[..., None]
        e = x3 / x3.max(axis=2, keepdims=True) - v
        extra = (e * v).sum(axis=2) / m
        shape_grad = (seen[0] - 2.0 * (y - batch) / y.size) * 5 / 0.5
        np.testing.assert_allclose(shape_grad[:, 0],
                                   -e[:, 0, 0] / m[:, 0] + extra[:, 0])
        np.testing.assert_allclose(shape_grad[:, 1], -e[:, 0, 1] / m[:, 0])

    def test_one_server_rows_carry_no_shape_term(self):
        # with one column a row's shape is 1, so the term is 0 and skipped,
        # even where a rasterized row is 0 and has no maximum to divide by
        net = self.tiny_net(dims=(3, 2, 3))
        batch = np.array([[0.0, 0.4, 1.0], [0.7, 0.0, 0.2]])
        for gamma2 in (0.0, 0.08):
            with_shape = reconstruction_loss_grads(net, batch, 3, 1, 0.5,
                                                   gamma2)
            without = reconstruction_loss_grads(net, batch, 3, 1, 0.0, gamma2)
            assert with_shape[0] == without[0]
            np.testing.assert_array_equal(with_shape[1], without[1])

    def test_batch_width_checked(self):
        net = self.tiny_net()
        with pytest.raises(ValueError):
            reconstruction_loss(net, np.ones((2, 5)), 3, 2, 0.5, 0.08)


class TestTraining:
    def make(self, net_seed, **cfg_kw):
        cfg = AutoencoderConfig(out_dim=4, **cfg_kw)
        return ChannelCompressor(cfg, 3, 2, rng=np.random.default_rng(net_seed))

    def test_memorizes_small_set(self):
        comp = self.make(10, gamma1=0.0, gamma2=0.0, lr=3e-2)
        rng = np.random.default_rng(11)
        comp.memory.extend(rng.uniform(0.2, 0.8, size=6) for _ in range(4))
        comp.refresh(rng, iters=4000)
        assert rms_errors(comp.net, np.stack(comp.memory)).max() < 1e-3

    def test_loss_trace_decreases(self):
        comp = self.make(12, lr=1e-2)
        rng = np.random.default_rng(13)
        comp.memory.extend(rng.uniform(0.1, 0.9, size=6) for _ in range(32))
        trace = comp.refresh(rng, iters=400)
        assert len(trace) == 400
        assert np.mean(trace[-20:]) < np.mean(trace[:20])

    def test_weight_penalty_shrinks_norm(self):
        def run(gamma2):
            comp = self.make(14, gamma1=0.0, gamma2=gamma2, lr=1e-2)
            rng = np.random.default_rng(15)
            comp.memory.extend(rng.uniform(0.1, 0.9, size=6)
                               for _ in range(16))
            comp.refresh(rng, iters=600)
            return comp.net.l2_norm_sq()

        assert run(0.5) < run(0.0)

    def test_empty_memory_is_noop(self):
        comp = self.make(16)
        assert comp.refresh(np.random.default_rng(0)) == []

    def test_accuracy_identity_is_one(self):
        comp = ChannelCompressor(AutoencoderConfig(out_dim=4), 4, 1)
        assert comp.accuracy([np.ones((4, 1))] * 3) == 1.0


class TestPretrain:
    """Batched rasterization against observing and scaling one sample at a
    time (``tests/reference.py``)."""

    def twins(self, memory, out_dim=4):
        cfg = AutoencoderConfig(out_dim=out_dim, t_sae=12)
        return [with_memory(memory, cfg, 4, 2, rng=np.random.default_rng(1))
                for _ in range(2)]

    @pytest.mark.parametrize("memory,count", [(4096, 30), (8, 30), (5, 5)])
    @pytest.mark.parametrize("prior", [False, True])
    def test_batch_matches_per_sample(self, memory, count, prior):
        scen = random_scenario(4, 2, rng_seed=2)
        mats = [sample_channel_state(scen, e).gains
                for e in range(1, count + 1)]
        mats[-1] = mats[-1] * 1e-3  # the smallest gain comes last
        comps = self.twins(memory)
        if prior:  # bounds and memory entries from before pretraining
            for comp in comps:
                for e in (101, 102):
                    comp.observe_and_admit(sample_channel_state(scen, e))
        got = comps[0].pretrain(np.stack(mats), np.random.default_rng(2))
        want = pretrain_per_sample(comps[1], mats, np.random.default_rng(2))
        batched, single = comps
        assert len(got) == 12
        assert_same_bits(got, want)
        assert (batched.raster.lo, batched.raster.hi) == (single.raster.lo,
                                                          single.raster.hi)
        assert batched._online_raster.lo == single._online_raster.lo
        assert len(batched.memory) == len(single.memory) == min(
            memory, count + 2 * prior)
        for entry, twin in zip(batched.memory, single.memory):
            assert_same_bits(entry, twin)
            assert entry.base is None and entry.flags.owndata
        assert_same_params(batched.net, single.net)

    def test_accuracy_of_a_stack_is_the_per_sample_score(self):
        scen = random_scenario(4, 2, rng_seed=2)
        comp = self.twins(4096)[0]
        comp.pretrain(sample_channel_gains(scen, 1, 30),
                      np.random.default_rng(2))
        gains = sample_channel_gains(scen, 500, 25)
        x = np.stack([comp.raster.transform(g) for g in gains])
        rel = np.abs(x - comp.net.forward(x)) / np.maximum(np.abs(x), 1e-9)
        assert comp.accuracy(gains) == float(np.clip(1.0 - rel.mean(), 0, 1))
        assert comp.accuracy(list(gains)) == comp.accuracy(gains)

    def test_identity_compressor_settles_the_same_bounds(self):
        scen = random_scenario(4, 2, rng_seed=2)
        mats = [sample_channel_state(scen, e).gains for e in range(1, 9)]
        comps = self.twins(4096, out_dim=8)
        assert comps[0].pretrain(mats, np.random.default_rng(2)) == []
        pretrain_per_sample(comps[1], mats, np.random.default_rng(2))
        assert (comps[0].raster.lo, comps[0].raster.hi) == (
            comps[1].raster.lo, comps[1].raster.hi)
        assert comps[0].primed and len(comps[0].memory) == 0

    @pytest.mark.parametrize("prior", [False, True])
    def test_empty_dataset_trains_the_memory_and_syncs(self, prior):
        scen = random_scenario(4, 2, rng_seed=2)
        comps = self.twins(4096)
        if prior:
            for comp in comps:
                for e in (101, 102, 103):
                    comp.observe_and_admit(sample_channel_state(scen, e))
        got = comps[0].pretrain([], np.random.default_rng(2))
        want = pretrain_per_sample(comps[1], [], np.random.default_rng(2))
        assert got == want and len(got) == (12 if prior else 0)
        assert comps[0].primed == prior
        assert_same_params(*(comp.net for comp in comps))


class TestCopies:
    """A copied compressor, by deepcopy or pickle, trains as the original
    does, on networks that view their own parameter vectors."""

    @pytest.mark.parametrize("clone", [deep_copy, pickle_copy])
    def test_copy_refreshes_alike(self, clone):
        scen = random_scenario(4, 2, rng_seed=2)
        comp = ChannelCompressor(AutoencoderConfig(out_dim=4, t_sae=5), 4, 2,
                                 rng=np.random.default_rng(1))
        comp.pretrain(sample_channel_gains(scen, 1, 20),
                      np.random.default_rng(2))
        twin = clone(comp)
        assert twin.adam.net is twin.net
        for net in (twin.net, twin._encoder):
            assert views_own_vector(net)
        assert not np.shares_memory(twin.net.theta, comp.net.theta)
        for epoch in (SYNC_PERIOD, 2 * SYNC_PERIOD):
            for c in (comp, twin):
                c.after_epoch(epoch, np.random.default_rng(epoch))
            assert_same_params(comp.net, twin.net)
            assert_same_params(comp._encoder, twin._encoder)
        assert views_own_vector(twin.net)
        ch = sample_channel_state(scen, 50)
        assert_same_bits(twin.encode_channel(ch).vector,
                         comp.encode_channel(ch).vector)


class TestCompressor:
    def make(self, n=4, m=2, seed=0, **cfg_kw):
        cfg = AutoencoderConfig(**cfg_kw)
        rng = np.random.default_rng(seed)
        return (ChannelCompressor(cfg, n, m, rng=rng),
                random_scenario(n, m, rng_seed=seed), rng)

    def test_dims_must_match_scenario(self, tmp_path):
        comp, _, _ = self.make()
        p = tmp_path / "sae.json"
        comp.save(p)
        doc = json.loads(p.read_text())
        doc["n_ues"] = 5
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: encoder dims [8, 6, 4] are not the layout [10, 7, 4]")):
            ChannelCompressor.load(p)

    def test_identity_mode_passes_raster_through(self):
        comp, scen, _ = self.make(m=1, out_dim=4)
        ch = sample_channel_state(scen, 1)
        comp.observe_and_admit(ch)
        comp.sync()
        state = comp.encode_channel(ch)
        np.testing.assert_array_equal(state.vector, comp.rasterize(ch))
        assert comp.compression_ratio() == 0.0
        assert comp.accuracy([ch.gains]) == 1.0

    def test_encoding_dimension(self):
        comp, scen, rng = self.make()
        ch = sample_channel_state(scen, 1)
        comp.observe_and_admit(ch)
        comp.sync()
        assert comp.encode_channel(ch).vector.shape == (comp.out_dim,)

    def test_unpretrained_compressor_encodes_its_first_channel(self):
        comp, scen, _ = self.make()
        ch = sample_channel_state(scen, 1)
        with pytest.raises(RuntimeError, match="no bounds"):
            comp.encode_channel(ch)
        twin = copy.deepcopy(comp)
        comp.observe_and_admit(ch)  # no explicit sync
        twin.observe_and_admit(ch)
        twin.sync()
        assert comp.primed
        np.testing.assert_array_equal(comp.encode_channel(ch).vector,
                                      twin.encode_channel(ch).vector)
        # a primed compressor leaves its snapshot to the refresh schedule
        wide = ChannelState(ch.gains * 1e3)
        comp.observe_and_admit(wide)
        np.testing.assert_array_equal(comp.encode_channel(ch).vector,
                                      twin.encode_channel(ch).vector)

    def test_after_epoch_refreshes_and_syncs_on_its_period(self, monkeypatch):
        comp, scen, rng = self.make()
        comp.pretrain([sample_channel_state(scen, e).gains
                       for e in range(1, 30)], rng)
        calls = []

        def spy(name):
            method = getattr(comp, name)

            def wrapped(*args):
                calls.append((name, args))
                return method(*args)
            return wrapped

        for name in ("refresh", "sync"):
            monkeypatch.setattr(comp, name, spy(name))
        ch = sample_channel_state(scen, 100)
        comp.raster.observe(ch.gains * 1e3)  # moves the training side
        before = comp.encode_channel(ch).vector.copy()
        state = rng.bit_generator.state
        for t in range(1, SYNC_PERIOD):
            comp.after_epoch(t, rng)
        assert calls == [] and rng.bit_generator.state == state
        np.testing.assert_array_equal(comp.encode_channel(ch).vector, before)
        comp.after_epoch(SYNC_PERIOD, rng)
        assert calls == [("refresh", (rng,)), ("sync", ())]
        assert not np.array_equal(comp.encode_channel(ch).vector, before)
        comp.after_epoch(SYNC_PERIOD + 1, rng)
        comp.after_epoch(2 * SYNC_PERIOD, rng)
        assert [name for name, _ in calls] == ["refresh", "sync"] * 2

    def test_identity_compressor_never_refreshes(self):
        comp, scen, rng = self.make(out_dim=8)
        assert comp.net is None
        ch = sample_channel_state(scen, 1)
        comp.observe_and_admit(ch)
        before = comp.encode_channel(ch).vector.copy()
        comp.observe_and_admit(ChannelState(ch.gains * 1e3))
        state = rng.bit_generator.state
        for t in (SYNC_PERIOD, 2 * SYNC_PERIOD):
            comp.after_epoch(t, rng)
        assert rng.bit_generator.state == state
        np.testing.assert_array_equal(comp.encode_channel(ch).vector, before)

    def test_online_snapshot_is_stable_until_sync(self):
        comp, scen, rng = self.make()
        mats = [sample_channel_state(scen, e).gains for e in range(1, 30)]
        comp.pretrain(mats, rng)
        ch = sample_channel_state(scen, 100)
        comp.raster.observe(ch.gains)
        before = comp.encode_channel(ch).vector.copy()
        comp.refresh(rng, iters=50)  # training side moves
        np.testing.assert_array_equal(comp.encode_channel(ch).vector, before)
        comp.sync()
        after = comp.encode_channel(ch).vector
        assert not np.array_equal(after, before)

    def test_nonfinite_loss_aborts_refresh(self):
        comp, scen, rng = self.make()
        comp.pretrain([sample_channel_state(scen, e).gains
                       for e in range(1, 20)], rng)
        assert len(comp.memory) > 0
        comp.net.weights[0][0, 0] = np.nan
        with pytest.raises(RuntimeError):
            comp.refresh(rng)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_diverging_pretrain_raises(self, seed):
        # the sigmoid outputs underflow to 0 before the loss turns non-finite
        comp, scen, rng = self.make(seed=seed, lr=1e6)
        with pytest.raises(RuntimeError, match="diverged"):
            comp.pretrain([sample_channel_state(scen, e).gains
                           for e in range(1, 20)], rng)

    def test_encode_raw_matches_encode_channel(self):
        comp, scen, rng = self.make()
        mats = [sample_channel_state(scen, e).gains for e in range(1, 20)]
        comp.pretrain(mats, rng)
        ch = sample_channel_state(scen, 50)
        a = comp.encode_channel(ch).vector
        b = comp.encode_raw(ch.gains.ravel())
        np.testing.assert_allclose(a, b)
        # batched form
        two = comp.encode_raw(np.stack([ch.gains.ravel(), ch.gains.ravel()]))
        np.testing.assert_allclose(two[0], a)

    @pytest.mark.parametrize("dims", [[8, 7], [8, 6, 4]])
    def test_encoding_is_the_encoder_half_of_the_net(self, dims):
        comp, scen, rng = self.make(out_dim=dims[-1])
        assert comp.dims == dims
        mats = [sample_channel_state(scen, e).gains for e in range(1, 20)]
        comp.pretrain(mats, rng)
        comp.refresh(rng, iters=5)
        comp.sync()
        chans = [sample_channel_state(scen, e) for e in range(40, 43)]
        last = len(dims) - 2  # index of the last encoder layer
        # a batch and a single row round differently, so compare each shape
        x = np.stack([comp.rasterize(ch) for ch in chans])
        _, cache = comp.net.forward_cached(x)
        np.testing.assert_array_equal(comp._encode_normalised(x),
                                      cache[last][2])
        for ch in chans:
            _, cache = comp.net.forward_cached(comp.rasterize(ch))
            np.testing.assert_array_equal(comp.encode_channel(ch).vector,
                                          cache[last][2][0])

    def test_pretrain_reduces_loss(self):
        comp, scen, rng = self.make(n=5, m=2, t_sae=300)
        mats = [sample_channel_state(scen, e).gains for e in range(1, 80)]
        trace = comp.pretrain(mats, rng)
        assert trace and trace[-1] < trace[0]

    def test_save_load_round_trip(self, tmp_path):
        comp, scen, rng = self.make()
        mats = [sample_channel_state(scen, e).gains for e in range(1, 20)]
        comp.pretrain(mats, rng)
        p = tmp_path / "sae.json"
        comp.save(p, seed=0, epoch=9)
        loaded, _ = ChannelCompressor.load(p)
        ch = sample_channel_state(scen, 33)
        np.testing.assert_allclose(loaded.encode_channel(ch).vector,
                                   comp.encode_channel(ch).vector)
        # byte-stable re-save
        p2 = tmp_path / "sae2.json"
        loaded.save(p2, seed=0, epoch=9)
        assert p.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("key", ["net", "lo"])
    def test_load_rejects_non_finite_values(self, tmp_path, key):
        comp, scen, rng = self.make()
        comp.pretrain([sample_channel_state(scen, e).gains
                       for e in range(1, 20)], rng)
        p = tmp_path / "sae.json"
        comp.save(p)
        doc = json.loads(p.read_text())
        if key == "net":
            doc["net"]["biases"][0][0] = float("inf")
        else:
            doc["lo"] = float("nan")
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{p}: non-finite")):
            ChannelCompressor.load(p)

    @pytest.mark.parametrize("lo, hi, message", [
        (-4.0, -8.0, "have lo above hi"),
        (None, -4.0, "set only one end"),
        (-8.0, None, "set only one end"),
        ("-8", -4.0, "isfinite")])
    def test_load_rejects_bounds_out_of_order_or_half_set(self, tmp_path, lo,
                                                          hi, message):
        # swapped bounds would rasterize every channel to 0.5, and one null
        # bound would load an unprimed compressor
        comp, scen, rng = self.make()
        comp.pretrain([sample_channel_state(scen, e).gains
                       for e in range(1, 20)], rng)
        p = tmp_path / "sae.json"
        comp.save(p)
        doc = json.loads(p.read_text())
        doc["lo"], doc["hi"] = lo, hi
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: .*"
                           f"{message}"):
            ChannelCompressor.load(p)

    def test_load_rejects_a_net_that_does_not_mirror_dims(self, tmp_path):
        comp, scen, rng = self.make()
        p = tmp_path / "sae.json"
        comp.save(p)
        doc = json.loads(p.read_text())
        doc["dims"] = [8, 6, 3]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="do not mirror"):
            ChannelCompressor.load(p)

    @pytest.mark.parametrize("dims", [[8, 4], []])
    def test_load_rejects_dims_off_the_default_layout(self, tmp_path, dims):
        # only default_dims lays an encoder out, so no other layout loads
        comp, _, _ = self.make()
        p = tmp_path / "sae.json"
        comp.save(p)
        doc = json.loads(p.read_text())
        doc["dims"] = dims
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(
                f"{p}: encoder dims {dims} are not the layout [8, 6, 4]")):
            ChannelCompressor.load(p)

    def test_save_load_identity(self, tmp_path):
        comp, scen, _ = self.make(m=1, out_dim=4)
        ch = sample_channel_state(scen, 1)
        comp.observe_and_admit(ch)
        comp.sync()
        p = tmp_path / "ident.json"
        comp.save(p)
        loaded, _ = ChannelCompressor.load(p)
        np.testing.assert_array_equal(loaded.encode_channel(ch).vector,
                                      comp.encode_channel(ch).vector)

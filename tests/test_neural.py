import copy
import json
import os
import pickle
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesched.agent import AgentConfig
from edgesched.autoencoder import default_dims
from edgesched.neural import (ACTIVATIONS, ADAM_BLOCK, Adam, LayerSpec,
                              Network, _sigmoid, checkpoint_dict,
                              load_checkpoint, mlp_specs, save_checkpoint,
                              write_json)

from reference import (add_l2_reference, adam_step_reference,
                       backward_reference, forward_reference,
                       sigmoid_reference)


def fd_gradients(net, x, loss_fn, h=1e-6):
    """Central finite differences of loss_fn(net.forward(x)) in every
    parameter, laid out as ``net.theta``."""
    grad = np.zeros_like(net.theta)
    for k, orig in enumerate(net.theta.tolist()):
        net.theta[k] = orig + h
        up = loss_fn(net.forward(x))
        net.theta[k] = orig - h
        down = loss_fn(net.forward(x))
        net.theta[k] = orig
        grad[k] = (up - down) / (2 * h)
    return grad


def assert_grads_close(analytic, numeric, atol=1e-6):
    np.testing.assert_allclose(analytic, numeric, atol=atol)


def assert_same_bits(got, want):
    """Equal shapes and bytes; unlike ``==``, tells 0.0 from -0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_same_params(a, b):
    assert_same_bits(a.theta, b.theta)
    for got, want in zip((*a.weights, *a.biases), (*b.weights, *b.biases)):
        assert_same_bits(got, want)


def flat(layers):
    """Per-layer (W, b) pairs as one vector laid out as ``Network.theta``."""
    return np.concatenate([p.ravel() for pair in layers for p in pair])


def assert_same_grads(got, want):
    """A flat gradient (or moment) against the per-layer pairs of
    ``tests/reference.py``, bit for bit."""
    assert_same_bits(got, flat(want))


def per_layer_adam(net, lr):
    """The state ``adam_step_reference`` updates: per-layer moments."""
    zeros = [(np.zeros_like(w), np.zeros_like(b))
             for w, b in zip(net.weights, net.biases)]
    return SimpleNamespace(net=net, lr=lr, t=0, m=zeros,
                           v=copy.deepcopy(zeros))


def random_grads(net, rng, scale=1.0):
    """A gradient of every scale, a few entries exactly 0."""
    shape = net.theta.shape
    g = rng.normal(size=shape) * scale * 10.0 ** rng.integers(-6, 3, shape)
    g[rng.random(shape) < 0.1] = 0.0
    return g


class TestSpecs:
    def test_mlp_specs(self):
        specs = mlp_specs([4, 3, 2], hidden="relu", output="sigmoid")
        assert [s.activation for s in specs] == ["relu", "sigmoid"]
        assert [(s.in_dim, s.out_dim) for s in specs] == [(4, 3), (3, 2)]

    def test_bad_activation(self):
        assert ACTIVATIONS == ("sigmoid", "relu")
        for name in ("softmax", "tanh", "linear"):
            with pytest.raises(ValueError, match="unknown activation"):
                LayerSpec(2, 2, name)

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            Network([LayerSpec(4, 3), LayerSpec(2, 1)],
                    rng=np.random.default_rng(0))

    def test_needs_rng_or_params(self):
        with pytest.raises(ValueError):
            Network([LayerSpec(2, 2)])


class TestForward:
    def test_relu_value(self):
        net = Network([LayerSpec(2, 2, "relu")],
                      weights=[np.eye(2)], biases=[np.zeros(2)])
        x = np.array([1.5, -2.0])
        np.testing.assert_array_equal(net.forward(x), [1.5, 0.0])

    def test_sigmoid_value(self):
        net = Network([LayerSpec(1, 1, "sigmoid")],
                      weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        assert net.forward(np.array([0.0]))[0] == 0.5

    def test_batch_and_single_agree(self):
        rng = np.random.default_rng(0)
        net = Network(mlp_specs([3, 5, 2], hidden="relu"), rng=rng)
        x = rng.normal(size=(4, 3))
        batch = net.forward(x)
        assert batch.shape == (4, 2)
        for i in range(4):
            np.testing.assert_allclose(net.forward(x[i]), batch[i])

    @pytest.mark.parametrize("hidden", ACTIVATIONS)
    @pytest.mark.parametrize("output", ACTIVATIONS)
    def test_forward_is_forward_cached_bit_for_bit(self, hidden, output):
        rng = np.random.default_rng(3)
        net = Network(mlp_specs([5, 7, 6, 4], hidden=hidden, output=output),
                      rng=rng)
        x = rng.normal(size=(9, 5))
        batch, _ = net.forward_cached(x)
        np.testing.assert_array_equal(net.forward(x), batch)
        for row in x:
            single, _ = net.forward_cached(row)
            assert single.shape == (1, 4)
            np.testing.assert_array_equal(net.forward(row), single[0])

    def test_extreme_logits_stay_finite(self):
        net = Network([LayerSpec(1, 1, "sigmoid")],
                      weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        out = net.forward(np.array([[1e4], [-1e4]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[1, 0] == pytest.approx(0.0, abs=1e-300)

    def test_glorot_init_scale(self):
        rng = np.random.default_rng(0)
        net = Network([LayerSpec(50, 50, "sigmoid")], rng=rng)
        limit = np.sqrt(6.0 / 100)
        w = net.weights[0]
        assert np.all(np.abs(w) <= limit)
        assert np.abs(w).max() > 0.8 * limit  # actually spread over the range
        assert np.all(net.biases[0] == 0.0)


class TestBackward:
    @pytest.mark.parametrize("hidden", ACTIVATIONS)
    def test_gradcheck_mse(self, hidden):
        rng = np.random.default_rng(1)
        net = Network(mlp_specs([3, 4, 2], hidden=hidden, output="sigmoid"),
                      rng=rng)
        x = rng.normal(size=(5, 3)) * 0.5
        target = rng.uniform(0.2, 0.8, size=(5, 2))

        out, cache = net.forward_cached(x)
        analytic = net.backward(cache, 2.0 * (out - target))
        numeric = fd_gradients(net, x,
                               lambda y: float(((y - target) ** 2).sum()))
        assert_grads_close(analytic, numeric)

    def test_gradcheck_deep(self):
        rng = np.random.default_rng(2)
        net = Network(mlp_specs([2, 6, 5, 4, 1], hidden="relu",
                                output="sigmoid"), rng=rng)
        x = rng.normal(size=(3, 2))
        out, cache = net.forward_cached(x)
        analytic = net.backward(cache, np.ones_like(out))
        numeric = fd_gradients(net, x, lambda y: float(y.sum()))
        assert_grads_close(analytic, numeric)

    def test_backward_sums_over_batch(self):
        rng = np.random.default_rng(3)
        net = Network(mlp_specs([2, 3, 1]), rng=rng)
        x = rng.normal(size=(4, 2))
        out, cache = net.forward_cached(x)
        full = net.backward(cache, np.ones_like(out))
        acc = np.zeros_like(full)
        for i in range(4):
            o, cache_i = net.forward_cached(x[i:i + 1])
            acc += net.backward(cache_i, np.ones_like(o))
        assert_grads_close(full, acc, atol=1e-12)


def layouts(n, m, out_dim=None):
    """The autoencoder (encoder and mirrored decoder) and the default
    policy of an N x M scenario, as layer sizes."""
    enc = default_dims(n, m, out_dim)
    return [enc + enc[-2::-1],
            [enc[-1], *AgentConfig().hidden, n * (m + 1)]]


# +-0, the smallest subnormal and normal, where exp(-|z|) underflows to a
# subnormal and to 0, and +-inf
SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                 -2.2250738585072014e-308, 36.8, -36.8, 708.5, -708.5, 745.2,
                 -745.2, 800.0, -800.0, np.inf, -np.inf]


class TestKernels:
    """The forward pass against the forms its cheaper calls replaced
    (``tests/reference.py``), bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.floats(-800.0, 800.0)),
                    max_size=40))
    def test_sigmoid_matches_reference(self, values):
        z = np.array(values + SIGMOID_EDGES)
        kept = z.copy()
        got, want = _sigmoid(z), sigmoid_reference(z)
        assert_same_bits(z, kept)
        # a NaN's sign bit may differ between the two forms
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert_same_bits(got[~nan], want[~nan])

    @pytest.mark.parametrize("dims", [*layouts(10, 2), *layouts(30, 5, 75)],
                             ids=["ae-10x2", "policy-10x2", "ae-30x5",
                                  "policy-30x5"])
    @pytest.mark.parametrize("hidden", ACTIVATIONS)
    @pytest.mark.parametrize("output", ACTIVATIONS)
    def test_forward_matches_reference(self, dims, hidden, output):
        rng = np.random.default_rng(len(dims) + dims[-1])
        net = Network(mlp_specs(dims, hidden=hidden, output=output), rng=rng)
        for b in (1, 2, 7, 32, 64):
            x = rng.random((b, dims[0]))
            want = forward_reference(net, x)
            assert_same_bits(net.forward(x), want)
            assert_same_bits(net.forward_cached(x)[0], want)
            if b == 1:
                assert_same_bits(net.forward(x[0]), want[0])


class TestInPlace:
    """The flat, in-place training step against the per-layer whole-array
    expressions it replaced (``tests/reference.py``), bit for bit."""

    DIMS = ([6, 4, 3, 4, 6], [7, 9, 5], [3, 1])
    # 18 190 parameters: two whole Adam blocks and a partial one, whose
    # edges fall inside the first weight matrix and the second
    LARGE = [100, 90, 100]

    @pytest.mark.parametrize("dims", DIMS)
    @pytest.mark.parametrize("hidden", ACTIVATIONS)
    def test_backward_matches_reference(self, dims, hidden):
        rng = np.random.default_rng(len(dims))
        net = Network(mlp_specs(dims, hidden=hidden), rng=rng)
        for rows in (5, 1):
            x = rng.normal(size=(rows, dims[0]))
            out, cache = net.forward_cached(x)
            grad_out = rng.normal(size=out.shape)
            want = backward_reference(net, cache, grad_out)
            kept = grad_out.copy()
            assert_same_grads(net.backward(cache, grad_out), want)
            assert_same_bits(grad_out, kept)  # the caller's array is kept

    @pytest.mark.parametrize("lam", [0.0, 0.08, 3.0])
    def test_add_l2_matches_reference_and_adds_in_place(self, lam):
        rng = np.random.default_rng(1)
        net = Network(mlp_specs([6, 4, 6]), rng=rng)
        grad = random_grads(net, rng)
        want = add_l2_reference(net, lam, 0.25,
                                [(w.copy(), b.copy())
                                 for w, b in net.split(grad)])
        loss, got = net.add_l2(lam, 0.25, grad)
        assert loss == want[0]
        assert_same_grads(got, want[1])
        assert got is grad

    @pytest.mark.parametrize("dims", [*DIMS, LARGE])
    def test_l2_norm_sums_each_parameter_on_its_own(self, dims):
        net = Network(mlp_specs(dims), rng=np.random.default_rng(2))
        net.theta += 0.01  # biases too
        want = sum(float((w * w).sum() + (b * b).sum())
                   for w, b in zip(net.weights, net.biases))
        assert net.l2_norm_sq() == want

    @pytest.mark.parametrize("dims", [*DIMS, LARGE])
    @pytest.mark.parametrize("lr", [1e-3, 0.3])
    def test_adam_matches_reference_over_steps(self, dims, lr):
        rng = np.random.default_rng(sum(dims))
        net = Network(mlp_specs(dims, hidden="relu"), rng=rng)
        twin = Network(net.specs, weights=net.weights, biases=net.biases)
        opt, ref = Adam(net, lr=lr), per_layer_adam(twin, lr)
        for _ in range(6):
            grad = random_grads(net, rng)
            opt.step(grad)
            adam_step_reference(ref, net.split(grad))
            assert_same_params(net, twin)
            for moment in ("m", "v"):
                assert_same_grads(getattr(opt, moment), getattr(ref, moment))

    def test_large_net_spans_blocks(self):
        net = Network(mlp_specs(self.LARGE), rng=np.random.default_rng(0))
        assert 2 * ADAM_BLOCK < net.n_params() < 3 * ADAM_BLOCK

    def test_adam_holds_only_its_moments_between_steps(self):
        # the work buffers live within a step; between steps the optimiser,
        # and a copy of it, keeps its settings and its moments
        net = Network(mlp_specs([6, 4, 3, 4, 6]), rng=np.random.default_rng(0))
        opt = Adam(net)
        opt.step(random_grads(net, np.random.default_rng(1)))
        for held in (opt, copy.deepcopy(opt)):
            assert set(vars(held)) == {"net", "lr", "t", "m", "v"}
            assert held.m.shape == held.v.shape == (net.n_params(),)


def views_own_vector(net):
    """Whether every weight and bias is a view into ``net.theta``."""
    return all(p.base is net.theta
               for p in (*net.weights, *net.biases))


def deep_copy(obj):
    return copy.deepcopy(obj)


def pickle_copy(obj):
    return pickle.loads(pickle.dumps(obj))


class TestCopies:
    """A copy of a network, by deepcopy or pickle, trains as the original
    does, on a parameter vector of its own."""

    @pytest.mark.parametrize("clone", [deep_copy, pickle_copy])
    def test_network_and_adam_copies_train_alike(self, clone):
        rng = np.random.default_rng(4)
        net = Network(mlp_specs([5, 7, 3], hidden="relu"), rng=rng)
        opt = Adam(net, lr=0.05)
        opt.step(random_grads(net, rng))
        net_copy, opt_copy = clone((net, opt))
        assert opt_copy.net is net_copy and views_own_vector(net_copy)
        assert not np.shares_memory(net_copy.theta, net.theta)
        for _ in range(4):
            grad = random_grads(net, rng)
            opt.step(grad)
            opt_copy.step(grad.copy())
            assert_same_params(net, net_copy)
        assert views_own_vector(net_copy)
        # a write through a view of the copy reaches only the copy
        net_copy.weights[1][0, 0] = 9.0
        assert net_copy.theta[42] == 9.0 and net.theta[42] != 9.0

    @pytest.mark.parametrize("clone", [deep_copy, pickle_copy])
    def test_network_copy_alone_views_its_own_vector(self, clone):
        net = Network(mlp_specs([3, 4, 2]), rng=np.random.default_rng(5))
        twin = clone(net)
        assert views_own_vector(twin) and views_own_vector(net)
        assert_same_params(net, twin)


class TestOptimizers:
    def test_adam_first_step_is_lr_signed(self):
        # with bias correction the first update is exactly lr * sign(grad)
        # up to the eps term
        net = Network([LayerSpec(1, 1, "relu")],
                      weights=[np.array([[0.0]])], biases=[np.array([0.0])])
        opt = Adam(net, lr=0.1)
        opt.step(np.array([3.0, -2.0]))
        assert net.weights[0][0, 0] == pytest.approx(-0.1, rel=1e-6)
        assert net.biases[0][0] == pytest.approx(0.1, rel=1e-6)

    def test_adam_matches_reference_sequence(self):
        """Two steps of Adam against values computed from the update rule."""
        net = Network([LayerSpec(1, 1, "relu")],
                      weights=[np.array([[1.0]])], biases=[np.array([0.0])])
        opt = Adam(net, lr=0.5)
        g1, g2 = 2.0, -1.0

        m = v = 0.0
        w = 1.0
        for t, g in enumerate([g1, g2], start=1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** t)
            vhat = v / (1 - 0.999 ** t)
            w -= 0.5 * mhat / (np.sqrt(vhat) + 1e-8)

        opt.step(np.array([g1, 0.0]))
        opt.step(np.array([g2, 0.0]))
        assert net.weights[0][0, 0] == pytest.approx(w, rel=1e-12)

    def test_adam_converges_on_quadratic(self):
        net = Network([LayerSpec(1, 1, "relu")],
                      weights=[np.array([[5.0]])], biases=[np.array([0.0])])
        opt = Adam(net, lr=0.05)
        for _ in range(2000):
            w = net.weights[0][0, 0]
            opt.step(np.array([2.0 * (w - 1.0), 0.0]))
        assert net.weights[0][0, 0] == pytest.approx(1.0, abs=1e-4)


class TestDeterminism:
    def test_same_seed_same_network(self):
        a = Network(mlp_specs([4, 3, 2]), rng=np.random.default_rng(7))
        b = Network(mlp_specs([4, 3, 2]), rng=np.random.default_rng(7))
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)


class TestCheckpoints:
    def test_round_trip_preserves_everything(self, tmp_path):
        rng = np.random.default_rng(11)
        net = Network(mlp_specs([3, 5, 2], hidden="relu"), rng=rng)
        p = tmp_path / "net.json"
        save_checkpoint(net, p, seed=11, epoch=42)
        loaded, doc = load_checkpoint(p)
        assert doc["seed"] == 11 and doc["epoch"] == 42
        assert doc["extra"] == {}
        for wa, wb in zip(net.weights, loaded.weights):
            np.testing.assert_array_equal(wa, wb)
        x = rng.normal(size=(2, 3))
        np.testing.assert_array_equal(net.forward(x), loaded.forward(x))

    def test_save_load_save_byte_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        net = Network(mlp_specs([4, 4, 4]), rng=rng)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_checkpoint(net, p1, seed=1, epoch=1)
        loaded, _ = load_checkpoint(p1)
        save_checkpoint(loaded, p2, seed=1, epoch=1)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("doc", [
        "policy",
        {"b": [], "a": {}, "c": [[]], "d": [{}], "e": ({"z": 1, "y": [2]},)},
        {"s": ["a, b", "[x]", "{y}", "\u00e9\n"], "t": (1, 2.5, None, True),
         "f": [float("nan"), float("inf"), -0.0, np.float64(0.1), 10**20],
         "mix": [1, [2, {"z": 1, "a": [3]}], "x"], "deep": [[[1.5]], [[]]]},
    ], ids=["checkpoint", "empty-containers", "scalars-and-mixed-lists"])
    def test_write_json_is_indented_dumps(self, tmp_path, doc):
        """Every checkpoint's text is ``json.dumps(doc, sort_keys=True,
        indent=1)``'s, byte for byte, with a final line break."""
        if doc == "policy":
            net = Network(mlp_specs([7, 12, 9, 6], hidden="relu"),
                          rng=np.random.default_rng(15))
            doc = checkpoint_dict(net, 3, 8)
        p = tmp_path / "doc.json"
        write_json(p, doc)
        assert p.read_text() == json.dumps(doc, sort_keys=True, indent=1) + "\n"

    def test_rejects_foreign_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_checkpoint(p)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(13)
        net = Network(mlp_specs([3, 4, 2]), rng=rng)
        p = tmp_path / "policy.json"
        save_checkpoint(net, p, seed=1, epoch=1)
        before = p.read_bytes()

        def fail(src, dst):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            save_checkpoint(Network(mlp_specs([3, 4, 2]), rng=rng), p,
                            seed=1, epoch=2)
        assert p.read_bytes() == before
        loaded, doc = load_checkpoint(p)
        assert doc["epoch"] == 1
        np.testing.assert_array_equal(loaded.weights[0], net.weights[0])
        assert [q.name for q in tmp_path.iterdir()] == ["policy.json"]

    @staticmethod
    def tampered(tmp_path, edit):
        """A saved [3, 5, 4, 2] policy checkpoint after ``edit(doc)``."""
        net = Network(mlp_specs([3, 5, 4, 2]), rng=np.random.default_rng(14))
        p = tmp_path / "policy.json"
        save_checkpoint(net, p, seed=1, epoch=1)
        doc = json.loads(p.read_text())
        edit(doc)
        p.write_text(json.dumps(doc))
        return p

    def test_rejects_missing_layer_parameters(self, tmp_path):
        # loaded as a truncated [3, 5, 4] net, output width 4 instead of 2
        def drop_last(doc):
            del doc["weights"][-1], doc["biases"][-1]
        p = self.tampered(tmp_path, drop_last)
        with pytest.raises(ValueError, match=re.escape(str(p))):
            load_checkpoint(p)

    def test_rejects_broadcast_bias(self, tmp_path):
        def one_entry(doc):
            doc["biases"][0] = [0.5]
        p = self.tampered(tmp_path, one_entry)
        with pytest.raises(ValueError, match="do not fit the layers"):
            load_checkpoint(p)

    @pytest.mark.parametrize("edit, message", [
        (lambda layer: layer.update(activation="tanh"),
         "unknown activation 'tanh'"),
        (lambda layer: layer.update(activation="softmax"),
         "unknown activation 'softmax'"),
        (lambda layer: layer.update({"in": 0}),
         "layer dimensions must be positive"),
        (lambda layer: layer.pop("in"), "missing key 'in'"),
        (lambda layer: layer.update({"in": "3"}),
         "'<=' not supported between")],
        ids=["tanh", "softmax", "zero-width", "no-in", "string-in"])
    def test_rejects_a_malformed_layer_entry(self, tmp_path, edit, message):
        p = self.tampered(tmp_path, lambda doc: edit(doc["layers"][0]))
        with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
            load_checkpoint(p)

    def test_rejects_non_finite_weight(self, tmp_path):
        def nan(doc):
            doc["weights"][1][3] = float("nan")
        p = self.tampered(tmp_path, nan)
        with pytest.raises(ValueError,
                           match=re.escape(f"{p}: non-finite parameters")):
            load_checkpoint(p)

    @pytest.mark.parametrize("weights, biases", [
        ([np.eye(2)], [np.zeros(2), np.zeros(2)]),
        ([np.eye(2), np.eye(2)], [np.zeros(2), np.zeros(2)]),
        ([np.ones((2, 3))], [np.zeros(2)]),
        ([np.eye(2)], [np.zeros(1)])])
    def test_parameters_must_fit_the_layers(self, weights, biases):
        with pytest.raises(ValueError, match="do not fit the layers"):
            Network([LayerSpec(2, 2)], weights=weights, biases=biases)

    def test_l2_norm(self):
        net = Network([LayerSpec(2, 1, "relu")],
                      weights=[np.array([[3.0, 4.0]])], biases=[np.array([2.0])])
        assert net.l2_norm_sq() == pytest.approx(29.0)
        assert net.n_params() == 3

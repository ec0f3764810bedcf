import json
import os
import re

import numpy as np
import pytest

from edgesched.neural import (ACTIVATIONS, Adam, LayerSpec, Network,
                              checkpoint_dict, load_checkpoint, mlp_specs,
                              save_checkpoint, write_json)


def fd_gradients(net, x, loss_fn, h=1e-6):
    """Central finite differences of loss_fn(net.forward(x)) in every parameter."""
    grads = []
    for w, b in zip(net.weights, net.biases):
        dw = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss_fn(net.forward(x))
            w[idx] = orig - h
            down = loss_fn(net.forward(x))
            w[idx] = orig
            dw[idx] = (up - down) / (2 * h)
        db = np.zeros_like(b)
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + h
            up = loss_fn(net.forward(x))
            b[idx] = orig - h
            down = loss_fn(net.forward(x))
            b[idx] = orig
            db[idx] = (up - down) / (2 * h)
        grads.append((dw, db))
    return grads


def assert_grads_close(analytic, numeric, atol=1e-6):
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        np.testing.assert_allclose(aw, nw, atol=atol)
        np.testing.assert_allclose(ab, nb, atol=atol)


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
        acc = None
        for i in range(4):
            o, cache_i = net.forward_cached(x[i:i + 1])
            g = net.backward(cache_i, np.ones_like(o))
            if acc is None:
                acc = g
            else:
                acc = [(aw + gw, ab + gb)
                       for (aw, ab), (gw, gb) in zip(acc, g)]
        assert_grads_close(full, acc, atol=1e-12)


class TestOptimizers:
    def test_adam_first_step_is_lr_signed(self):
        # with bias correction the first update is exactly lr * sign(grad)
        # up to the eps term
        net = Network([LayerSpec(1, 1, "relu")],
                      weights=[np.array([[0.0]])], biases=[np.array([0.0])])
        opt = Adam(net, lr=0.1)
        opt.step([(np.array([[3.0]]), np.array([-2.0]))])
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

        opt.step([(np.array([[g1]]), np.array([0.0]))])
        opt.step([(np.array([[g2]]), np.array([0.0]))])
        assert net.weights[0][0, 0] == pytest.approx(w, rel=1e-12)

    def test_adam_converges_on_quadratic(self):
        net = Network([LayerSpec(1, 1, "relu")],
                      weights=[np.array([[5.0]])], biases=[np.array([0.0])])
        opt = Adam(net, lr=0.05)
        for _ in range(2000):
            w = net.weights[0][0, 0]
            opt.step([(np.array([[2.0 * (w - 1.0)]]), np.array([0.0]))])
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
        """``write_json`` lays the document out itself; the text must be
        ``json.dumps(doc, sort_keys=True, indent=1)``'s, byte for byte."""
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

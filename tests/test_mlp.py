from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wasnloc import mlp as mlp_module
from wasnloc.mlp import AdamConfig, AdamState, Mlp, MlpSpec, adam_step


def test_single_affine_layer():
    net = Mlp(2, MlpSpec((1,)), np.array([1.0, 1.0, 0.0]))  # W0 = [[1], [1]], b0 = [0]
    out, _ = net.forward(np.array([2.0, 3.0]))
    assert out.tolist() == [5.0]


def test_hidden_relu_clamps():
    # W0 = [[1], [-1]], b0 = [0], W1 = [[1]], b1 = [0]
    net = Mlp(2, MlpSpec((1, 1)), np.array([1.0, -1.0, 0.0, 1.0, 0.0]))
    out, cache = net.forward(np.array([1.0, 2.0]))
    assert cache["preacts"][0].tolist() == [[-1.0]]
    assert out.tolist() == [0.0]


def test_forward_matches_manual_matrix_chain():
    # independent oracle: explicit matrix arithmetic, no shared code path
    rng = np.random.default_rng(3)
    net = Mlp.init_random(7, MlpSpec((11, 9, 4)), rng, dtype=np.float64)
    x = rng.standard_normal(7)
    (w0, b0), (w1, b1), (w2, b2) = net.layers
    h1 = np.maximum(x @ w0 + b0, 0.0)
    h2 = np.maximum(h1 @ w1 + b1, 0.0)
    expected = h2 @ w2 + b2
    out, _ = net.forward(x)
    np.testing.assert_allclose(out, expected, rtol=1e-12)


def test_forward_batched_matches_loop():
    rng = np.random.default_rng(4)
    net = Mlp.init_random(5, MlpSpec((8, 3)), rng, dtype=np.float64)
    batch = rng.standard_normal((6, 5))
    out_batch, _ = net.forward(batch)
    for row, x in zip(out_batch, batch):
        single, _ = net.forward(x)
        np.testing.assert_allclose(row, single, rtol=1e-12)


def test_layers_are_views_of_flat_buffer():
    net = Mlp.init_random(5, MlpSpec((4, 3)), np.random.default_rng(2))
    (w0, b0), (w1, b1) = net.layers
    assert [w0.shape, b0.shape, w1.shape, b1.shape] == [(5, 4), (4,), (4, 3), (3,)]
    assert np.array_equal(net.flat, np.concatenate([w0.ravel(), b0, w1.ravel(), b1]))
    net.flat[:] = 0.0
    assert not w0.any() and not b1.any()


def test_buffer_size_mismatch_rejected():
    with pytest.raises(ValueError, match="buffer"):
        Mlp(2, MlpSpec((1,)), np.zeros(4))


def test_copy_owns_its_buffer_and_no_gradient():
    rng = np.random.default_rng(5)
    net = Mlp.init_random(3, MlpSpec((4, 2)), rng)
    out, cache = net.forward(rng.standard_normal(3).astype(np.float32))
    net.backward(cache, np.ones_like(out))
    twin = net.copy()
    assert twin.grad is None
    assert np.array_equal(twin.flat, net.flat) and not np.shares_memory(twin.flat, net.flat)


def test_input_size_mismatch():
    net = Mlp.init_random(5, MlpSpec((3,)), np.random.default_rng(0))
    with pytest.raises(ValueError):
        net.forward(np.zeros(4))


def test_init_bounds_and_zero_bias():
    rng = np.random.default_rng(8)
    net = Mlp.init_random(100, MlpSpec((50, 20)), rng, dtype=np.float64)
    (w0, b0), (w1, b1) = net.layers
    assert np.all(np.abs(w0) <= np.sqrt(6.0 / 100))
    assert np.all(np.abs(w1) <= np.sqrt(6.0 / 50))
    assert not b0.any() and not b1.any()


class TestBackward:
    def test_linear_mae_gradient_sign(self):
        # 1-layer linear net, L = |pred - target|: dL/dW = sign(p - t) * x
        net = Mlp(2, MlpSpec((1,)), np.array([0.5, 0.5, 0.0]))
        x = np.array([2.0, -3.0])
        pred, cache = net.forward(x)
        target = np.array([10.0])
        upstream = np.sign(pred - target)
        net.backward(cache, upstream)
        np.testing.assert_allclose(net.grad[:2], np.sign(pred - target) * x)  # dW0

    def test_zero_upstream_zero_grads(self):
        rng = np.random.default_rng(0)
        net = Mlp.init_random(4, MlpSpec((6, 2)), rng)
        out, cache = net.forward(rng.standard_normal(4).astype(np.float32))
        dx = net.backward(cache, np.zeros_like(out))
        assert not dx.any()
        assert net.grad.shape == net.flat.shape and not net.grad.any()

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_check(self, seed):
        rng = np.random.default_rng(seed)
        net = Mlp.init_random(6, MlpSpec((9, 5)), rng, dtype=np.float64)
        x = rng.standard_normal(6)
        target = rng.standard_normal(5)

        def loss():
            out, _ = net.forward(x)
            return float(np.mean(np.abs(out - target)))

        out, cache = net.forward(x)
        upstream = np.sign(out - target) / out.size
        net.backward(cache, upstream)

        h = 1e-5
        lo = 0  # flat offset of each W and b; every tenth element of each is checked
        for size in (p.size for layer in net.layers for p in layer):
            for idx in range(lo, lo + size, max(1, size // 10)):
                orig = net.flat[idx]
                net.flat[idx] = orig + h
                up = loss()
                net.flat[idx] = orig - h
                down = loss()
                net.flat[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - net.grad[idx]) <= 1e-4 * max(1.0, abs(fd))
            lo += size


class TestAdam:
    def test_first_step_hand_value(self):
        # g=1: m_hat=1, v_hat=1 -> dw = -lr / (1 + eps)
        p = [np.array([0.0])]
        state = AdamState(p)
        cfg = AdamConfig(lr=5e-4)
        adam_step(state, p, [np.array([1.0])], cfg)
        assert p[0][0] == pytest.approx(-5e-4 / (1.0 + 1e-8), rel=1e-12)

    def test_zero_gradient_no_change(self):
        p = [np.full(3, 7.0)]
        state = AdamState(p)
        for _ in range(5):
            adam_step(state, p, [np.zeros(3)], AdamConfig())
        assert np.array_equal(p[0], np.full(3, 7.0))

    def test_equal_gradients_equal_updates(self):
        p = [np.array([1.0, 1.0])]
        state = AdamState(p)
        adam_step(state, p, [np.array([0.3, 0.3])], AdamConfig())
        assert p[0][0] == p[0][1]

    def test_matches_reference_recurrence(self):
        # independent re-implementation of the update, scalar python
        rng = np.random.default_rng(11)
        p = [np.array([0.2])]
        state = AdamState(p)
        cfg = AdamConfig(lr=1e-3)
        w, m, v = 0.2, 0.0, 0.0
        for t in range(1, 8):
            g = float(rng.standard_normal())
            adam_step(state, p, [np.array([g])], cfg)
            m = cfg.beta1 * m + (1 - cfg.beta1) * g
            v = cfg.beta2 * v + (1 - cfg.beta2) * g * g
            m_hat = m / (1 - cfg.beta1**t)
            v_hat = v / (1 - cfg.beta2**t)
            w -= cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
            assert p[0][0] == pytest.approx(w, rel=1e-12)

    def test_non_contiguous_parameter_rejected(self):
        p = [np.zeros((4, 4))[:, ::2]]
        state = AdamState(p)
        with pytest.raises(ValueError, match="contiguous"):
            adam_step(state, p, [np.ones((4, 2))], AdamConfig())

    def test_shape_mismatch_rejected(self):
        p = [np.zeros(2)]
        state = AdamState(p)
        with pytest.raises(ValueError):
            adam_step(state, p, [np.zeros(2), np.zeros(2)], AdamConfig())


def _reference_backward(layers, cache, upstream):
    """Frozen copy of the per-layer backward pass Mlp used to run: fresh
    (dW, db) arrays per layer and the input gradient. The flat-buffer
    backward must write the same gradients bit for bit."""
    upstream = np.asarray(upstream)
    dz = upstream[None, :] if cache["squeeze"] else upstream
    grads = [None] * len(layers)
    for k in range(len(layers) - 1, -1, -1):
        if k < len(layers) - 1:
            dz = dz * (cache["preacts"][k] > 0)
        a_in = cache["inputs"][k]
        grads[k] = (a_in.T @ dz, dz.sum(axis=0))
        dz = dz @ layers[k][0].T
    d_input = dz[0] if cache["squeeze"] else dz
    return grads, d_input


def _reference_adam_step(state, params, grads, config):
    """Frozen copy of the untiled, one-array-at-a-time Adam update; ``state``
    is a dict with per-tensor lists "m" and "v" and the step count "t"."""
    state["t"] += 1
    b1, b2 = config.beta1, config.beta2
    bc1 = 1.0 - b1 ** state["t"]
    bc2 = 1.0 - b2 ** state["t"]
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        g = g.astype(p.dtype, copy=False)
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / bc1
        v_hat = v / bc2
        p -= config.lr * m_hat / (np.sqrt(v_hat) + config.eps)


def _flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


class TestFlatBufferReference:
    @settings(max_examples=60, deadline=None)
    @given(
        input_size=st.integers(1, 9),
        sizes=st.lists(st.integers(1, 9), min_size=1, max_size=4),
        rows=st.integers(0, 5),  # 0: a single vector
        dtype=st.sampled_from([np.float32, np.float64]),
        steps=st.integers(1, 4),
        tile=st.sampled_from([1, 7, 64, 65_536]),
        seed=st.integers(0, 2**16),
    )
    def test_bit_identical_to_per_layer_code(self, input_size, sizes, rows, dtype, steps, tile, seed):
        rng = np.random.default_rng(seed)
        net = Mlp.init_random(input_size, MlpSpec(tuple(sizes)), rng, dtype=dtype)
        ref = net.copy()
        ref_params = [p for layer in ref.layers for p in layer]
        cfg = AdamConfig(lr=float(rng.uniform(1e-4, 1e-1)))
        state = AdamState([net.flat])
        ref_state = {"m": [np.zeros_like(p) for p in ref_params], "v": [np.zeros_like(p) for p in ref_params], "t": 0}
        with mock.patch.object(mlp_module, "_ADAM_TILE", tile):
            for step in range(steps):
                shape = (input_size,) if rows == 0 else (rows, input_size)
                x = rng.standard_normal(shape).astype(dtype)
                out, cache = net.forward(x)
                ref_out, ref_cache = ref.forward(x)
                assert np.array_equal(out, ref_out)
                upstream = rng.standard_normal(out.shape).astype(dtype)
                want_input = step % 2 == 0
                d_input = net.backward(cache, upstream, input_grad=want_input)
                ref_grads, ref_d_input = _reference_backward(ref.layers, ref_cache, upstream)
                assert np.array_equal(net.grad, _flat(p for layer in ref_grads for p in layer))
                if want_input:
                    assert np.array_equal(d_input, ref_d_input)
                else:
                    assert d_input is None
                adam_step(state, [net.flat], [net.grad], cfg)
                _reference_adam_step(ref_state, ref_params, [p for layer in ref_grads for p in layer], cfg)
                assert np.array_equal(net.flat, ref.flat)
                assert np.array_equal(state.m[0], _flat(ref_state["m"]))
                assert np.array_equal(state.v[0], _flat(ref_state["v"]))

import numpy as np
import pytest

from oplora.errors import NonFiniteError, ShapeError, StaleCaptureError
from oplora.instrument import counters
from oplora.lowrank import FactorPair, truncated_svd
from oplora.matcore import gram
from oplora.nets import (LinearTask, LoraLinear, MlpTask, captures,
                         factor_grads, init_adapter_lora,
                         init_adapter_random, init_adapter_svd,
                         linear_task_grad, linear_task_grad_dense,
                         make_linear_target,
                         make_mlp_dataset, make_mlp_layers,
                         mlp_forward_backward, sample_batch)

from conftest import rng
from helpers import (assert_alloc_linear_in_side,
                     linear_task_grad_dense_reference, linear_task_loss,
                     mlp_loss, product_error, reset_counters,
                     truncated_svd_reference, weight_grad)


def random_layer(g, d_out=7, d_in=5, r=2, with_base=True):
    w0 = g.standard_normal((d_out, d_in)) if with_base else None
    pair = FactorPair(g.standard_normal((d_out, r)),
                      g.standard_normal((d_in, r)))
    return LoraLinear(w0, pair)


class TestForwardBackward:
    def test_zero_adapter_forward_is_base_only(self):
        g = rng(0)
        layer = random_layer(g)
        layer.adapter = FactorPair(np.zeros((7, 2)), np.zeros((5, 2)))
        x = g.standard_normal((4, 5))
        assert np.allclose(layer.forward(x), x @ layer.w0.T)

    def test_identity_probe_reads_low_rank_rows(self):
        g = rng(1)
        w = g.standard_normal((6, 6))
        layer = LoraLinear(np.zeros((6, 6)), truncated_svd(w, 2))
        out = layer.forward(np.eye(6))
        best = truncated_svd(w, 2)
        assert np.allclose(out, (best.u @ best.v.T).T, atol=1e-10)

    def test_forward_matches_dense_oracle(self):
        g = rng(2)
        layer = random_layer(g)
        x = g.standard_normal((4, 5))
        dense = layer.w0 + layer.adapter.u @ layer.adapter.v.T
        assert np.allclose(layer.forward(x), x @ dense.T, atol=1e-12)

    def test_backward_matches_dense_oracle_and_captures(self):
        g = rng(3)
        layer = random_layer(g)
        x = g.standard_normal((4, 5))
        s = g.standard_normal((4, 7))
        layer.forward(x)
        grad_in = layer.backward(s)
        dense = layer.w0 + layer.adapter.u @ layer.adapter.v.T
        assert np.allclose(grad_in, s @ dense, atol=1e-12)
        assert layer.captured_x is x and layer.captured_s is s

    def test_zero_output_gradient_gives_zero_grads(self):
        g = rng(4)
        layer = random_layer(g)
        layer.forward(g.standard_normal((3, 5)))
        layer.backward(np.zeros((3, 7)))
        g_u, g_v = factor_grads(layer)
        assert np.allclose(g_u, 0.0) and np.allclose(g_v, 0.0)

    def test_single_sample_outer_product(self):
        g = rng(5)
        layer = random_layer(g)
        x = np.zeros((1, 5))
        x[0, 2] = 1.0
        s = np.zeros((1, 7))
        s[0, 4] = 1.0
        layer.forward(x)
        layer.backward(s)
        grad = layer.captured_s.T @ layer.captured_x
        expected = np.zeros((7, 5))
        expected[4, 2] = 1.0
        assert np.allclose(grad, expected)

    def test_backward_without_forward_raises(self):
        layer = random_layer(rng(6))
        with pytest.raises(StaleCaptureError):
            layer.backward(np.zeros((2, 7)))

    def test_thin_allocations_only(self):
        g = rng(8)
        layer = random_layer(g, d_out=60, d_in=45, r=3, with_base=False)
        x = g.standard_normal((4, 45))
        reset_counters()
        layer.forward(x)
        layer.backward(g.standard_normal((4, 60)))
        factor_grads(layer)
        assert counters().peak_alloc < 60 * 45


class TestFactorGradientFiniteDifferences:
    def _linear_loss(self, task, u, v):
        return linear_task_loss(task, FactorPair(u, v))

    def test_linear_task_gradients(self):
        h, tol = 1e-6, 1e-5
        for seed in range(10):
            g = rng(seed)
            target = make_linear_target(8, 6, g)
            task = LinearTask(target)
            pair = init_adapter_random(8, 6, 3, g)
            layer = LoraLinear(None, pair)
            linear_task_grad(task, layer, np.arange(6))
            g_u, g_v = factor_grads(layer)
            fd_u = np.zeros_like(g_u)
            for i in range(g_u.shape[0]):
                for j in range(g_u.shape[1]):
                    up, dn = pair.u.copy(), pair.u.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd_u[i, j] = (self._linear_loss(task, up, pair.v)
                                  - self._linear_loss(task, dn, pair.v)) / (2 * h)
            assert np.linalg.norm(fd_u - g_u) <= tol * max(1.0, np.linalg.norm(g_u))
            fd_v = np.zeros_like(g_v)
            for i in range(g_v.shape[0]):
                for j in range(g_v.shape[1]):
                    up, dn = pair.v.copy(), pair.v.copy()
                    up[i, j] += h
                    dn[i, j] -= h
                    fd_v[i, j] = (self._linear_loss(task, pair.u, up)
                                  - self._linear_loss(task, pair.u, dn)) / (2 * h)
            assert np.linalg.norm(fd_v - g_v) <= tol * max(1.0, np.linalg.norm(g_v))

    @pytest.mark.parametrize("loss", ["mse", "cross_entropy"])
    def test_mlp_gradients(self, loss):
        h, tol = 1e-6, 1e-5
        task = MlpTask([6, 8, 5, 4], nonlinearity="tanh", loss=loss,
                       n_samples=12)
        g = rng(100)
        x, y = make_mlp_dataset(task, g)
        layers = make_mlp_layers(task, 2, g)
        for layer in layers:  # move off the zero-product init
            layer.adapter = FactorPair(layer.adapter.u,
                                       0.3 * g.standard_normal(layer.adapter.v.shape))
        mlp_forward_backward(task, layers, x, y)
        grads = [factor_grads(layer) for layer in layers]
        for li, layer in enumerate(layers):
            g_u, _ = grads[li]
            fd = np.zeros_like(g_u)
            for i in range(g_u.shape[0]):
                for j in range(g_u.shape[1]):
                    orig = layer.adapter.u[i, j]
                    layer.adapter.u[i, j] = orig + h
                    up = mlp_loss(task, layers, x, y)
                    layer.adapter.u[i, j] = orig - h
                    dn = mlp_loss(task, layers, x, y)
                    layer.adapter.u[i, j] = orig
                    fd[i, j] = (up - dn) / (2 * h)
            assert np.linalg.norm(fd - g_u) <= tol * max(1.0, np.linalg.norm(g_u))


class TestLinearTask:
    def test_exact_adapter_has_zero_loss_and_gradient(self):
        g = rng(9)
        pair = FactorPair(g.standard_normal((7, 2)), g.standard_normal((5, 2)))
        task = LinearTask(pair.u @ pair.v.T)
        layer = LoraLinear(None, pair)
        loss = linear_task_grad(task, layer, np.arange(5))
        assert loss <= 1e-20
        assert np.allclose(weight_grad(layer), 0.0, atol=1e-12)

    def test_zero_adapter_full_batch_loss(self):
        g = rng(10)
        target = make_linear_target(6, 4, g)
        task = LinearTask(target)
        pair = FactorPair(np.zeros((6, 2)), np.zeros((4, 2)))
        loss = linear_task_loss(task, pair)
        assert np.isclose(loss, 0.5 * np.sum(target ** 2))

    def test_gradient_pair_matches_dense_restriction(self):
        g = rng(11)
        target = make_linear_target(6, 5, g)
        task = LinearTask(target)
        pair = FactorPair(g.standard_normal((6, 2)), g.standard_normal((5, 2)))
        idx = np.array([1, 3])
        layer = LoraLinear(None, pair)
        linear_task_grad(task, layer, idx)
        dense = pair.u @ pair.v.T - target
        expected = np.zeros((6, 5))
        expected[:, idx] = (5 / 2) * dense[:, idx]
        assert np.allclose(weight_grad(layer), expected, atol=1e-12)

    def test_minibatch_estimator_is_unbiased(self):
        g = rng(12)
        target = make_linear_target(10, 40, g)
        task = LinearTask(target)
        layer = LoraLinear(None, FactorPair(g.standard_normal((10, 3)),
                                            g.standard_normal((40, 3))))
        full_loss = linear_task_grad(task, layer, np.arange(40))
        full_grad = weight_grad(layer)
        acc = np.zeros_like(full_grad)
        acc_loss = 0.0
        n_draws = 2000
        for _ in range(n_draws):
            idx = g.choice(40, size=12, replace=False)
            acc_loss += linear_task_grad(task, layer, idx)
            acc += weight_grad(layer)
        mean_grad = acc / n_draws
        rel = np.linalg.norm(mean_grad - full_grad) / np.linalg.norm(full_grad)
        assert rel < 0.05
        assert abs(acc_loss / n_draws - full_loss) < 0.05 * full_loss

    def test_prescribed_spectrum(self):
        g = rng(13)
        sv = [5.0, 3.0, 1.0, 0.5]
        target = make_linear_target(12, 9, g, singular_values=sv)
        got = np.linalg.svd(target, compute_uv=False)
        assert np.allclose(got[:4], sv, atol=1e-10)
        assert np.allclose(got[4:], 0.0, atol=1e-10)

    def test_sampler_draws_without_replacement(self):
        g = rng(14)
        idx = sample_batch(30, 10, g)
        assert idx.size == 10 and np.unique(idx).size == 10

    @pytest.mark.parametrize("size", [None, 30])
    def test_full_batch_is_every_index_in_order_without_a_draw(self, size):
        g = rng(14)
        before = g.bit_generator.state
        assert np.array_equal(sample_batch(30, size, g), np.arange(30))
        assert g.bit_generator.state == before

    @pytest.mark.parametrize("size", [0, -1, 31])
    def test_batch_size_out_of_range_rejected(self, size):
        with pytest.raises(ShapeError, match="batch size"):
            sample_batch(30, size, rng(14))

    def test_captures_are_column_selection_and_rescaled_residual(self):
        g = rng(17)
        target = make_linear_target(5, 6, g)
        pair = FactorPair(g.standard_normal((5, 2)), g.standard_normal((6, 2)))
        layer = LoraLinear(None, pair)
        idx = np.array([4, 0, 2])
        loss = linear_task_grad(LinearTask(target), layer, idx)
        resid = (pair.u @ pair.v.T - target)[:, idx]
        x, s = captures(layer)
        assert np.array_equal(x, np.eye(6)[idx])
        assert np.allclose(s, (6 / 3) * resid.T, atol=1e-12)
        assert np.isclose(loss, 0.5 * (6 / 3) * np.sum(resid ** 2))

    def test_pass_and_captures_allocate_linearly_in_the_side(self):
        # the one-hot X grows with d_in; a d_in x d_in identity would not
        def calls_at(side):
            g = rng(side)
            task = LinearTask(g.standard_normal((side, side)))
            layer = LoraLinear(None, FactorPair(g.standard_normal((side, 4)),
                                                g.standard_normal((side, 4))))

            def call():
                linear_task_grad(task, layer, sample_batch(side, 16, g))
                captures(layer)
            for _ in range(3):
                yield call

        assert_alloc_linear_in_side(calls_at)

    def test_bad_indices_rejected(self):
        g = rng(15)
        task = LinearTask(make_linear_target(5, 4, g))
        layer = LoraLinear(None, FactorPair(np.zeros((5, 1)),
                                            np.zeros((4, 1))))
        with pytest.raises(ShapeError):
            linear_task_grad(task, layer, [4])

    def test_dense_gradient_counts_a_repeated_index_per_occurrence(self):
        task = LinearTask(rng(18).standard_normal((3, 4)))
        idx = [1, 1, 2]
        w = np.zeros((3, 4))
        grad, _ = linear_task_grad_dense(task, w, idx)
        layer = LoraLinear(None, FactorPair(np.zeros((3, 1)),
                                            np.zeros((4, 1))))
        linear_task_grad(task, layer, idx)
        assert np.allclose(grad, weight_grad(layer), rtol=0, atol=1e-15)
        h = 1e-6
        fd = np.zeros_like(w)
        for i, j in np.ndindex(w.shape):
            step = np.zeros_like(w)
            step[i, j] = h
            up = linear_task_grad_dense(task, w + step, idx)[1]
            dn = linear_task_grad_dense(task, w - step, idx)[1]
            fd[i, j] = (up - dn) / (2 * h)
        assert np.allclose(grad, fd, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("shape", [(4, 4), (3, 6), (3, 3)])
    def test_dense_iterate_must_match_the_target(self, shape):
        task = LinearTask(np.ones((3, 4)))
        with pytest.raises(ShapeError, match="iterate shape"):
            linear_task_grad_dense(task, np.zeros(shape), [0, 1])


# (d_out, d_in, the indices or a batch size to draw)
DENSE_REFERENCE_CASES = {
    "repeated_index": (5, 4, [1, 3, 1, 1]),
    "full_batch": (24, 16, None),
    "minibatch_600x200": (600, 200, 64),
}


class TestDenseGradientReference:
    """``weight_grad`` after the pass equals the standalone dense residual
    and scatter loop array for array: the golden gate's tolerance would
    not catch a gradient that changed only by rounding."""

    @pytest.mark.parametrize("layer_kind", ["adapter", "w0", "w0_adapter"])
    @pytest.mark.parametrize("case", DENSE_REFERENCE_CASES)
    def test_weight_grad_equals_the_dense_loop(self, case, layer_kind):
        d_out, d_in, batch = DENSE_REFERENCE_CASES[case]
        g = rng(40)
        task = LinearTask(g.standard_normal((d_out, d_in)))
        idx = batch if isinstance(batch, list) else sample_batch(d_in, batch,
                                                                 g)
        # small integer factors: their product is exact in any order
        r = 0 if layer_kind == "w0" else 3
        pair = FactorPair(g.integers(-3, 4, (d_out, r)).astype(np.float64),
                          g.integers(-3, 4, (d_in, r)).astype(np.float64))
        w = pair.u @ pair.v.T
        w0 = None
        if layer_kind != "adapter":
            w0 = g.standard_normal((d_out, d_in))
            w = w0 + w
        layer = LoraLinear(w0, pair)
        loss = linear_task_grad(task, layer, idx)
        grad, ref_loss = linear_task_grad_dense_reference(task, w, idx)
        assert np.array_equal(weight_grad(layer), grad)
        assert loss == pytest.approx(ref_loss, rel=1e-14)
        if w0 is not None and r == 0:
            assert np.array_equal(linear_task_grad_dense(task, w0, idx)[0],
                                  grad)


@pytest.mark.parametrize("dense", [False, True], ids=["thin", "dense"])
class TestColumnSampling:
    """Both linear-task gradients gather the sampled target columns in
    index order: at a zero iterate, sampled column j of the gradient is
    ``-(d_in / B)`` times target column ``idx[j]``."""

    def _columns(self, dense, target, idx):
        task = LinearTask(target)
        d_out, d_in = target.shape
        if dense:
            grad, _ = linear_task_grad_dense(task, np.zeros((d_out, d_in)),
                                             idx)
            # the columns that were not sampled get no gradient
            assert not np.delete(grad, idx, axis=1).any()
            return grad[:, idx]
        layer = LoraLinear(None, FactorPair(np.zeros((d_out, 1)),
                                            np.zeros((d_in, 1))))
        linear_task_grad(task, layer, idx)
        return layer.captured_s.T

    def test_identity_selection(self, dense):
        w = rng(12).standard_normal((4, 6))
        assert np.array_equal(self._columns(dense, w, np.arange(6)), -w)

    def test_single_column(self, dense):
        w = rng(13).standard_normal((4, 6))
        assert np.array_equal(self._columns(dense, w, [0]),
                              6.0 * -w[:, [0]])

    def test_subset_shape(self, dense):
        w = rng(14).standard_normal((10, 200))
        idx = rng(15).choice(200, size=64, replace=False)
        cols = self._columns(dense, w, idx)
        assert cols.shape == (10, 64)
        assert np.array_equal(cols, (200 / 64) * -w[:, idx])

    def test_duplicates_permitted(self, dense):
        w = rng(16).standard_normal((3, 4))
        out = self._columns(dense, w, [1, 1, 2])
        assert np.array_equal(out[:, 0], out[:, 1])

    def test_out_of_range(self, dense):
        w = np.ones((2, 3))
        with pytest.raises(ShapeError):
            self._columns(dense, w, [3])
        with pytest.raises(ShapeError):
            self._columns(dense, w, [-1])

    def test_empty_indices_rejected(self, dense):
        with pytest.raises(ShapeError, match="nonempty"):
            self._columns(dense, np.ones((2, 3)), [])

    @pytest.mark.parametrize("idx", [[1.7, 2.2], [1.0, 2.0],
                                     [True, False, True, False]],
                             ids=["fractional", "integral_float", "mask"])
    def test_non_integer_indices_rejected(self, dense, idx):
        # a float would be truncated to a column, a mask read as 1s and 0s
        with pytest.raises(ShapeError, match="integers"):
            self._columns(dense, np.ones((3, 4)), idx)


class TestAdapterInits:
    def test_svd_init_is_oracle(self):
        g = rng(16)
        target = make_linear_target(9, 6, g)
        pair = init_adapter_svd(target, 3)
        oracle = truncated_svd(target, 3)
        assert np.allclose(pair.u, oracle.u)

    def test_random_init_has_unit_spectral_scale(self):
        g = rng(17)
        pair = init_adapter_random(20, 15, 4, g)
        top = np.linalg.svd(pair.u @ pair.v.T, compute_uv=False)[0]
        assert top <= 1.0 + 1e-9

    def test_random_init_scales_by_the_top_singular_value(self):
        # one truncated SVD, whose balanced factors carry sigma_1, instead
        # of a separate full SVD for the spectral norm
        pair = init_adapter_random(20, 15, 4, rng(17))
        m = rng(17).standard_normal((20, 15))
        ref = truncated_svd_reference(m / np.linalg.norm(m, 2), 4)
        assert product_error(pair, ref) <= 1e-12
        assert abs(pair.u[:, 0] @ pair.u[:, 0] - 1.0) <= 1e-12
        assert np.allclose(gram(pair.u), gram(pair.v), rtol=0, atol=1e-12)

    def test_lora_init_has_zero_product(self):
        g = rng(18)
        pair = init_adapter_lora(8, 6, 3, g)
        assert np.allclose(pair.u @ pair.v.T, 0.0)
        assert np.linalg.matrix_rank(pair.u) == 3


class TestMlpTask:
    def test_single_layer_mse_is_linear_regression(self):
        task = MlpTask([5, 3], loss="mse", n_samples=16)
        g = rng(19)
        x, y = make_mlp_dataset(task, g)
        layers = make_mlp_layers(task, 2, g)
        layer = layers[0]
        layer.adapter = FactorPair(0.3 * g.standard_normal((3, 2)),
                                   0.3 * g.standard_normal((5, 2)))
        mlp_forward_backward(task, layers, x, y)
        dense_w = layer.w0 + layer.adapter.u @ layer.adapter.v.T
        resid = x @ dense_w.T - y
        expected = resid.T @ x / x.shape[0]
        got = layer.captured_s.T @ layer.captured_x
        assert np.allclose(got, expected, atol=1e-12)

    def test_zero_network_cross_entropy_is_log2(self):
        task = MlpTask([4, 6, 2], loss="cross_entropy", n_samples=10)
        g = rng(20)
        x, y = make_mlp_dataset(task, g)
        layers = []
        for d_in, d_out in zip(task.dims[:-1], task.dims[1:]):
            layers.append(LoraLinear(np.zeros((d_out, d_in)),
                                     FactorPair(np.zeros((d_out, 1)),
                                                np.zeros((d_in, 1)))))
        loss = mlp_forward_backward(task, layers, x, y)
        assert np.isclose(loss, np.log(2.0), atol=1e-9)

    def test_all_layers_capture(self):
        task = MlpTask([6, 5, 4], n_samples=8)
        g = rng(21)
        x, y = make_mlp_dataset(task, g)
        layers = make_mlp_layers(task, 2, g)
        mlp_forward_backward(task, layers, x, y)
        for layer in layers:
            assert layer.captured_x is not None
            assert layer.captured_s is not None

    def test_cross_entropy_is_finite_for_a_large_logit_gap(self):
        # logits (400, -400): the label's softmax probability underflows
        task = MlpTask([1, 2], loss="cross_entropy", n_samples=1)
        layer = LoraLinear(np.array([[400.0], [-400.0]]),
                           FactorPair(np.zeros((2, 1)), np.zeros((1, 1))))
        loss = mlp_forward_backward(task, [layer], np.ones((1, 1)),
                                    np.array([1]))
        assert loss == pytest.approx(800.0, rel=1e-12)
        assert np.allclose(layer.captured_s, [[1.0, -1.0]])

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.parametrize("nonlinearity", ["relu", "tanh"])
    def test_overflowed_pre_activation_raises(self, nonlinearity):
        # x @ w0^T overflows to -inf in the hidden layer, which relu
        # would turn into 0 and tanh into -1 before the loss sees it
        task = MlpTask([2, 2, 2], nonlinearity, "mse", 4)
        zero = FactorPair(np.zeros((2, 1)), np.zeros((2, 1)))
        layers = [LoraLinear(np.array([[-1e308, -1e308], [1.0, 1.0]]), zero),
                  LoraLinear(np.eye(2), zero)]
        with pytest.raises(NonFiniteError, match="pre-activation"):
            mlp_forward_backward(task, layers, np.ones((4, 2)),
                                 np.zeros((4, 2)))

    def test_dense_layer_matches_lora_with_zero_adapter(self):
        # the full baseline's layer: a rank-0 adapter adds exact zeros
        g = rng(22)
        w = g.standard_normal((5, 4))
        dense = LoraLinear(w, FactorPair(np.zeros((5, 0)), np.zeros((4, 0))))
        x = g.standard_normal((3, 4))
        assert np.array_equal(dense.forward(x), x @ w.T)
        s = g.standard_normal((3, 5))
        assert np.array_equal(dense.backward(s), s @ w)
        assert np.array_equal(weight_grad(dense), s.T @ x)

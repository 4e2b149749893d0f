import math
import sys

import numpy as np
import pytest

from oplora import optim
from oplora.errors import (ConvergenceError, NonFiniteError, ShapeError,
                           SingularMetricError, StaleCaptureError)
from oplora.instrument import counters
from oplora.lowrank import (FactorPair, _unchecked_pair, product_distance,
                            truncated_svd)
from oplora.nets import (LinearTask, LoraLinear, linear_task_grad,
                         linear_task_grad_dense, make_linear_target)

from conftest import rng
from helpers import (assert_alloc_linear_in_side, copy_pair, gradient_layer,
                     materialize, momentum_update_naive, pair_scalar_count,
                     reset_counters, state_scalar_count)


def well_conditioned_pair(g, d_out, d_in, r):
    """Factors with singular values close to one on both sides."""
    qu, _ = np.linalg.qr(g.standard_normal((d_out, r)))
    qv, _ = np.linalg.qr(g.standard_normal((d_in, r)))
    su = 1.0 + 0.2 * g.uniform(-1, 1, r)
    sv = 1.0 + 0.2 * g.uniform(-1, 1, r)
    return FactorPair(qu * su, qv * sv)


def make_layer(g, d_out=12, d_in=9, r=3, batch=5):
    layer = LoraLinear(None, well_conditioned_pair(g, d_out, d_in, r))
    layer.captured_x = g.standard_normal((batch, d_in))
    layer.captured_s = g.standard_normal((batch, d_out))
    return layer


def oplora_state(eta, **kw):
    defaults = dict(alpha=0.0, lam=1e-3, beta=1.0,
                    delta=1e-4, num_iters=1)
    defaults.update(kw)
    return optim.OploraState(optim.OploraConfig(eta=eta, **defaults),
                             init_seed=0)


class TestOploraConfig:
    @pytest.mark.parametrize("name", ["lam", "delta"])
    def test_nan_weight_rejected(self, name):
        with pytest.raises(ShapeError, match=f"{name} must be nonnegative"):
            optim.OploraConfig(eta=0.1, **{name: float("nan")})

    @pytest.mark.parametrize("eta", [float("nan"), -0.1, float("inf"), 0.0])
    def test_bad_step_size_rejected(self, eta):
        with pytest.raises(ShapeError, match="eta must be positive"):
            optim.OploraConfig(eta=eta)

    @pytest.mark.parametrize("name, value", [
        ("momentum_rank", 0), ("momentum_rank", -3), ("momentum_rank", 2.5),
        ("metric_rank", 0), ("metric_rank", -3), ("metric_rank", 2.5),
        ("num_iters", 0), ("num_iters", 1.5), ("num_iters", None),
        ("num_iters", True)])
    def test_bad_count_rejected(self, name, value):
        with pytest.raises(ShapeError, match=f"{name} must be an integer"):
            optim.OploraConfig(eta=0.1, **{name: value})

    def test_counts_accept_ints_and_default_ranks(self):
        cfg = optim.OploraConfig(eta=0.1, num_iters=np.int64(2),
                                 momentum_rank=3, metric_rank=None)
        assert (cfg.num_iters, cfg.momentum_rank, cfg.metric_rank) == (
            2, 3, None)

    def test_zero_delta_needs_beta_one(self):
        with pytest.raises(ShapeError, match="delta must be positive"):
            optim.OploraConfig(eta=0.1, beta=0.9, delta=0.0)
        assert optim.OploraConfig(eta=0.1, beta=1.0, delta=0.0).delta == 0.0


class TestOploraStep:
    def test_one_step_simultaneous_matches_prec_lora(self):
        for seed in range(5):
            g = rng(seed)
            layer_a = make_layer(g)
            layer_b = LoraLinear(None, copy_pair(layer_a.adapter))
            layer_b.captured_x = layer_a.captured_x
            layer_b.captured_s = layer_a.captured_s
            eta, lam = 0.2, 1e-12
            state = oplora_state(eta, lam=lam, mode="simultaneous")
            out = optim.oplora_step(layer_a, state)
            ref = optim.prec_lora_step(layer_b, eta, lam * eta)
            assert np.allclose(out.u, ref.u, atol=1e-6)
            assert np.allclose(out.v, ref.v, atol=1e-6)

    def test_one_step_recovery_is_linear_in_lambda(self):
        g = rng(42)
        base = make_layer(g)
        x, s = base.captured_x, base.captured_s

        def run(lam):
            layer = LoraLinear(None, copy_pair(base.adapter))
            layer.captured_x, layer.captured_s = x, s
            state = oplora_state(0.2, lam=lam, mode="simultaneous")
            return optim.oplora_step(layer, state)

        layer = LoraLinear(None, copy_pair(base.adapter))
        layer.captured_x, layer.captured_s = x, s
        ref = optim.prec_lora_step(layer, 0.2, 0.0)
        eps_values = [1e-6, 1e-9, 1e-12]
        devs = []
        for eps in eps_values:
            out = run(eps)
            devs.append(max(np.max(np.abs(out.u - ref.u)),
                            np.max(np.abs(out.v - ref.v))))
        c = 2.0 * devs[0] / eps_values[0]
        for eps, dev in zip(eps_values, devs):
            assert dev <= c * eps + 5e-13

    def test_zero_gradient_is_proximal_fixed_point(self):
        g = rng(1)
        layer = make_layer(g)
        layer.captured_s = np.zeros_like(layer.captured_s)
        before = copy_pair(layer.adapter)
        out = optim.oplora_step(layer, oplora_state(0.5))
        assert product_distance(out, before) <= 1e-9

    def test_first_step_with_momentum_is_bit_identical(self):
        g = rng(2)
        layer_a = make_layer(g)
        layer_b = LoraLinear(None, copy_pair(layer_a.adapter))
        layer_b.captured_x = layer_a.captured_x.copy()
        layer_b.captured_s = layer_a.captured_s.copy()
        out_a = optim.oplora_step(layer_a, oplora_state(0.3, alpha=0.0))
        out_b = optim.oplora_step(layer_b, oplora_state(0.3, alpha=0.5))
        assert np.array_equal(out_a.u, out_b.u)
        assert np.array_equal(out_a.v, out_b.v)

    def test_stale_captures_raise(self):
        g = rng(3)
        layer = make_layer(g)
        state = oplora_state(0.1)
        optim.oplora_step(layer, state)
        with pytest.raises(StaleCaptureError):
            optim.oplora_step(layer, state)

    def test_failed_step_leaves_state_and_layer_untouched(self):
        g = rng(4)
        layer = LoraLinear(None, FactorPair(np.zeros((6, 2)),
                                            np.zeros((5, 2))))
        layer.captured_x = g.standard_normal((3, 5))
        layer.captured_s = g.standard_normal((3, 6))
        state = oplora_state(0.1, alpha=0.5, lam=0.0)
        with pytest.raises(SingularMetricError):
            optim.oplora_step(layer, state)
        assert state.momentum is None
        assert np.all(layer.adapter.u == 0.0)
        assert layer.captured_x is not None  # captures not consumed

    def test_same_seed_same_trajectory(self):
        g = rng(5)
        layer_a = make_layer(g)
        layer_b = LoraLinear(None, copy_pair(layer_a.adapter))
        layer_b.captured_x = layer_a.captured_x.copy()
        layer_b.captured_s = layer_a.captured_s.copy()
        sa = oplora_state(0.3, alpha=0.5)
        sb = oplora_state(0.3, alpha=0.5)
        out_a = optim.oplora_step(layer_a, sa)
        out_b = optim.oplora_step(layer_b, sb)
        assert np.array_equal(out_a.u, out_b.u)
        assert np.array_equal(sa.momentum.u, sb.momentum.u)

    def test_no_dense_alloc_on_hot_path(self):
        # delta = 1 keeps the projector-complement amplification of the
        # scaled metric bounded; tiny delta makes the inverse ~1/delta
        # off the tracked subspace
        def fresh_state():
            return oplora_state(0.2, alpha=0.5, beta=0.95, delta=1.0,
                                num_iters=2)

        g = rng(6)
        layer = make_layer(g, d_out=40, d_in=25, r=4, batch=6)
        state = fresh_state()
        for _ in range(3):
            reset_counters()
            optim.oplora_step(layer, state)
            assert counters().peak_alloc < 40 * 25
            layer.captured_x = g.standard_normal((6, 25))
            layer.captured_s = g.standard_normal((6, 40))

        def calls_at(side):
            g = rng(side)
            layer = make_layer(g, d_out=side, d_in=side // 3, r=4, batch=6)
            state = fresh_state()
            for _ in range(3):
                layer.captured_x = g.standard_normal((6, side // 3))
                layer.captured_s = g.standard_normal((6, side))
                yield lambda: optim.oplora_step(layer, state)

        assert_alloc_linear_in_side(calls_at)


class TestOracleApproach:
    def _setup(self):
        g = rng(30)
        head = np.linspace(8.0, 4.0, 8)
        tail = 2.0 * 0.8 ** np.arange(12)  # spectrum gap of 2 at rank 8
        target = make_linear_target(60, 20, g,
                                    singular_values=list(head) + list(tail))
        g2 = rng(31)
        qu, _ = np.linalg.qr(g2.standard_normal((60, 8)))
        qv, _ = np.linalg.qr(g2.standard_normal((20, 8)))
        init = FactorPair(qu, qv)
        return LinearTask(target), init

    def _reference(self, task, init, steps):
        pair, momentum = init, np.zeros(task.target.shape)
        idx = np.arange(task.d_in)
        iterates = []
        for _ in range(steps):
            grad, _ = linear_task_grad_dense(task, materialize(pair), idx)
            pair = optim.svdlora_step(gradient_layer(pair, grad), momentum,
                                      0.5, 0.0)
            iterates.append(materialize(pair))
        return iterates

    def _alternating(self, task, init, steps, k):
        from oplora.lowrank import product_distance_to_dense
        layer = LoraLinear(None, copy_pair(init))
        state = optim.OploraState(
            optim.OploraConfig(eta=0.5, alpha=0.0, lam=1e-3, num_iters=k),
            init_seed=0)
        idx = np.arange(task.d_in)
        refs = self._reference(task, init, steps)
        dists = []
        for t in range(steps):
            linear_task_grad(task, layer, idx)
            optim.oplora_step(layer, state)
            dists.append(product_distance_to_dense(layer.adapter, refs[t]))
        return dists, refs

    def test_distance_after_20_steps_nonincreasing_in_k(self):
        task, init = self._setup()
        finals = []
        for k in (1, 2, 4, 8):
            dists, _ = self._alternating(task, init, 20, k)
            finals.append(dists[-1])
        for a, b in zip(finals, finals[1:]):
            assert b <= a + 1e-10

    def test_tracks_projection_reference_over_50_steps(self):
        task, init = self._setup()
        dists, refs = self._alternating(task, init, 50, 8)
        assert dists[-1] <= 0.05 * np.linalg.norm(refs[-1])


class TestMomentumLor:
    def test_constant_gradient_geometric_series(self):
        g = rng(7)
        d_out, d_in, r = 14, 10, 3
        gl = g.standard_normal((d_out, r))
        gr = g.standard_normal((d_in, r))
        grad = gl @ gr.T
        state = oplora_state(0.1, alpha=0.5, momentum_rank=r, num_iters=1)
        momentum = optim._init_momentum(d_out, d_in, r, 0)
        dense = np.zeros((d_out, d_in))  # independent dense recursion
        for _ in range(20):
            momentum = optim.momentum_update_lor(state, momentum, gl, gr)
            dense = 0.5 * dense + grad
            approx = materialize(momentum)
            assert np.linalg.norm(approx - dense) <= 1e-6 * np.linalg.norm(dense)

    def test_alpha_zero_tracks_current_gradient(self):
        # gradient of rank <= buffer rank, so the best approximation is exact
        g = rng(8)
        state = oplora_state(0.1, alpha=0.0, num_iters=4)
        gl = g.standard_normal((12, 3))
        gr = g.standard_normal((9, 3))
        momentum = optim._init_momentum(12, 9, 3, 0)
        momentum = optim.momentum_update_lor(state, momentum, gl, gr)
        oracle = materialize(truncated_svd(gl @ gr.T, 3))
        got = materialize(momentum)
        assert np.linalg.norm(got - oracle) <= 1e-6 * np.linalg.norm(oracle)

    def test_zero_gradient_keeps_zero_product(self):
        state = oplora_state(0.1, alpha=0.5)
        momentum = optim._init_momentum(8, 6, 2, 0)
        zero_l, zero_r = np.zeros((8, 1)), np.zeros((6, 1))
        for _ in range(3):
            momentum = optim.momentum_update_lor(state, momentum,
                                                 zero_l, zero_r)
            assert np.allclose(materialize(momentum), 0.0)

    @pytest.mark.parametrize("alpha", [0.0, 0.75])
    def test_pair_and_raw_gradient_agree_bit_for_bit(self, alpha):
        # oplora_step passes its captured gradient as one unchecked pair
        g = rng(61)
        state = oplora_state(0.1, alpha=alpha, num_iters=2)
        s, x = g.standard_normal((16, 14)), g.standard_normal((16, 10))
        momentum = optim._init_momentum(14, 10, 3, 0)
        pair = _unchecked_pair(s.T, x.T)
        for _ in range(3):
            raw = optim.momentum_update_lor(state, momentum, s.T, x.T)
            paired = optim.momentum_update_lor(state, momentum, pair)
            assert np.array_equal(paired.u, raw.u)
            assert np.array_equal(paired.v, raw.v)
            momentum = raw


class TestPrecLora:
    def test_zero_gradient_identity(self):
        g = rng(9)
        layer = make_layer(g)
        layer.captured_s = np.zeros_like(layer.captured_s)
        before = copy_pair(layer.adapter)
        out = optim.prec_lora_step(layer, 0.4, 1e-3)
        assert np.allclose(out.u, before.u, atol=1e-12)
        assert np.allclose(out.v, before.v, atol=1e-12)

    def test_orthonormal_factors_reduce_to_plain_step(self):
        g = rng(10)
        qu, _ = np.linalg.qr(g.standard_normal((12, 3)))
        qv, _ = np.linalg.qr(g.standard_normal((9, 3)))
        layer = LoraLinear(None, FactorPair(qu, qv))
        layer.captured_x = g.standard_normal((5, 9))
        layer.captured_s = g.standard_normal((5, 12))
        grad = layer.captured_s.T @ layer.captured_x
        eta = 0.3
        exp_u = qu - eta * grad @ qv
        exp_v = qv - eta * grad.T @ qu
        out = optim.prec_lora_step(layer, eta, 0.0)
        assert np.allclose(out.u, exp_u, atol=1e-10)
        assert np.allclose(out.v, exp_v, atol=1e-10)

    def test_matches_dense_oracle(self):
        g = rng(11)
        layer = make_layer(g)
        u, v = layer.adapter.u.copy(), layer.adapter.v.copy()
        grad = layer.captured_s.T @ layer.captured_x
        eta, lam = 0.25, 1e-3
        eye = np.eye(3)
        exp_u = u - eta * grad @ v @ np.linalg.inv(v.T @ v + lam * eye)
        exp_v = v - eta * grad.T @ u @ np.linalg.inv(u.T @ u + lam * eye)
        out = optim.prec_lora_step(layer, eta, lam)
        assert np.allclose(out.u, exp_u, atol=1e-10)
        assert np.allclose(out.v, exp_v, atol=1e-10)


class TestSvdLora:
    def test_full_rank_recovery_in_one_step(self):
        g = rng(12)
        target = g.standard_normal((7, 5))
        zero = FactorPair(np.zeros((7, 5)), np.zeros((5, 5)))
        pair = optim.svdlora_step(gradient_layer(zero, -target),
                                  np.zeros((7, 5)), eta=1.0, alpha=0.0)
        assert np.linalg.norm(materialize(pair) - target) \
            <= 1e-8 * np.linalg.norm(target)

    def test_truncation_keeps_top_diagonal(self):
        zero = FactorPair(np.zeros((4, 2)), np.zeros((4, 2)))
        grad = -np.diag([5.0, 3.0, 2.0, 1.0])
        pair = optim.svdlora_step(gradient_layer(zero, grad),
                                  np.zeros((4, 4)), eta=1.0, alpha=0.0)
        assert np.allclose(materialize(pair), np.diag([5.0, 3.0, 0.0, 0.0]),
                           atol=1e-10)

    def test_step_charges_the_rebuilt_iterate(self):
        g = rng(14)
        d_out, d_in, r = 30, 20, 4
        w = g.standard_normal((d_out, d_in))
        grad = g.standard_normal((d_out, d_in))
        reset_counters()
        pair = truncated_svd(w, r)
        svd_flops = counters().flops
        reset_counters()
        optim.svdlora_step(gradient_layer(pair, grad), np.zeros_like(w),
                           eta=0.1, alpha=0.0)
        # the dense product U V^T that rebuilds the iterate, then the SVD
        assert counters().flops >= svd_flops + 2 * d_out * r * d_in

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "neg_inf"])
    @pytest.mark.parametrize("index", [False, True],
                             ids=["dense_x", "index_x"])
    def test_rejected_gradient_leaves_the_momentum(self, index, value):
        # the gradient is read from the captures, whose shapes the pass
        # fixed; a non-finite S is rejected before the momentum is touched
        g = rng(15)
        pair = well_conditioned_pair(g, 4, 5, 2)
        layer = gradient_layer(pair, g.standard_normal((4, 5)))
        if index:
            layer.captured_x = np.arange(5)
        layer.captured_s[1, 2] = value
        momentum = g.standard_normal((4, 5))
        before = momentum.copy()
        with pytest.raises(NonFiniteError):
            optim.svdlora_step(layer, momentum, eta=0.1, alpha=0.5)
        assert np.array_equal(momentum, before)
        assert layer.adapter is pair

    def test_tuned_momentum_run_decreases_loss(self):
        # eta = 0.1 with heavy-ball alpha = 0.75, the tuned minibatch
        # values.  These dynamics are underdamped (per-mode multiplier
        # modulus sqrt(0.75)), so the error rebounds after ~6 steps;
        # monotonicity holds over the damped early phase and the run as
        # a whole drops far toward the rank floor.
        g = rng(13)
        target = make_linear_target(30, 20, g)
        task = LinearTask(target)
        pair = well_conditioned_pair(g, 30, 20, 4)
        momentum = np.zeros((30, 20))
        sigma = np.linalg.svd(target, compute_uv=False)
        floor = 0.5 * float(np.sum(sigma[4:] ** 2))
        idx = np.arange(20)
        losses = []
        for _ in range(10):
            grad, loss = linear_task_grad_dense(task, materialize(pair), idx)
            losses.append(loss)
            pair = optim.svdlora_step(gradient_layer(pair, grad), momentum,
                                      eta=0.1, alpha=0.75)
        _, final = linear_task_grad_dense(task, materialize(pair), idx)
        losses.append(final)
        assert all(b < a for a, b in zip(losses[:6], losses[1:6]))
        assert losses[-1] - floor <= 0.1 * (losses[0] - floor)


def feed_grads(monkeypatch, layer, grads):
    """Make each step on ``layer`` read the next of ``grads`` as its
    factor gradients, and set new captures for it to consume."""
    queue = iter(grads)
    monkeypatch.setattr(optim, "factor_grads", lambda _: next(queue))
    g = rng(0)

    def fresh():
        layer.captured_x = g.standard_normal((3, layer.adapter.d_in))
        layer.captured_s = g.standard_normal((3, layer.adapter.d_out))
    return fresh


class TestSgdAdamw:
    def test_sgd_zero_gradient_identity(self):
        g = rng(14)
        pair = well_conditioned_pair(g, 8, 6, 2)
        layer = LoraLinear(None, pair)
        layer.captured_x = g.standard_normal((5, 6))
        layer.captured_s = np.zeros((5, 8))
        state = optim.SgdState.like(pair)
        out = optim.sgd_step(layer, state, eta=0.1, alpha=0.9)
        assert np.array_equal(out.u, pair.u)
        assert np.array_equal(out.v, pair.v)

    def test_sgd_heavy_ball_two_steps(self, monkeypatch):
        g = rng(15)
        pair = well_conditioned_pair(g, 6, 5, 2)
        gu = g.standard_normal((6, 2))
        gv = g.standard_normal((5, 2))
        layer = LoraLinear(None, pair)
        fresh = feed_grads(monkeypatch, layer, [(gu, gv)] * 2)
        state = optim.SgdState.like(pair)
        eta, alpha = 0.1, 0.5
        fresh()
        optim.sgd_step(layer, state, eta, alpha)
        fresh()
        out = optim.sgd_step(layer, state, eta, alpha)
        exp_u = pair.u - eta * gu - eta * (1 + alpha) * gu
        assert np.allclose(out.u, exp_u, atol=1e-12)

    def test_adamw_first_step_closed_form(self, monkeypatch):
        g = rng(16)
        pair = well_conditioned_pair(g, 7, 5, 2)
        gu = g.standard_normal((7, 2))
        gv = g.standard_normal((5, 2))
        layer = LoraLinear(None, pair)
        fresh = feed_grads(monkeypatch, layer, [(gu, gv)])
        state = optim.AdamwState.like(pair)
        eta, eps, wd = 0.01, 1e-8, 1e-2
        fresh()
        out = optim.adamw_step(layer, state, eta)
        exp_u = pair.u * (1 - eta * wd) - eta * gu / (np.abs(gu) + eps)
        assert np.allclose(out.u, exp_u, atol=1e-9)
        exp_v = pair.v * (1 - eta * wd) - eta * gv / (np.abs(gv) + eps)
        assert np.allclose(out.v, exp_v, atol=1e-9)

    def test_adamw_trace_matches_scalar_recursion(self, monkeypatch):
        g = rng(17)
        pair = FactorPair(g.standard_normal((3, 1)), g.standard_normal((2, 1)))
        grads = [(g.standard_normal((3, 1)), g.standard_normal((2, 1)))
                 for _ in range(5)]
        layer = LoraLinear(None, pair)
        fresh = feed_grads(monkeypatch, layer, grads)
        state = optim.AdamwState.like(pair)
        eta, b1, b2, eps, wd = 0.05, 0.9, 0.999, 1e-8, 0.01
        for _ in grads:
            fresh()
            out = optim.adamw_step(layer, state, eta)
        # scalar reference applied independently to every coordinate
        flat_p = np.concatenate([pair.u.ravel(), pair.v.ravel()])
        flat_g = [np.concatenate([gu.ravel(), gv.ravel()]) for gu, gv in grads]
        for i, p in enumerate(flat_p):
            m = v = 0.0
            for t, gvec in enumerate(flat_g, start=1):
                grad = gvec[i]
                m = b1 * m + (1 - b1) * grad
                v = b2 * v + (1 - b2) * grad * grad
                mh = m / (1 - b1 ** t)
                vh = v / (1 - b2 ** t)
                p = p * (1 - eta * wd)
                p = p - eta * mh / (math.sqrt(vh) + eps)
            flat_p[i] = p
        got = np.concatenate([out.u.ravel(), out.v.ravel()])
        assert np.allclose(got, flat_p, atol=1e-12)


class TestProjAndNaiveMomentum:
    def test_first_update_is_preconditioned_gradient(self):
        g = rng(18)
        layer = make_layer(g)
        state = optim.ProjMomentumState.like(layer.adapter)
        m_u, m_v = optim.momentum_update_proj(state, layer, alpha=0.9,
                                              lam=0.0)
        u, v = layer.adapter.u, layer.adapter.v
        grad = layer.captured_s.T @ layer.captured_x
        assert np.allclose(m_u, grad @ v @ np.linalg.inv(v.T @ v), atol=1e-9)
        assert np.allclose(m_v, grad.T @ u @ np.linalg.inv(u.T @ u),
                           atol=1e-9)

    def test_naive_identical_steps_accumulate(self):
        g = rng(19)
        layer = make_layer(g)
        state = optim.ProjMomentumState.like(layer.adapter)
        x, s = layer.captured_x, layer.captured_s
        alpha = 0.5
        m1, _ = momentum_update_naive(state, layer, alpha, lam=0.0)
        first = m1.copy()
        layer.captured_x, layer.captured_s = x, s
        m2, _ = momentum_update_naive(state, layer, alpha, lam=0.0)
        assert np.allclose(m2, (1 + alpha) * first, atol=1e-10)

    def test_proj_equals_naive_on_fixed_orthonormal_factors(self):
        g = rng(20)
        qu, _ = np.linalg.qr(g.standard_normal((10, 3)))
        qv, _ = np.linalg.qr(g.standard_normal((8, 3)))
        pair = FactorPair(qu, qv)
        layer_a = LoraLinear(None, copy_pair(pair))
        layer_b = LoraLinear(None, copy_pair(pair))
        state_a = optim.ProjMomentumState.like(pair)
        state_b = optim.ProjMomentumState.like(pair)
        for seed in (31, 32):
            gg = rng(seed)
            x = gg.standard_normal((5, 8))
            s = gg.standard_normal((5, 10))
            layer_a.captured_x = layer_b.captured_x = x
            layer_a.captured_s = layer_b.captured_s = s
            ma = optim.momentum_update_proj(state_a, layer_a, 0.7, 0.0)
            mb = momentum_update_naive(state_b, layer_b, 0.7, 0.0)
        assert np.allclose(ma[0], mb[0], atol=1e-9)
        assert np.allclose(ma[1], mb[1], atol=1e-9)

    def test_two_step_trace_matches_dense_recursion(self):
        g = rng(21)
        layer = make_layer(g)
        state = optim.ProjMomentumState.like(layer.adapter)
        alpha, lam = 0.6, 1e-3
        u0, v0 = layer.adapter.u.copy(), layer.adapter.v.copy()
        g0 = layer.captured_s.T @ layer.captured_x
        optim.momentum_update_proj(state, layer, alpha, lam)
        # simulate an optimizer step moving the factors
        layer.adapter = well_conditioned_pair(g, 12, 9, 3)
        layer.captured_x = g.standard_normal((5, 9))
        layer.captured_s = g.standard_normal((5, 12))
        u1, v1 = layer.adapter.u, layer.adapter.v
        g1 = layer.captured_s.T @ layer.captured_x
        m_u, m_v = optim.momentum_update_proj(state, layer, alpha, lam)
        eye = np.eye(3)
        ref0_u = g0 @ v0 @ np.linalg.inv(v0.T @ v0 + lam * eye)
        ref1_u = (g1 @ v1 + alpha * ref0_u @ (v0.T @ v1)) \
            @ np.linalg.inv(v1.T @ v1 + lam * eye)
        assert np.allclose(m_u, ref1_u, atol=1e-9)
        ref0_v = g0.T @ u0 @ np.linalg.inv(u0.T @ u0 + lam * eye)
        ref1_v = (g1.T @ u1 + alpha * ref0_v @ (u0.T @ u1)) \
            @ np.linalg.inv(u1.T @ u1 + lam * eye)
        assert np.allclose(m_v, ref1_v, atol=1e-9)


class TestKfacScale:
    def _state_with_metrics(self, g, d_out, d_in, m_rank, delta=1e-4, k=2):
        state = oplora_state(0.1, beta=0.9, delta=delta, num_iters=k,
                             metric_rank=m_rank)
        state.metric_u = optim._init_metric(d_out, m_rank, delta, 0, 21)
        state.metric_v = optim._init_metric(d_in, m_rank, delta, 0, 22)
        return state

    def test_beta_zero_recovers_batch_moment_exactly(self):
        g = rng(23)
        d, b, m_rank = 12, 3, 4
        state = self._state_with_metrics(g, 10, d, m_rank)
        q, _ = np.linalg.qr(g.standard_normal((d, b)))
        x = 1.7 * q.T  # orthogonal rows, rank b <= metric rank
        s = g.standard_normal((b, 10))
        _, mv = optim.kfac_scale_update(state, x, s, 0.0)
        target = x.T @ x / b
        got = mv.factor @ mv.factor.T
        assert np.linalg.norm(got - target) <= 1e-8 * np.linalg.norm(target)

    def test_repeated_batches_converge_to_fixed_point(self):
        g = rng(24)
        d, b, m_rank = 10, 3, 4
        state = self._state_with_metrics(g, 8, d, m_rank)
        x = g.standard_normal((b, d))
        s = g.standard_normal((b, 8))
        target = x.T @ x / b
        dists = []
        for _ in range(40):
            mu, mv = optim.kfac_scale_update(state, x, s, 0.7)
            state.metric_u, state.metric_v = mu, mv
            got = mv.factor @ mv.factor.T
            dists.append(np.linalg.norm(got - target))
        assert dists[-1] < dists[0]
        assert dists[-1] <= 0.02 * np.linalg.norm(target)

    @pytest.mark.parametrize("routine", ["qr", "eigh"])
    def test_linalg_failure_is_a_convergence_error(self, monkeypatch,
                                                   routine):
        g = rng(27)
        state = self._state_with_metrics(g, 9, 7, 3)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError(f"{routine} did not converge")

        monkeypatch.setattr(np.linalg, routine, fail)
        with pytest.raises(ConvergenceError,
                           match=f"{routine} did not converge") as err:
            optim.kfac_scale_update(state, g.standard_normal((5, 7)),
                                    g.standard_normal((5, 9)), 0.8)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_metric_factors_stay_equal_and_psd(self):
        g = rng(25)
        state = self._state_with_metrics(g, 9, 7, 3)
        mu, mv = optim.kfac_scale_update(
            state, g.standard_normal((5, 7)), g.standard_normal((5, 9)), 0.8)
        for m in (mu, mv):
            dense = m.factor @ m.factor.T
            eigs = np.linalg.eigvalsh(dense)
            assert eigs.min() >= -1e-12


class TestMemoryBudget:
    def test_momentum_state_within_twice_adapter(self):
        g = rng(26)
        layer = make_layer(g, d_out=24, d_in=16, r=4, batch=6)
        adapter_params = pair_scalar_count(layer.adapter)
        state = oplora_state(0.1, alpha=0.5, momentum_rank=8)
        optim.oplora_step(layer, state)
        assert state_scalar_count(state) <= 2 * adapter_params

    def test_scaled_state_within_four_times_adapter(self):
        g = rng(27)
        layer = make_layer(g, d_out=24, d_in=16, r=4, batch=6)
        adapter_params = pair_scalar_count(layer.adapter)
        state = oplora_state(0.1, alpha=0.5, beta=0.95, momentum_rank=8,
                             metric_rank=8)
        optim.oplora_step(layer, state)
        assert state_scalar_count(state) <= 4 * adapter_params


class TestOploraStepChecks:
    @pytest.mark.parametrize("hyper, expected", [
        (dict(), []),
        # the default delta makes small problems fail (ROADMAP item 4)
        (dict(beta=0.9, delta=1.0), ["metric factor", "metric factor"]),
    ], ids=["plain", "scaled"])
    def test_step_with_momentum_checks_each_array_once(self, monkeypatch,
                                                       hyper, expected):
        # the adapter and the momentum were checked as pairs, the captures
        # by the pass's forward and backward, each metric factor by its
        # Metric and each lorsum result by its solves: the step checks
        # nothing again, and a scaled step only the two new metric
        # factors, which LAPACK made
        g = rng(60)
        layer = make_layer(g)
        state = oplora_state(0.1, alpha=0.5, num_iters=2, **hyper)
        optim.oplora_step(layer, state)  # builds the momentum and metrics
        layer.forward(g.standard_normal((5, 9)))
        layer.backward(g.standard_normal((5, 12)))
        names, real = [], sys.modules["oplora.matcore"].as_matrix

        def recording(a, name="operand"):
            names.append(name)
            return real(a, name)

        for name, module in list(sys.modules.items()):
            if name.startswith("oplora.") and hasattr(module, "as_matrix"):
                monkeypatch.setattr(module, "as_matrix", recording)
        optim.oplora_step(layer, state)
        assert names == expected

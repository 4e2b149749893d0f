import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplora import lowrank, matcore
from oplora.errors import NonFiniteError, ShapeError, SingularMetricError
from oplora.instrument import counters
from oplora.lorsum import Metric, _inverse_metric, _metric_gram, lorsum
from oplora.lowrank import FactorPair, truncated_svd
from oplora.matcore import _gram, solve_spd

from conftest import rng
from helpers import (assert_alloc_linear_in_side, lorsum_half_steps,
                     materialize, pad_rank, reset_counters)


def random_pair(g, d_out, d_in, r):
    return FactorPair(g.standard_normal((d_out, r)),
                      g.standard_normal((d_in, r)))


def self_sum(pair, coeff=1.0):
    return [(coeff, pair.u, pair.v)]


def gapped_sum(g, d_out, d_in, term_ranks, sigma):
    """Random weighted sum whose materialization has spectrum ``sigma``.

    Columns of a prescribed-spectrum matrix are mixed by a
    well-conditioned matrix and split into terms, so the terms are
    random but the total spectrum is exact.
    """
    total = sum(term_ranks)
    assert len(sigma) == total
    qa, _ = np.linalg.qr(g.standard_normal((d_out, total)))
    qb, _ = np.linalg.qr(g.standard_normal((d_in, total)))
    mix = np.eye(total) + 0.3 * g.standard_normal((total, total)) / np.sqrt(total)
    left_all = qa @ mix
    right_all = qb @ (np.linalg.inv(mix) @ np.diag(sigma)).T
    terms, start = [], 0
    for r in term_ranks:
        sl = slice(start, start + r)
        terms.append((1.0, left_all[:, sl], right_all[:, sl]))
        start += r
    return terms


def dense_metric(m: Metric, dim):
    return m.delta * np.eye(dim) + m.factor @ m.factor.T


def reference_lorsum(terms, num_iters, lam, du, dv, mode="alternating"):
    """Dense replication of the half-step formulas (np.linalg only)."""
    _, anchor_u, anchor_v = terms[0]
    r = anchor_u.shape[1]
    inv_du, inv_dv = np.linalg.inv(du), np.linalg.inv(dv)
    cur_u, cur_v = anchor_u.copy(), anchor_v.copy()

    def upd_u(vc):
        num = lam * anchor_u
        for i, (c, left, right) in enumerate(terms):
            scaled = left if i == 0 else inv_du @ left
            num = num + c * scaled @ (right.T @ vc)
        den = vc.T @ dv @ vc + lam * np.eye(r)
        return num @ np.linalg.inv(den)

    def upd_v(uc):
        num = lam * anchor_v
        for i, (c, left, right) in enumerate(terms):
            scaled = right if i == 0 else inv_dv @ right
            num = num + c * scaled @ (left.T @ uc)
        den = uc.T @ du @ uc + lam * np.eye(r)
        return num @ np.linalg.inv(den)

    for _ in range(num_iters):
        if mode == "simultaneous":
            cur_u, cur_v = upd_u(cur_v), upd_v(cur_u)
        else:
            cur_v = upd_v(cur_u)
            cur_u = upd_u(cur_v)
    return FactorPair(cur_u, cur_v)


class TestMetricOps:
    """``lorsum``'s private metric operations, on checked operands."""

    def test_pure_damping(self):
        x = rng(1).standard_normal((5, 2))
        m = Metric(np.zeros((5, 3)), delta=2.0)
        assert np.allclose(_inverse_metric(m, x), x / 2.0)

    def test_inverse_matches_dense_solve(self):
        g = rng(2)
        f = g.standard_normal((12, 3))
        m = Metric(f, delta=0.1)
        x = g.standard_normal((12, 4))
        dense = dense_metric(m, 12)
        expected = solve_spd(dense, x)
        assert np.allclose(_inverse_metric(m, x), expected, atol=1e-10)

    def test_zero_width_factor_rejected(self):
        with pytest.raises(ShapeError):
            Metric(np.zeros((5, 0)), delta=1.0)

    # the low-rank part alone is never invertible, so an undamped metric
    # is refused when it is built, before any inverse is applied
    def test_inverse_requires_damping(self):
        with pytest.raises(ShapeError, match="delta must be positive"):
            Metric(np.ones((4, 1)), delta=0.0)

    def test_nan_damping_rejected(self):
        with pytest.raises(ShapeError, match="delta must be positive"):
            Metric(np.ones((4, 1)), delta=float("nan"))

    def test_gram_identity(self):
        x = rng(3).standard_normal((6, 3))
        assert np.allclose(_metric_gram(None, x), _gram(x))

    def test_gram_zero_factor_unit_damping(self):
        x = rng(4).standard_normal((6, 3))
        m = Metric(np.zeros((6, 2)), delta=1.0)
        assert np.allclose(_metric_gram(m, x), _gram(x))

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_gram_matches_dense(self, seed):
        g = rng(seed)
        f = g.standard_normal((10, 3))
        m = Metric(f, delta=0.2)
        x = g.standard_normal((10, 4))
        expected = x.T @ dense_metric(m, 10) @ x
        assert np.allclose(_metric_gram(m, x), expected, atol=1e-10)


class TestLorsumValidation:
    """``lorsum`` checks its term list once, before any arithmetic."""

    def test_empty_rejected(self):
        with pytest.raises(ShapeError, match="at least one term"):
            lorsum([])

    def test_dimension_consistency(self):
        g = rng(0)
        with pytest.raises(ShapeError, match="term 1 dimensions disagree"):
            lorsum([
                (1.0, g.standard_normal((4, 2)), g.standard_normal((3, 2))),
                (1.0, g.standard_normal((5, 2)), g.standard_normal((3, 2))),
            ])

    def test_widths_may_differ_per_term(self):
        g = rng(1)
        out = lorsum([
            (1.0, g.standard_normal((4, 2)), g.standard_normal((3, 2))),
            (2.0, g.standard_normal((4, 5)), g.standard_normal((3, 5))),
        ])
        assert (out.d_out, out.d_in, out.rank) == (4, 3, 2)

    def test_nan_coefficient_rejected(self):
        g = rng(2)
        pair = random_pair(g, 5, 4, 2)
        with pytest.raises(ShapeError, match="term 1 has a non-finite"):
            lorsum(self_sum(pair) + [(np.nan, pair.u, pair.v)])

    def test_per_term_width_mismatch_rejected(self):
        # Stacked, the widths agree (2 + 2 + 3 on both sides), so only the
        # per-term check stops a silently wrong product.
        g = rng(3)
        pair = random_pair(g, 6, 5, 2)
        terms = self_sum(pair) + [
            (1.0, g.standard_normal((6, 2)), g.standard_normal((5, 3))),
            (1.0, g.standard_normal((6, 3)), g.standard_normal((5, 2))),
        ]
        with pytest.raises(ShapeError, match="term 1 widths disagree"):
            lorsum(terms)

    def test_anchor_rank_above_min_dimension_rejected(self):
        g = rng(5)
        with pytest.raises(ShapeError, match="rank 4 exceeds min dimension 3"):
            lorsum([(1.0, g.standard_normal((3, 4)),
                     g.standard_normal((5, 4)))])

    @pytest.mark.parametrize("kwargs, message", [
        ({"num_iters": 0}, "num_iters"),
        ({"lam": -1.0}, "proximal weight"),
        ({"mode": "sideways"}, "mode must be one of"),
        # a NaN weight is the argument's fault, not a non-finite iterate's
        ({"lam": float("nan")}, "proximal weight lam"),
        ({"num_iters": 2.0}, "num_iters must be an integer"),
        ({"num_iters": True}, "num_iters must be an integer"),
    ])
    def test_settings_rejected(self, kwargs, message):
        pair = random_pair(rng(4), 5, 4, 2)
        with pytest.raises(ShapeError, match=message):
            lorsum(self_sum(pair), **kwargs)


class TestLorsumBasics:
    def test_self_sum_fixed_point(self):
        g = rng(5)
        pair = random_pair(g, 9, 6, 3)
        out = lorsum(self_sum(pair), num_iters=1)
        assert np.allclose(materialize(out), materialize(pair), atol=1e-9)

    def test_degenerate_anchor_raises_with_side(self):
        zero = FactorPair(np.zeros((5, 2)), np.zeros((4, 2)))
        with pytest.raises(SingularMetricError) as err:
            lorsum(self_sum(zero), num_iters=1)
        assert err.value.side == "V"  # alternating updates V first
        assert err.value.iteration == 0

    def test_degenerate_anchor_rescued_by_lambda(self):
        zero = FactorPair(np.zeros((5, 2)), np.zeros((4, 2)))
        out = lorsum(self_sum(zero), num_iters=2, lam=1e-6)
        assert np.allclose(materialize(out), 0.0)

    def test_rank_above_512_is_solved(self):
        # a rank-513 half-step solves a 513 x 513 system
        pair = random_pair(rng(23), 520, 520, 513)
        out = lorsum(self_sum(pair), num_iters=1)
        assert isinstance(out, FactorPair)
        assert (out.u.shape, out.v.shape) == ((520, 513), (520, 513))

    def test_two_orthogonal_terms_reach_svd_oracle(self):
        g = rng(7)
        q_out, _ = np.linalg.qr(g.standard_normal((20, 8)))
        q_in, _ = np.linalg.qr(g.standard_normal((16, 8)))
        t1 = (1.0, 2.0 * q_out[:, :4], q_in[:, :4])
        t2 = (1.0, q_out[:, 4:], q_in[:, 4:])
        anchor = pad_rank(FactorPair(t1[1], t1[2]), 8, g)
        terms = [(1.0, anchor.u, anchor.v), t2]
        out = lorsum(terms, num_iters=32)
        target = materialize(terms)
        oracle = materialize(truncated_svd(target, 8))
        err = np.linalg.norm(materialize(out) - oracle)
        assert err <= 1e-6 * np.linalg.norm(oracle)

    def test_one_step_simultaneous_is_preconditioned_update(self):
        g = rng(8)
        pair = random_pair(g, 10, 7, 3)
        s = g.standard_normal((5, 10))
        x = g.standard_normal((5, 7))
        eta, lam = 0.3, 1e-12
        terms = [(1.0, pair.u, pair.v), (-eta, s.T, x.T)]
        out = lorsum(terms, num_iters=1, lam=lam, mode="simultaneous")
        grad = s.T @ x
        eye = np.eye(3)
        exp_u = pair.u - eta * grad @ pair.v @ np.linalg.inv(
            pair.v.T @ pair.v + lam * eye)
        exp_v = pair.v - eta * grad.T @ pair.u @ np.linalg.inv(
            pair.u.T @ pair.u + lam * eye)
        assert np.allclose(out.u, exp_u, atol=1e-6)
        assert np.allclose(out.v, exp_v, atol=1e-6)

    def test_simultaneous_keeps_symmetric_factors_equal(self):
        g = rng(9)
        f = np.linalg.qr(g.standard_normal((12, 3)))[0]
        x = g.standard_normal((5, 12))
        terms = [(0.9, f, f), (0.1, x.T, x.T)]
        out = lorsum(terms, num_iters=3, mode="simultaneous", lam=1e-9)
        assert np.array_equal(out.u, out.v)


class TestLorsumAgainstDenseReference:
    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10_000),
           st.sampled_from(["alternating", "simultaneous"]),
           st.sampled_from([0.0, 1e-3]))
    def test_identity_metrics(self, seed, mode, lam):
        g = rng(seed)
        pair = random_pair(g, 9, 7, 3)
        extra = random_pair(g, 9, 7, 4)
        terms = [(1.0, pair.u, pair.v), (-0.4, extra.u, extra.v)]
        out = lorsum(terms, num_iters=3, lam=lam, mode=mode)
        ref = reference_lorsum(terms, 3, lam, np.eye(9), np.eye(7), mode)
        assert np.allclose(out.u, ref.u, atol=1e-9)
        assert np.allclose(out.v, ref.v, atol=1e-9)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 10_000))
    def test_damped_metrics(self, seed):
        g = rng(seed)
        pair = random_pair(g, 9, 7, 3)
        extra = random_pair(g, 9, 7, 4)
        terms = [(1.0, pair.u, pair.v), (-0.4, extra.u, extra.v)]
        mu = Metric(g.standard_normal((9, 2)), delta=0.3)
        mv = Metric(g.standard_normal((7, 2)), delta=0.5)
        out = lorsum(terms, num_iters=2, lam=1e-3, metric_u=mu, metric_v=mv)
        ref = reference_lorsum(terms, 2, 1e-3,
                               dense_metric(mu, 9), dense_metric(mv, 7))
        assert np.allclose(out.u, ref.u, atol=1e-8)
        assert np.allclose(out.v, ref.v, atol=1e-8)


class TestSymmetry:
    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10_000))
    def test_simultaneous_transposed_problem_returns_swapped_pair(self, seed):
        """One routine serves both sides: transposing the problem (terms
        ``(c, R, L)``, metrics swapped) swaps the result exactly."""
        g = rng(seed)
        pair = random_pair(g, 9, 7, 3)
        extra = random_pair(g, 9, 7, 4)
        terms = [(1.0, pair.u, pair.v), (-0.4, extra.u, extra.v)]
        mu = Metric(g.standard_normal((9, 2)), delta=0.3)
        mv = Metric(g.standard_normal((7, 2)), delta=0.5)
        cfg = dict(num_iters=3, lam=1e-3, mode="simultaneous")
        out = lorsum(terms, metric_u=mu, metric_v=mv, **cfg)
        flipped = lorsum([(c, r, l) for c, l, r in terms],
                         metric_u=mv, metric_v=mu, **cfg)
        assert np.array_equal(flipped.u, out.v)
        assert np.array_equal(flipped.v, out.u)


class TestSubspaceIdentities:
    def test_half_step_products_are_projections(self):
        g = rng(10)
        pair = random_pair(g, 11, 8, 3)
        extra = random_pair(g, 11, 8, 3)
        terms = [(1.0, pair.u, pair.v), (0.7, extra.u, extra.v)]
        target = materialize(terms)
        with lorsum_half_steps() as trace:
            lorsum(terms, num_iters=3)
        assert len(trace) == 2 * 3
        for entry in trace:
            u, v = entry["u"], entry["v"]
            prod = u @ v.T
            if entry["side"] == "V":
                proj = u @ np.linalg.solve(u.T @ u, u.T @ target)
            else:
                proj = (target @ v) @ np.linalg.inv(v.T @ v) @ v.T
            assert np.linalg.norm(prod - proj) <= 1e-8 * np.linalg.norm(target)


class TestConvergenceAndCost:
    def test_error_nonincreasing_in_iterations(self):
        g = rng(11)
        sigma = np.array([4.0, 3.6, 3.3, 3.0, 2.8, 2.6, 2.5, 2.4,
                          1.2, 1.0, 0.8, 0.6])
        terms_raw = gapped_sum(g, 30, 22, [4, 4, 4], sigma)
        anchor = pad_rank(FactorPair(terms_raw[0][1], terms_raw[0][2]), 8, g)
        terms = [(1.0, anchor.u, anchor.v)] + terms_raw[1:]
        target = materialize(terms)
        oracle = materialize(truncated_svd(target, 8))
        errs = []
        for k in (1, 2, 4, 8, 16, 32):
            out = lorsum(terms, num_iters=k)
            errs.append(np.linalg.norm(materialize(out) - oracle))
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-10
        assert errs[-1] <= 1e-6 * np.linalg.norm(target)

    def test_flops_linear_in_iterations(self):
        g = rng(12)
        pair = random_pair(g, 40, 30, 4)
        extra = random_pair(g, 40, 30, 4)
        terms = [(1.0, pair.u, pair.v), (0.5, extra.u, extra.v)]
        ks = np.array([2, 4, 8, 16, 32])
        flops = []
        for k in ks:
            reset_counters()
            lorsum(terms, num_iters=int(k))
            flops.append(counters().flops)
        slope = np.polyfit(np.log(ks), np.log(flops), 1)[0]
        assert abs(slope - 1.0) <= 0.1

    def test_flops_linear_in_dimension(self):
        dims = np.array([32, 64, 128, 256, 512])
        flops = []
        for d in dims:
            g = rng(int(d))
            pair = random_pair(g, int(d), int(d), 4)
            extra = random_pair(g, int(d), int(d), 4)
            terms = [(1.0, pair.u, pair.v), (0.5, extra.u, extra.v)]
            reset_counters()
            lorsum(terms, num_iters=4)
            flops.append(counters().flops)
        slope = np.polyfit(np.log(dims), np.log(flops), 1)[0]
        assert abs(slope - 1.0) <= 0.1

    def test_intermediate_allocations_stay_thin(self):
        g = rng(13)
        pair = random_pair(g, 50, 40, 4)
        s = g.standard_normal((12, 50))
        x = g.standard_normal((12, 40))
        terms = [(1.0, pair.u, pair.v), (-0.1, s.T, x.T)]
        reset_counters()
        lorsum(terms, num_iters=4)
        assert counters().peak_alloc <= 50 * 12

        def calls_at(side):
            g = rng(side)
            pair = random_pair(g, side, side // 3, 4)
            s = g.standard_normal((12, side))
            x = g.standard_normal((12, side // 3))
            terms = [(1.0, pair.u, pair.v), (-0.1, s.T, x.T)]
            yield lambda: lorsum(terms, num_iters=4)

        assert_alloc_linear_in_side(calls_at)

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10_000))
    def test_gauge_invariance_without_proximal(self, seed):
        g = rng(seed)
        pair = random_pair(g, 10, 8, 3)
        extra = random_pair(g, 10, 8, 3)
        out = lorsum([(1.0, pair.u, pair.v), (0.5, extra.u, extra.v)],
                     num_iters=3)
        a = np.eye(3) + 0.2 * g.standard_normal((3, 3))
        twisted = FactorPair(pair.u @ a, pair.v @ np.linalg.inv(a).T)
        out_t = lorsum([(1.0, twisted.u, twisted.v), (0.5, extra.u, extra.v)],
                       num_iters=3)
        w1, w2 = materialize(out), materialize(out_t)
        assert np.linalg.norm(w1 - w2) <= 1e-6 * np.linalg.norm(w1)


def desk_terms(g):
    """The weight call of one ``oplora`` step at the desk linear shape:
    a 120x40 iterate at rank 8, a 16-column gradient and a rank-16
    momentum."""
    pair = random_pair(g, 120, 40, 8)
    return [(1.0, pair.u, pair.v),
            (-0.1, g.standard_normal((120, 16)), g.standard_normal((40, 16))),
            (-0.075, g.standard_normal((120, 16)),
             g.standard_normal((40, 16)))]


def desk_metrics(g):
    """Rank-8 metric factors for both sides of :func:`desk_terms`."""
    return {"metric_u": g.standard_normal((120, 8)),
            "metric_v": g.standard_normal((40, 8))}


def desk_call(terms, factors, deltas=None):
    """``lorsum`` at the desk setting (K = 2), with a :class:`Metric` on
    each side named in ``factors``, damped by ``deltas[side]`` (1e-4 by
    default)."""
    deltas = deltas or {}
    metrics = {side: Metric(f, deltas.get(side, 1e-4))
               for side, f in factors.items()}
    return lorsum(terms, num_iters=2, lam=1e-4, **metrics)


# test id -> a key of desk_metrics, or (term index, tuple position)
FAULT_SITES = {f"terms[{i}].{side}": (i, j) for i in range(3)
               for j, side in ((1, "left"), (2, "right"))}
FAULT_SITES.update(metric_u="metric_u", metric_v="metric_v")


class TestFaultInjection:
    """A non-finite entry, given or reached by overflow inside the call,
    raises :class:`NonFiniteError`, never :class:`SingularMetricError`."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("site", FAULT_SITES)
    def test_non_finite_entry(self, site, value):
        g = rng(20)
        terms, factors = desk_terms(g), desk_metrics(g)
        where = FAULT_SITES[site]
        target = factors[where] if where in factors else (
            terms[where[0]][where[1]])
        target[3, 1] = value
        with pytest.raises(NonFiniteError) as err:
            desk_call(terms, factors)
        assert type(err.value) is NonFiniteError

    @staticmethod
    def overflow_case(name):
        """Finite operands whose arithmetic inside ``lorsum`` overflows,
        and the side of the half-step whose system is the first to hold
        the overflow.

        - ``woodbury``: the inverse metric's small system F^T F / delta.
        - ``scaled_outs``: the inverse-metric-scaled term factors stacked
          for the U half-step.
        - ``num``: the V half-step's stacked product.
        - ``den``: the V half-step's metric Gram (one term, so no inverse
          metric is applied).
        """
        g = rng(21)
        terms, factors = desk_terms(g), desk_metrics(g)
        deltas, side = {}, "V"
        if name == "woodbury":
            factors["metric_u"] *= 1e5
            deltas, side = {"metric_u": 1e-300}, None
        elif name == "scaled_outs":
            terms[1] = (terms[1][0], 1e10 * terms[1][1], terms[1][2])
            deltas, side = {"metric_u": 1e-300}, "U"
        elif name == "num":
            terms[1] = (terms[1][0], 1e160 * terms[1][1], 1e160 * terms[1][2])
        else:
            terms = terms[:1]
            factors["metric_u"] *= 1e160
        return terms, factors, deltas, side

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("name", ["woodbury", "scaled_outs", "num", "den"])
    def test_overflow_inside_the_call(self, name):
        terms, factors, deltas, _ = self.overflow_case(name)
        with pytest.raises(NonFiniteError) as err:
            desk_call(terms, factors, deltas)
        assert type(err.value) is NonFiniteError

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("name", ["scaled_outs", "num", "den"])
    def test_half_step_error_names_side_and_iteration(self, name):
        terms, factors, deltas, side = self.overflow_case(name)
        with pytest.raises(NonFiniteError,
                           match=f"on the {side} side at iteration 0"):
            desk_call(terms, factors, deltas)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)],
                             ids=["diagonal", "off_diagonal"])
    @pytest.mark.parametrize("call, side, k", [(0, "V", 0), (3, "U", 1)])
    def test_non_finite_den_names_side_and_iteration(self, monkeypatch,
                                                      entry, call, side, k):
        # an inf in one half-step's r x r system itself, past every check
        module, calls = sys.modules["oplora.lorsum"], []

        def injected(metric, x):
            den = _metric_gram(metric, x)
            if len(calls) == call:
                den[entry] = den[entry[::-1]] = np.inf
            calls.append(None)
            return den

        monkeypatch.setattr(module, "_metric_gram", injected)
        terms = desk_terms(rng(20))
        with pytest.raises(NonFiniteError,
                           match=f"on the {side} side at iteration {k}$"):
            desk_call(terms, {})


class TestBoundaryChecks:
    """``lorsum`` checks each operand once at its boundary, and its inner
    products and solves keep their charges."""

    def test_each_operand_checked_once(self, monkeypatch):
        g = rng(22)
        terms = desk_terms(g)
        metrics = {side: Metric(f, 1e-4)
                   for side, f in desk_metrics(g).items()}
        checked, real = [], matcore.as_matrix

        def counting(a, name="operand"):
            checked.append(id(a))
            return real(a, name)

        for module in (matcore, sys.modules["oplora.lorsum"], lowrank):
            monkeypatch.setattr(module, "as_matrix", counting)
        lorsum(terms, num_iters=2, lam=1e-4, **metrics)
        # each solve's solution was tested, so the result is not again
        assert checked == [id(a) for _, left, right in terms
                           for a in (left, right)]

    # calls other than desk_call's, on desk_terms and desk_metrics
    OTHER_CALLS = {
        # the momentum refresh: two rank-16 terms and the rescue weight
        "momentum": lambda terms, factors: lorsum(
            [(0.75,) + terms[2][1:], (1.0,) + terms[1][1:]], num_iters=2,
            lam=1e-9),
        "one_iteration": lambda terms, factors: lorsum(
            terms, num_iters=1, lam=1e-4),
        "simultaneous": lambda terms, factors: lorsum(
            terms, num_iters=2, lam=1e-4, mode="simultaneous",
            metric_u=Metric(factors["metric_u"], 1e-4)),
    }

    # the work lorsum charges to the flops column of every oplora run;
    # skipping an operand check must not change it
    @pytest.mark.parametrize("sides, flops, peak_alloc", [
        ((), 492200, 960),
        (("metric_u",), 667474, 3840),
        (("metric_v",), 554834, 1280),
        (("metric_u", "metric_v"), 730108, 3840),
        ("momentum", 988500, 1920),
        ("one_iteration", 246100, 960),
        ("simultaneous", 667474, 3840),
    ])
    def test_charges_unchanged(self, sides, flops, peak_alloc):
        g = rng(22)
        terms, factors = desk_terms(g), desk_metrics(g)
        if sides in self.OTHER_CALLS:
            self.OTHER_CALLS[sides](terms, factors)
        else:
            desk_call(terms, {side: factors[side] for side in sides})
        assert (counters().flops, counters().peak_alloc) == (flops,
                                                             peak_alloc)

    def test_one_woodbury_solve_per_metric_side(self, monkeypatch):
        # four half-steps, and one inverse-metric solve for all of a
        # metric side's non-anchor blocks (one per block made 8 solves)
        module, calls = sys.modules["oplora.lorsum"], []
        real = module._cholesky_solve

        def counting(a, b):
            calls.append(None)
            return real(a, b)

        monkeypatch.setattr(module, "_cholesky_solve", counting)
        g = rng(22)
        desk_call(desk_terms(g), desk_metrics(g))
        assert len(calls) == 6

    def test_failed_call_keeps_its_charges(self):
        # the anchor's U and the gradient's left factor have disjoint row
        # supports, so the V half-step gives an exact zero V and the U
        # half-step's system is exactly singular; the work done up to
        # the failed solve stays charged
        g = rng(22)
        terms, factors = desk_terms(g), desk_metrics(g)
        u, s = terms[0][1].copy(), terms[1][1].copy()
        u[60:], s[:60] = 0.0, 0.0
        with pytest.raises(SingularMetricError,
                           match="on the U side at iteration 0"):
            lorsum([(1.0, u, np.zeros_like(terms[0][2])),
                    (-0.1, s, terms[1][2])], num_iters=2, lam=0.0,
                   metric_v=Metric(factors["metric_v"], 1e-4))
        assert (counters().flops, counters().peak_alloc) == (182612, 960)


class TestUncheckedResult:
    """``lorsum``'s result is built without the pair's checks: every
    factor it returns is a solution its Cholesky core has tested."""

    @pytest.mark.parametrize("sides", [(), ("metric_u", "metric_v")])
    @pytest.mark.parametrize("mode", ["alternating", "simultaneous"])
    def test_result_is_what_a_checked_pair_holds(self, mode, sides):
        g = rng(25)
        terms, factors = desk_terms(g), desk_metrics(g)
        metrics = {side: Metric(factors[side], 1e-4) for side in sides}
        out = lorsum(terms, num_iters=2, lam=1e-4, mode=mode, **metrics)
        for got, entry in ((out.u, terms[0][1]), (out.v, terms[0][2])):
            assert got.dtype == np.float64 and got.shape == entry.shape
            assert np.isfinite(got).all()
        checked = FactorPair(out.u, out.v)
        assert np.array_equal(materialize(checked), materialize(out))
        assert (checked.rank, checked.d_out, checked.d_in) == (
            out.rank, out.d_out, out.d_in)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_overflow_in_the_last_u_half_step_is_named(self, monkeypatch):
        # the last half-step's solution is the returned U: its numerator
        # is finite but near the largest float and its system is scaled
        # to a largest eigenvalue of 1e-2, so the solve overflows
        module, calls = sys.modules["oplora.lorsum"], []
        sandwich, metric_gram = module._sandwich, module._metric_gram

        def big_num(a, b, c):
            num = sandwich(a, b, c)
            if len(calls) == 3:
                num *= 1e308 / np.abs(num).max()
            calls.append(None)
            return num

        def small_den(metric, x):
            den = metric_gram(metric, x)
            if len(calls) == 4:
                den /= 100.0 * np.linalg.eigvalsh(den).max()
            return den

        monkeypatch.setattr(module, "_sandwich", big_num)
        monkeypatch.setattr(module, "_metric_gram", small_den)
        with pytest.raises(NonFiniteError,
                           match="on the U side at iteration 1$") as err:
            desk_call(desk_terms(rng(26)), {})
        assert type(err.value) is NonFiniteError
        assert len(calls) == 4


class TestPairTerms:
    """A ``(c, pair)`` term is the ``(c, pair.u, pair.v)`` term, with the
    factors the pair checked when it was built left unchecked."""

    @staticmethod
    def paired(terms):
        # the oplora step's form: anchor and momentum as pairs, the
        # gradient raw
        (c0, u0, v0), grad, (c2, u2, v2) = terms
        return [(c0, FactorPair(u0, v0)), grad, (c2, FactorPair(u2, v2))]

    @pytest.mark.parametrize("sides", [(), ("metric_u", "metric_v")])
    @pytest.mark.parametrize("mode", ["alternating", "simultaneous"])
    def test_bit_identical_to_raw_terms(self, mode, sides):
        g = rng(22)
        terms, factors = desk_terms(g), desk_metrics(g)
        metrics = {side: Metric(factors[side], 1e-4) for side in sides}
        raw = lorsum(terms, num_iters=2, lam=1e-4, mode=mode, **metrics)
        paired = lorsum(self.paired(terms), num_iters=2, lam=1e-4,
                        mode=mode, **metrics)
        assert np.array_equal(paired.u, raw.u)
        assert np.array_equal(paired.v, raw.v)

    def test_pair_factors_never_reach_as_matrix(self, monkeypatch):
        terms = self.paired(desk_terms(rng(22)))
        checked, real = [], matcore.as_matrix

        def counting(a, name="operand"):
            checked.append(id(a))
            return real(a, name)

        for module in (matcore, sys.modules["oplora.lorsum"], lowrank):
            monkeypatch.setattr(module, "as_matrix", counting)
        lorsum(terms, num_iters=2, lam=1e-4)
        _, left, right = terms[1]
        assert checked == [id(left), id(right)]

    def test_pair_dimensions_checked_against_the_anchor(self):
        g = rng(23)
        terms = self.paired(desk_terms(g))
        terms[2] = (terms[2][0], random_pair(g, 40, 120, 8))
        with pytest.raises(ShapeError, match="term 2 dimensions disagree"):
            lorsum(terms)

    def test_non_finite_pair_coefficient_rejected(self):
        terms = self.paired(desk_terms(rng(24)))
        terms[0] = (np.nan, terms[0][1])
        with pytest.raises(ShapeError, match="term 0 has a non-finite"):
            lorsum(terms)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplora.errors import ShapeError
from oplora.lowrank import (FactorPair, WeightedFactorSum, gram,
                            product_distance, product_distance_to_dense,
                            product_inner, truncated_svd)
from oplora.matcore import matmul, svd_dense

from conftest import rng
from helpers import materialize, pad_rank


def random_pair(g, d_out, d_in, r):
    return FactorPair(g.standard_normal((d_out, r)),
                      g.standard_normal((d_in, r)))


class TestFactorPair:
    def test_rank_validation(self):
        with pytest.raises(ShapeError):
            FactorPair(np.ones((3, 4)), np.ones((5, 4)))

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            FactorPair(np.ones((5, 2)), np.ones((5, 3)))


class TestWeightedFactorSum:
    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            WeightedFactorSum([])

    def test_dimension_consistency(self):
        g = rng(0)
        with pytest.raises(ShapeError):
            WeightedFactorSum([
                (1.0, g.standard_normal((4, 2)), g.standard_normal((3, 2))),
                (1.0, g.standard_normal((5, 2)), g.standard_normal((3, 2))),
            ])

    def test_widths_may_differ_per_term(self):
        g = rng(1)
        s = WeightedFactorSum([
            (1.0, g.standard_normal((4, 2)), g.standard_normal((3, 2))),
            (2.0, g.standard_normal((4, 5)), g.standard_normal((3, 5))),
        ])
        assert s.d_out == 4 and s.d_in == 3


class TestMaterialize:
    def test_single_term(self):
        g = rng(2)
        u, v = g.standard_normal((4, 2)), g.standard_normal((3, 2))
        out = materialize(WeightedFactorSum([(1.0, u, v)]))
        assert np.allclose(out, u @ v.T)

    def test_cancellation(self):
        g = rng(3)
        a, b = g.standard_normal((4, 2)), g.standard_normal((3, 2))
        out = materialize(WeightedFactorSum([(1.0, a, b), (-1.0, a, b)]))
        assert np.allclose(out, 0.0)

    def test_three_terms_vs_termwise_oracle(self):
        g = rng(4)
        terms = [(g.standard_normal(), g.standard_normal((6, 3)),
                  g.standard_normal((5, 3))) for _ in range(3)]
        expected = sum(c * (l @ r.T) for c, l, r in terms)
        assert np.allclose(materialize(WeightedFactorSum(terms)), expected)


class TestTruncatedSvd:
    def test_balanced_rank_one_of_diag(self):
        pair = truncated_svd(np.diag([4.0, 1.0]), 1)
        assert np.allclose(np.abs(pair.u[:, 0]), [2.0, 0.0], atol=1e-12)
        assert np.allclose(np.abs(pair.v[:, 0]), [2.0, 0.0], atol=1e-12)

    def test_exact_recovery_of_low_rank(self):
        g = rng(7)
        w = g.standard_normal((8, 3)) @ g.standard_normal((3, 6))
        pair = truncated_svd(w, 3)
        assert np.linalg.norm(materialize(pair) - w) <= 1e-8 * np.linalg.norm(w)

    def test_error_matches_tail_spectrum(self):
        g = rng(8)
        w = g.standard_normal((10, 6))
        pair = truncated_svd(w, 3)
        _, sigma, _ = svd_dense(w)
        err_sq = np.linalg.norm(materialize(pair) - w) ** 2
        assert np.isclose(err_sq, np.sum(sigma[3:] ** 2), atol=1e-8)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_balance_property(self, seed):
        w = rng(seed).standard_normal((9, 7))
        pair = truncated_svd(w, 4)
        gu, gv = gram(pair.u), gram(pair.v)
        assert np.linalg.norm(gu - gv) <= 1e-8 * np.linalg.norm(gu)

    def test_zero_singular_values_give_zero_columns(self):
        g = rng(9)
        w = np.outer(g.standard_normal(6), g.standard_normal(5))
        pair = truncated_svd(w, 3)
        assert np.all(pair.u[:, 1:] == 0.0)
        assert np.all(pair.v[:, 1:] == 0.0)

    def test_eckart_young_not_beaten_by_random_pairs(self):
        g = rng(10)
        w = g.standard_normal((12, 9))
        best = np.linalg.norm(materialize(truncated_svd(w, 3)) - w)
        for _ in range(100):
            cand = random_pair(g, 12, 9, 3)
            err = np.linalg.norm(materialize(cand) - w)
            assert err >= best - 1e-9

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_gauge_freedom_preserves_product(self, seed):
        g = rng(seed)
        pair = random_pair(g, 7, 5, 3)
        a = g.standard_normal((3, 3)) + 3.0 * np.eye(3)
        twisted = FactorPair(pair.u @ a, pair.v @ np.linalg.inv(a).T)
        w1, w2 = materialize(pair), materialize(twisted)
        assert np.linalg.norm(w1 - w2) <= 1e-8 * np.linalg.norm(w1)


class TestGram:
    def test_orthonormal(self):
        q, _ = np.linalg.qr(rng(11).standard_normal((9, 4)))
        assert np.allclose(gram(q), np.eye(4), atol=1e-10)

    def test_single_column(self):
        x = rng(12).standard_normal((6, 1))
        assert np.isclose(gram(x)[0, 0], np.dot(x[:, 0], x[:, 0]))

    def test_matches_matmul(self):
        a = rng(13).standard_normal((8, 3))
        assert np.allclose(gram(a), matmul(a, a, transpose_a=True))

    def test_symmetric(self):
        a = rng(14).standard_normal((50, 7))
        g = gram(a)
        assert np.array_equal(g, g.T)


class TestProductHelpers:
    def test_inner_and_distance_match_dense(self):
        g = rng(18)
        p = random_pair(g, 8, 6, 3)
        q = random_pair(g, 8, 6, 2)
        wp, wq = materialize(p), materialize(q)
        assert np.isclose(product_inner(p, q), np.sum(wp * wq))
        assert np.isclose(product_distance(p, q), np.linalg.norm(wp - wq))
        dense = g.standard_normal((8, 6))
        assert np.isclose(product_distance_to_dense(p, dense),
                          np.linalg.norm(wp - dense))

    def test_pad_rank_keeps_product(self):
        g = rng(19)
        p = random_pair(g, 8, 6, 2)
        padded = pad_rank(p, 5, g)
        assert padded.rank == 5
        assert np.allclose(materialize(padded), materialize(p))

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oplora import lowrank, matcore
from oplora.errors import NonFiniteError, ShapeError
from oplora.instrument import counters
from oplora.lowrank import (FactorPair, product_distance,
                            product_distance_to_dense, product_inner,
                            truncated_svd)
from oplora.matcore import gram, matmul, svd_dense
from oplora.nets import MlpTask, make_linear_target, make_mlp_layers

from conftest import rng
from helpers import (materialize, pad_rank, product_error, reset_counters,
                     svd_operands, truncated_svd_reference)


def record_checks(monkeypatch):
    """The ids of the arrays ``matcore`` and ``lowrank`` check from now
    on, in order."""
    checked, real = [], matcore.as_matrix

    def counting(a, name="operand"):
        checked.append(id(a))
        return real(a, name)

    for module in (matcore, lowrank):
        monkeypatch.setattr(module, "as_matrix", counting)
    return checked


def random_pair(g, d_out, d_in, r):
    return FactorPair(g.standard_normal((d_out, r)),
                      g.standard_normal((d_in, r)))


class TestFactorPair:
    def test_rank_validation(self):
        with pytest.raises(ShapeError):
            FactorPair(np.ones((3, 4)), np.ones((5, 4)))
        # make_mlp_layers relies on this check for a rank wider than a layer
        with pytest.raises(ShapeError, match="rank 3 exceeds min dimension 2"):
            make_mlp_layers(MlpTask([4, 2, 5]), 3, rng(0))

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            FactorPair(np.ones((5, 2)), np.ones((5, 3)))


class TestMaterialize:
    def test_single_term(self):
        g = rng(2)
        u, v = g.standard_normal((4, 2)), g.standard_normal((3, 2))
        out = materialize([(1.0, u, v)])
        assert np.allclose(out, u @ v.T)

    def test_cancellation(self):
        g = rng(3)
        a, b = g.standard_normal((4, 2)), g.standard_normal((3, 2))
        out = materialize([(1.0, a, b), (-1.0, a, b)])
        assert np.allclose(out, 0.0)

    def test_three_terms_vs_termwise_oracle(self):
        g = rng(4)
        terms = [(g.standard_normal(), g.standard_normal((6, 3)),
                  g.standard_normal((5, 3))) for _ in range(3)]
        expected = sum(c * (l @ r.T) for c, l, r in terms)
        assert np.allclose(materialize(terms), expected)


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

    @pytest.mark.parametrize("r", [2.5, 2.0, True, 0, 6])
    def test_rank_not_an_int_in_range_rejected(self, r):
        with pytest.raises(ShapeError, match=f"r={r} invalid for a 9x5"):
            truncated_svd(rng(12).standard_normal((9, 5)), r)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000))
    def test_gauge_freedom_preserves_product(self, seed):
        g = rng(seed)
        pair = random_pair(g, 7, 5, 3)
        a = g.standard_normal((3, 3)) + 3.0 * np.eye(3)
        twisted = FactorPair(pair.u @ a, pair.v @ np.linalg.inv(a).T)
        w1, w2 = materialize(pair), materialize(twisted)
        assert np.linalg.norm(w1 - w2) <= 1e-8 * np.linalg.norm(w1)


def geometric(first, ratio, n):
    return first * ratio ** np.arange(n)


class TestTruncatedSvdGramRoute:
    """``truncated_svd`` against the full-SVD reference on both sides of
    its fallback."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 10_000), st.integers(2, 40), st.integers(2, 40),
           st.data())
    @pytest.mark.parametrize("wide", [False, True])
    def test_matches_full_svd_reference(self, wide, seed, a, b, data):
        d_out, d_in = (min(a, b), max(a, b)) if wide else (max(a, b),
                                                          min(a, b))
        r = data.draw(st.integers(1, min(d_out, d_in)), label="r")
        w = rng(seed).standard_normal((d_out, d_in))
        with svd_operands() as operands:
            pair = truncated_svd(w, r)
        ref = truncated_svd_reference(w, r)
        if any(op is w for op in operands):
            assert np.array_equal(pair.u, ref.u)
            assert np.array_equal(pair.v, ref.v)
        else:
            assert product_error(pair, ref) <= 1e-12

    # name -> (singular values of a 60 x 30 matrix, rank, falls back)
    SPECTRA = {
        "sigma_1_over_sigma_r_1e1": (geometric(10.0, 10 ** (-1 / 7), 12),
                                     8, False),
        "sigma_1_over_sigma_r_1e4": (geometric(10.0, 10 ** (-4 / 7), 12),
                                     8, True),
        "gap_1e-1": (np.r_[geometric(10.0, 0.9, 8), 0.9 * 10 * 0.9 ** 7,
                           geometric(4.0, 0.9, 3)], 8, False),
        "gap_1e-6": (np.r_[geometric(10.0, 0.9, 8),
                           (1 - 1e-6) * 10 * 0.9 ** 7,
                           geometric(4.0, 0.9, 3)], 8, True),
        "rank_deficient": (geometric(10.0, 0.7, 5), 8, True),
    }

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("name", sorted(SPECTRA))
    def test_fallback_boundary(self, name, wide):
        sigma, r, falls_back = self.SPECTRA[name]
        w = make_linear_target(60, 30, rng(31), sigma)
        if wide:
            w = w.T
        with svd_operands() as operands:
            pair = truncated_svd(w, r)
        ref = truncated_svd_reference(w, r)
        assert any(op is w for op in operands) == falls_back
        if falls_back:
            assert np.array_equal(pair.u, ref.u)
            assert np.array_equal(pair.v, ref.v)
        else:
            assert product_error(pair, ref) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_gram_out_of_range_falls_back(self, scale):
        # the Gram underflows to subnormals, or overflows to inf
        w = scale * rng(36).standard_normal((30, 12))
        with svd_operands() as operands:
            pair = truncated_svd(w, 3)
        assert any(op is w for op in operands)
        ref = truncated_svd_reference(w, 3)
        assert np.array_equal(pair.u, ref.u)
        assert np.array_equal(pair.v, ref.v)

    def test_rank_equal_to_the_smaller_side_falls_back(self):
        w = rng(33).standard_normal((9, 5))
        with svd_operands() as operands:
            truncated_svd(w, 5)
        assert [op is w for op in operands] == [True]

    @settings(deadline=None, max_examples=25)
    @given(st.integers(0, 10_000), st.sampled_from([(40, 12), (12, 40)]))
    def test_sign_convention_and_balance(self, seed, shape):
        w = rng(seed).standard_normal(shape)
        pair = truncated_svd(w, 5)
        _, sigma, _ = svd_dense(w)
        gu, gv = gram(pair.u), gram(pair.v)
        scale = sigma[0]
        assert np.abs(gu - np.diag(sigma[:5])).max() <= 1e-12 * scale
        assert np.abs(gv - np.diag(sigma[:5])).max() <= 1e-12 * scale

    def test_flop_charge_is_below_the_full_svd(self):
        d_out, d_in, r = 600, 200, 8
        full = 4 * d_out * d_in * d_in + 8 * d_in ** 3  # svd_dense: 160 M
        w = make_linear_target(d_out, d_in, rng(34),
                               geometric(40.0, 0.95, 200))
        reset_counters()
        truncated_svd(w, r)
        gram_route = counters().flops
        assert gram_route < 0.45 * full
        # the Gram, the top r + 1 eigenpairs, and the thin products
        k = r + 1
        assert gram_route >= (2 * d_in * d_out * d_in + 4 * d_in ** 3 // 3
                              + 2 * d_out * d_in * k)

    def test_fallback_charges_the_full_svd_too(self):
        w = make_linear_target(600, 200, rng(35), geometric(40.0, 0.5, 20))
        reset_counters()
        truncated_svd(w, 8)
        assert counters().flops > 4 * 600 * 200 * 200 + 8 * 200 ** 3

    @staticmethod
    def full_scale_w():
        """A 600 x 200 ``w`` that the Gram route takes at rank 8, the
        shape of the full-scale preset's per-step projection."""
        w = make_linear_target(600, 200, rng(34), geometric(40.0, 0.95, 200))
        reset_counters()
        return w

    def test_w_checked_once(self, monkeypatch):
        w = self.full_scale_w()
        checked = record_checks(monkeypatch)
        with svd_operands() as operands:
            truncated_svd(w, 8)
        assert not any(op is w for op in operands)
        # w on entry; then w @ q (svd_dense) and the returned pair's two
        # factors; the Gram goes to the unchecked _eigh_top
        assert checked[0] == id(w)
        assert checked.count(id(w)) == 1
        assert len(checked) == 4

    # the work truncated_svd charges to the flops column of every svdlora
    # run; skipping an operand check must not change it
    def test_charges_unchanged(self):
        truncated_svd(self.full_scale_w(), 8)
        assert (counters().flops, counters().peak_alloc) == (61779298, 40000)


class TestGram:
    def test_orthonormal(self):
        q, _ = np.linalg.qr(rng(11).standard_normal((9, 4)))
        assert np.allclose(gram(q), np.eye(4), atol=1e-10)

    def test_single_column(self):
        x = rng(12).standard_normal((6, 1))
        assert np.isclose(gram(x)[0, 0], np.dot(x[:, 0], x[:, 0]))

    def test_matches_matmul(self):
        a = rng(13).standard_normal((8, 3))
        assert np.allclose(gram(a), matmul(a.T, a))

    def test_symmetric(self):
        a = rng(14).standard_normal((50, 7))
        g = gram(a)
        assert np.array_equal(g, g.T)

    def test_finite_gram_does_not_overflow(self):
        # 4 * 5.4e153**2 = 1.1664e308 is finite; doubling it to symmetrize
        # would overflow
        a = np.full((4, 1), 5.4e153)
        g = gram(a)
        assert np.isfinite(g).all()
        assert np.array_equal(g, a.T @ a)


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

    @pytest.mark.parametrize("d_out", [1, 3])
    def test_distance_to_dense_rejects_a_mismatched_w(self, d_out):
        # one row used to broadcast to a distance, three to numpy's error
        p = random_pair(rng(20), d_out, 4, 1)
        with pytest.raises(ShapeError,
                           match=rf"w \(5, 4\) .* \({d_out}, 4\)"):
            product_distance_to_dense(p, np.ones((5, 4)))

    def test_distance_to_dense_checks_w_once(self, monkeypatch):
        g = rng(21)
        p = random_pair(g, 8, 6, 3)
        w = g.standard_normal((8, 6))
        expected = product_distance_to_dense(p, w)
        checked = record_checks(monkeypatch)
        assert product_distance_to_dense(p, w) == expected
        # the pair's factors were checked when it was built
        assert checked == [id(w)]

    def test_distance_to_dense_with_cached_norm_is_identical(self):
        # the runner passes the target's sum(w * w), computed at set-up
        g = rng(22)
        p = random_pair(g, 8, 6, 3)
        w = g.standard_normal((8, 6))
        w_sq = float(np.sum(w * w))
        assert (product_distance_to_dense(p, w, w_sq)
                == product_distance_to_dense(p, w))
        # the cached value is used as given, and w is still checked
        assert (product_distance_to_dense(p, w, 2.0 * w_sq)
                > product_distance_to_dense(p, w))
        with pytest.raises(NonFiniteError):
            product_distance_to_dense(p, np.full((8, 6), np.nan), w_sq)

    # the work the runner's loss and gap charge to the flops column of
    # every oplora run; skipping the factors' checks must not change it
    @pytest.mark.parametrize("to_dense, d_out, d_in, flops, peak_alloc", [
        (False, 120, 40, 61440, 64),
        (False, 600, 200, 307200, 64),
        (True, 120, 40, 97280, 960),
        (True, 600, 200, 2022400, 4800),
    ])
    def test_charges_unchanged(self, to_dense, d_out, d_in, flops,
                               peak_alloc):
        g = rng(23)
        p = random_pair(g, d_out, d_in, 8)
        if to_dense:
            product_distance_to_dense(p, g.standard_normal((d_out, d_in)))
        else:
            product_distance(p, random_pair(g, d_out, d_in, 8))
        assert (counters().flops, counters().peak_alloc) == (flops,
                                                             peak_alloc)

    def test_pad_rank_keeps_product(self):
        g = rng(19)
        p = random_pair(g, 8, 6, 2)
        padded = pad_rank(p, 5, g)
        assert padded.rank == 5
        assert np.allclose(materialize(padded), materialize(p))

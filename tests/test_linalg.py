import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sketch_anomaly import linalg
from sketch_anomaly.errors import (
    ConvergenceError,
    DegenerateSpectrumError,
    ShapeError,
)
from sketch_anomaly.linalg import (
    as_matrix,
    effective_rank,
    operator_norm,
    spectral_stats,
    svd_thin,
    sym_eig,
    sym_eig_top,
)
from sketch_anomaly.synth import separated_spectrum, spectral_matrix


def char_poly_roots_3x3(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 matrix by bisection on det(M - x I).

    Independent of the eigensolver under test: evaluates the monic cubic
    x^3 - tr x^2 + s2 x - det and bisects each sign change.
    """
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    s2 = (
        m[0, 0] * m[1, 1]
        - m[0, 1] * m[1, 0]
        + m[0, 0] * m[2, 2]
        - m[0, 2] * m[2, 0]
        + m[1, 1] * m[2, 2]
        - m[1, 2] * m[2, 1]
    )
    det = float(np.linalg.det(m))  # 3x3 determinant, not an eigen routine

    def poly(x):
        return x**3 - tr * x**2 + s2 * x - det

    radius = float(np.abs(m).sum(axis=1).max()) + 1.0
    grid = np.linspace(-radius, radius, 20001)
    vals = poly(grid)
    roots = []
    for i in range(len(grid) - 1):
        lo, hi = grid[i], grid[i + 1]
        flo, fhi = vals[i], vals[i + 1]
        if flo == 0.0:
            roots.append(lo)
            continue
        if flo * fhi < 0:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                fmid = poly(mid)
                if flo * fmid <= 0:
                    hi = mid
                else:
                    lo, flo = mid, fmid
            roots.append(0.5 * (lo + hi))
    return np.sort(np.asarray(roots))[::-1]


class TestSymEig:
    def test_identity(self):
        dec = sym_eig(np.eye(2))
        np.testing.assert_allclose(dec.values, [1.0, 1.0])
        np.testing.assert_allclose(np.abs(dec.right_vectors), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        dec = sym_eig(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(dec.values, [4.0, 1.0])
        np.testing.assert_allclose(dec.right_vectors, np.eye(2), atol=1e-14)

    def test_char_poly_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = rng.standard_normal((3, 3))
            m = g + g.T
            expected = char_poly_roots_3x3(m)
            got = sym_eig(m).values
            assert expected.shape == (3,)
            np.testing.assert_allclose(got, expected, atol=1e-9)

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(11)
        for n in (3, 17, 60):
            g = rng.standard_normal((n, n))
            dec = sym_eig(g + g.T)
            q = dec.right_vectors
            assert np.abs(q.T @ q - np.eye(n)).max() <= 1e-10

    def test_reconstruction_within_tol(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((40, 40))
        m = g + g.T
        dec = sym_eig(m)
        resid = np.linalg.norm(
            (dec.right_vectors * dec.values) @ dec.right_vectors.T - m
        )
        assert resid <= 1e-13 * np.linalg.norm(m)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((8, 8))
        dec = sym_eig(g + g.T)
        lead = np.abs(dec.right_vectors).argmax(axis=0)
        cols = np.arange(8)
        assert np.all(dec.right_vectors[lead, cols] >= 0)

    def test_values_descending(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal((12, 12))
        dec = sym_eig(g + g.T)
        assert np.all(np.diff(dec.values) <= 0)

    def test_determinism_bytes(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((15, 15))
        m = g + g.T
        a = sym_eig(m)
        b = sym_eig(m.copy())
        assert a.values.tobytes() == b.values.tobytes()
        assert a.right_vectors.tobytes() == b.right_vectors.tobytes()

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            sym_eig(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        m = np.array([[1.0, 2.0], [0.5, 1.0]])
        with pytest.raises(ShapeError):
            sym_eig(m)

    def test_impossible_tol_raises_convergence(self, monkeypatch):
        monkeypatch.setattr(linalg, "EIG_TOL", 1e-18)
        rng = np.random.default_rng(8)
        g = rng.standard_normal((30, 30))
        with pytest.raises(ConvergenceError) as err:
            sym_eig(g + g.T)
        assert err.value.residual > 0

    @pytest.mark.parametrize(
        "scale", [1.0, 2.0**520, 2.0**-560], ids=["1", "2^520", "2^-560"]
    )
    def test_corrupted_vectors_raise_at_any_scale(self, monkeypatch, scale):
        # Past ~1e154 an unscaled ||M||_F overflows and every check against
        # it passes; far below ~1e-154 the squares underflow to zero.
        eigh = np.linalg.eigh

        def corrupt(m):
            values, vectors = eigh(m)
            vectors[:, 0] = vectors[:, 1]
            return values, vectors

        a = np.random.default_rng(9).standard_normal((30, 10))
        monkeypatch.setattr(np.linalg, "eigh", corrupt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                sym_eig((a.T @ a) * scale)

    def test_nan_residual_raises(self, monkeypatch):
        eigh = np.linalg.eigh

        def nan_vectors(m):
            values, vectors = eigh(m)
            vectors[:, 0] = np.nan
            return values, vectors

        a = np.random.default_rng(10).standard_normal((30, 10))
        monkeypatch.setattr(np.linalg, "eigh", nan_vectors)
        with pytest.raises(ConvergenceError):
            sym_eig(a.T @ a)

    @given(seed=st.integers(0, 2**32 - 1), power=st.integers(-600, 600))
    def test_eigenvalues_scale_with_the_matrix(self, seed, power):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 7)))
        gram = a.T @ a
        c = 2.0**power
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = sym_eig(c * gram).values
        values = sym_eig(gram).values
        np.testing.assert_allclose(
            scaled, c * values, rtol=1e-12, atol=1e-12 * c * values[0]
        )


def assert_reconstructs(a: np.ndarray, dec) -> None:
    """U = A V / sigma is orthonormal and U Sigma V^T = A V V^T equals A."""
    v = dec.right_vectors
    u = (a @ v) / dec.values[: dec.rank_used]
    assert np.abs(u.T @ u - np.eye(dec.rank_used)).max() <= 1e-10
    assert np.linalg.norm(a - a @ v @ v.T) <= 1e-8 * np.linalg.norm(a)


def rank_k_truncation(a: np.ndarray, k: int) -> np.ndarray:
    """A_k = A V_k V_k^T, the best rank-k approximation of A."""
    v_k = svd_thin(a).right_vectors[:, :k]
    return a @ v_k @ v_k.T


class TestSvdThin:
    def test_diagonal_example(self):
        a = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        dec = svd_thin(a)
        np.testing.assert_allclose(dec.values, [2.0, 1.0])
        np.testing.assert_allclose(dec.right_vectors, np.eye(2), atol=1e-14)

    def test_scaled_identity(self):
        for c in (3.0, -2.5):
            dec = svd_thin(c * np.eye(4))
            np.testing.assert_allclose(dec.values, np.full(4, abs(c)), atol=1e-12)

    def test_reconstruction_tall(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((6, 4))
        assert_reconstructs(a, svd_thin(a))

    def test_reconstruction_wide(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((4, 9))
        dec = svd_thin(a)
        assert_reconstructs(a, dec)
        v = dec.right_vectors
        assert np.abs(v.T @ v - np.eye(dec.rank_used)).max() <= 1e-10

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7)])
    def test_transpose_gives_left_vectors(self, shape):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(shape)
        dec, dec_t = svd_thin(a), svd_thin(a.T)
        # Non-square: both routes decompose the same Gram.
        assert dec_t.values.tobytes() == dec.values.tobytes()
        assert dec_t.rank_used == dec.rank_used
        u = dec_t.right_vectors
        assert np.abs(u.T @ u - np.eye(dec.rank_used)).max() <= 1e-10
        # Each u_j is +-A v_j / sigma_j (signs are normalized per call), so
        # the rank-k projectors agree for every k.
        w = (a @ dec.right_vectors) / dec.values[: dec.rank_used]
        for k in range(1, dec.rank_used + 1):
            np.testing.assert_allclose(
                u[:, :k] @ u[:, :k].T, w[:, :k] @ w[:, :k].T, atol=1e-10
            )

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7)])
    def test_fortran_input_is_the_c_copy(self, shape):
        a = np.random.default_rng(12).standard_normal(shape)
        dec, dec_c = svd_thin(a.T), svd_thin(np.ascontiguousarray(a.T))
        assert dec.values.tobytes() == dec_c.values.tobytes()
        assert dec.right_vectors.tobytes() == dec_c.right_vectors.tobytes()
        a[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            svd_thin(a.T)

    def test_zero_matrix_rank_zero(self):
        dec = svd_thin(np.zeros((3, 2)))
        assert dec.rank_used == 0
        np.testing.assert_allclose(dec.values, 0.0)

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            svd_thin(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_matrix(np.array([[np.nan, 1.0]]))


class TestSpectralStats:
    def test_hand_computed_example(self):
        stats = spectral_stats(svd_thin(np.diag([2.0, 1.0, 0.0])).values, k=1)
        assert stats.separation_delta == pytest.approx(0.75, abs=1e-12)
        assert stats.condition_kappa_k == pytest.approx(1.0, abs=1e-12)
        assert stats.stable_rank == pytest.approx(1.25, abs=1e-12)
        assert stats.numeric_rank_p == pytest.approx(1.25, abs=1e-12)

    def test_degenerate_spectrum_delta_zero(self):
        stats = spectral_stats(svd_thin(np.eye(2)).values, k=1)
        assert stats.separation_delta == pytest.approx(0.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(12)
        a = rng.standard_normal((8, 5))
        s1 = spectral_stats(svd_thin(a).values, k=2)
        s2 = spectral_stats(svd_thin(3.7 * a).values, k=2)
        for field in (
            "separation_delta",
            "condition_kappa_k",
            "stable_rank",
            "numeric_rank_p",
        ):
            assert getattr(s1, field) == pytest.approx(getattr(s2, field), rel=1e-10)

    def test_numeric_rank_at_least_one(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            sigma = svd_thin(rng.standard_normal((10, 6))).values
            for k in (1, 3, 5):
                stats = spectral_stats(sigma, k=k)
                assert stats.numeric_rank_p >= 1.0 - 1e-12
                assert stats.numeric_rank_p >= k - 1e-9

    def test_zero_matrix_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            spectral_stats(svd_thin(np.zeros((4, 3))).values, k=1)

    def test_k_range_validation(self):
        sigma = svd_thin(np.eye(3)).values
        with pytest.raises(ValueError):
            spectral_stats(sigma, k=3)
        with pytest.raises(ValueError):
            spectral_stats(sigma, k=0)


class TestTruncate:
    """Rank-k truncation through the right vectors of ``svd_thin``."""

    def test_full_rank_recovers_input(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((6, 4))
        approx = rank_k_truncation(a, svd_thin(a).rank_used)
        assert np.linalg.norm(a - approx) <= 1e-8 * np.linalg.norm(a)

    def test_diagonal_case(self):
        np.testing.assert_allclose(
            rank_k_truncation(np.diag([2.0, 1.0]), 1),
            [[2.0, 0.0], [0.0, 0.0]],
            atol=1e-12,
        )

    def test_eckart_young_identity(self):
        rng = np.random.default_rng(15)
        a = rng.standard_normal((5, 3))
        resid = np.sum((a - rank_k_truncation(a, 1)) ** 2)
        expected = float(np.sum(svd_thin(a).values[1:] ** 2))
        assert resid == pytest.approx(expected, rel=1e-9)

    def test_tail_mass_identity_all_k(self):
        rng = np.random.default_rng(16)
        for shape in ((7, 5), (4, 9)):
            a = rng.standard_normal(shape)
            dec = svd_thin(a)
            for k in range(dec.rank_used + 1):
                resid = np.sum((a - rank_k_truncation(a, k)) ** 2)
                expected = float(np.sum(dec.values[k:] ** 2))
                assert resid == pytest.approx(expected, rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 40, 800, 4096])
def test_effective_rank_floor_is_sqrt_m_eps_sigma_1(m):
    # sigma_2 just above, at and just below sqrt(m * eps) * sigma_1, padded
    # with zeros to a spectrum of m values.
    floor = np.sqrt(m * np.finfo(np.float64).eps)
    for sigma_2, rank in ((floor * (1 + 1e-6), 2), (floor, 1), (floor * (1 - 1e-6), 1)):
        sigma = np.zeros(m)
        sigma[:2] = 1.0, sigma_2
        assert effective_rank(sigma) == rank
        assert effective_rank(sigma * 1e150) == rank


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_matches_svd_top(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((9, 5))
        assert operator_norm(a) == pytest.approx(svd_thin(a).values[0], rel=1e-12)

    @given(seed=st.integers(0, 2**32 - 1), power=st.integers(-600, 600))
    def test_scales_with_the_matrix(self, seed, power):
        # No entry is squared: a Gram route reads 0 at 2^-600 and inf at 2^600.
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rng.integers(1, 9), rng.integers(1, 9)))
        c = 2.0**power
        assert operator_norm(c * a) == pytest.approx(c * operator_norm(a), rel=1e-12)

    def test_weyl_property(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            c = rng.standard_normal((8, 6))
            n = 0.3 * rng.standard_normal((8, 6))
            sc = svd_thin(c).values
            sd = svd_thin(c + n).values
            assert np.max(np.abs(sc - sd)) <= operator_norm(n) + 1e-9


def gram_with_spectrum(sigma, seed: int) -> np.ndarray:
    """A^T A for a random 3m/2 x m A with singular values ``sigma``."""
    a = spectral_matrix(3 * sigma.size // 2, sigma.size, sigma, seed)
    return a.T @ a


def no_gap_at(m: int, k: int) -> np.ndarray:
    """A slowly decaying spectrum with sigma_{k+1} = sigma_k."""
    sigma = np.linspace(1.0, 0.5, m)
    sigma[k] = sigma[k - 1]
    return sigma


def gap_too_small_at(m: int, k: int) -> np.ndarray:
    """A slowly decaying spectrum with a 0.1 % step after sigma_k."""
    sigma = np.linspace(1.0, 0.5, m)
    sigma[k:] *= 0.999
    return sigma


def assert_same_bytes(got, expected) -> None:
    assert got.values.tobytes() == expected.values.tobytes()
    assert got.right_vectors.tobytes() == expected.right_vectors.tobytes()


class TestSymEigTop:
    """Certified top-k eigenpairs, or the full ``sym_eig`` where no
    certificate holds."""

    K = 4
    WIDTH = K + linalg._TOP_EXTRA
    M = 170

    def test_certified_pairs_are_the_top_of_the_full_route(self, sym_eig_shapes):
        sigma = separated_spectrum(self.M, self.K, delta=0.4, tail_sr=0.3)
        g = gram_with_spectrum(sigma, 1)
        top = sym_eig_top(g, self.K)
        assert set(sym_eig_shapes) == {(self.WIDTH, self.WIDTH)}
        assert len(sym_eig_shapes) <= linalg._TOP_ROUNDS
        full = sym_eig(g)
        assert top.values.shape == (self.K,)
        assert top.right_vectors.shape == (self.M, self.K)
        np.testing.assert_allclose(top.values, full.values[: self.K], rtol=1e-13)
        # Distinct top eigenvalues: each vector matches, up to its sign.
        overlap = np.abs(full.right_vectors[:, : self.K].T @ top.right_vectors)
        np.testing.assert_allclose(overlap, np.eye(self.K), rtol=0, atol=1e-12)

    def test_same_input_same_bytes(self):
        sigma = separated_spectrum(self.M, self.K)
        g = gram_with_spectrum(sigma, 2)
        first = sym_eig_top(g, self.K)
        assert_same_bytes(first, sym_eig_top(g.copy(), self.K))

    @pytest.mark.parametrize("spectrum", [no_gap_at, gap_too_small_at])
    def test_slow_convergence_falls_back_at_the_round_cap(
        self, sym_eig_shapes, spectrum
    ):
        g = gram_with_spectrum(spectrum(self.M, self.K), 3)
        got = sym_eig_top(g, self.K)
        ritz = [s for s in sym_eig_shapes if s == (self.WIDTH, self.WIDTH)]
        assert len(ritz) == linalg._TOP_ROUNDS
        assert sym_eig_shapes == ritz + [(self.M, self.M)]
        assert_same_bytes(got, sym_eig(g))

    def test_converged_pairs_without_a_gap_fall_back(self, sym_eig_shapes):
        # sigma_{k+1} = sigma_k over a fast-decaying tail: the residual
        # converges within the cap, and the certificate cannot hold.
        tail = 0.05 * 0.6 ** np.arange(self.M - self.K - 1)
        sigma = np.concatenate([np.linspace(1.0, 0.8, self.K), [0.8], tail])
        g = gram_with_spectrum(sigma, 4)
        got = sym_eig_top(g, self.K)
        assert 1 <= len(sym_eig_shapes) - 1 < linalg._TOP_ROUNDS
        assert sym_eig_shapes[-1] == (self.M, self.M)
        assert_same_bytes(got, sym_eig(g))

    def test_certified_gap_below_the_floor_falls_back(
        self, sym_eig_shapes, monkeypatch
    ):
        # lambda_{k+1} = lambda_k - 4e-7 lambda_1 over a tail of Frobenius norm
        # 1.3e-4: the residual converges within the cap, and the
        # certificate holds for a separation of about 4e-7, which is below
        # SEPARATION_WARN_FLOOR.
        tail = 1e-4 * 0.6 ** np.arange(self.M - self.K - 1)
        lam = np.concatenate([np.linspace(1.0, 0.8, self.K), [0.8 - 4e-7], tail])
        g = gram_with_spectrum(np.sqrt(lam), 5)
        got = sym_eig_top(g, self.K)
        assert 1 <= len(sym_eig_shapes) - 1 < linalg._TOP_ROUNDS
        assert sym_eig_shapes[-1] == (self.M, self.M)
        assert_same_bytes(got, sym_eig(g))
        delta = (got.values[self.K - 1] - got.values[self.K]) / got.values[0]
        assert 0.0 < delta < linalg.SEPARATION_WARN_FLOOR
        # The floor is what turns it down: at 1e-7 the pairs are certified.
        monkeypatch.setattr(linalg, "SEPARATION_WARN_FLOOR", 1e-7)
        assert sym_eig_top(g, self.K).values.shape == (self.K,)

    def test_narrow_matrix_goes_straight_to_sym_eig(self, sym_eig_shapes):
        m = linalg._TOP_MIN_WIDTHS * self.WIDTH - 1
        g = gram_with_spectrum(separated_spectrum(m, self.K), 6)
        assert_same_bytes(sym_eig_top(g, self.K), sym_eig(g))
        assert sym_eig_shapes == [(m, m)]

    @pytest.mark.parametrize(
        "scale", [2.0**-400, 2.0**400, 2.0**1000], ids=["2^-400", "2^400", "2^1000"]
    )
    def test_norm_out_of_range_goes_straight_to_sym_eig(self, sym_eig_shapes, scale):
        # At 2^1000 ||M||_F overflows, with no warning.
        g = gram_with_spectrum(separated_spectrum(self.M, self.K), 7) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sym_eig_top(g, self.K)
        assert_same_bytes(got, sym_eig(g))
        assert sym_eig_shapes == [(self.M, self.M)]

    def test_rejects_bad_input(self):
        g = gram_with_spectrum(separated_spectrum(self.M, self.K), 8)
        with pytest.raises(ShapeError):
            sym_eig_top(g[:, :-1], self.K)
        with pytest.raises(ValueError, match="k must be"):
            sym_eig_top(g, 0)
        g[3, 5] = g[5, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            sym_eig_top(g, self.K)

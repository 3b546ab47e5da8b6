import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketch_anomaly import linalg
from sketch_anomaly.errors import RankDeficientError, ShapeError
from sketch_anomaly.evaluate import EvalConfig, ground_truth, top_fraction_mask
from sketch_anomaly.linalg import svd_thin, sym_eig, sym_eig_top
from sketch_anomaly.pipelines import PipelineConfig
from sketch_anomaly.scores import (
    EXACT_FIELDS,
    MODE_EXACT_BATCH,
    MODE_SKETCHED_BATCH,
    MODE_SKETCHED_ONLINE,
    PROJECTED_FIELDS,
    ROWSPACE_FIELDS,
    ScoreTable,
    SeparationWarning,
    batch_scores,
    score_block,
    score_blocks,
)
from sketch_anomaly.synth import separated_matrix, spectral_matrix

from oracles import MODE_EXACT_ONLINE, online_scores

BASIS_MATRIX = np.array([[2.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


def score_after(prefix, row, k, lam=None):
    """Row of ``row`` scored against the SVD of the rows before it."""
    return list(online_scores(iter([*prefix, row]), k, lam=lam))[-1]


def ridge_identity_deviation(matrix, k, lam):
    """Max relative gap between ridge leverage and L^k + T^k / lambda."""
    worst = 0.0
    for rec in batch_scores(matrix, k, lam=lam):
        predicted = rec.rank_k_leverage + rec.projection_distance / lam
        denom = max(abs(rec.ridge_leverage), 1e-30)
        worst = max(worst, abs(rec.ridge_leverage - predicted) / denom)
    return worst


class TestScoreRow:
    """One row scored against a fixed basis (the online scorer's step)."""

    def test_row_in_principal_direction(self):
        rec = score_after(BASIS_MATRIX, np.array([2.0, 0.0]), 1)
        assert rec.rank_k_leverage == pytest.approx(1.0, abs=1e-12)
        assert rec.projection_distance == pytest.approx(0.0, abs=1e-12)
        assert rec.full_leverage == pytest.approx(1.0, abs=1e-12)

    def test_row_orthogonal_to_principal(self):
        rec = score_after(BASIS_MATRIX, np.array([0.0, 1.0]), 1)
        assert rec.rank_k_leverage == pytest.approx(0.0, abs=1e-12)
        assert rec.projection_distance == pytest.approx(1.0, abs=1e-12)
        assert rec.full_leverage == pytest.approx(1.0, abs=1e-12)

    def test_zero_row(self):
        rec = score_after(BASIS_MATRIX, np.zeros(2), 1, lam=0.5)
        assert rec.full_leverage == 0.0
        assert rec.rank_k_leverage == 0.0
        assert rec.projection_distance == 0.0
        assert rec.tail_leverage == 0.0
        assert rec.ridge_leverage == 0.0

    def test_rank_deficient_basis_rejected(self):
        rank_one = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(RankDeficientError):
            batch_scores(rank_one, 2)
        # Online, a prefix of rank below k yields a sentinel instead.
        assert not score_after(rank_one, np.array([1.0, 0.0]), 2).defined

    def test_lambda_must_be_positive(self):
        # Every entry point that takes lambda rejects it before scoring.
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda"):
                batch_scores(BASIS_MATRIX, 1, lam=lam)
            with pytest.raises(ValueError, match="lambda"):
                online_scores(iter(BASIS_MATRIX), 1, lam=lam)
            with pytest.raises(ValueError, match="lambda"):
                PipelineConfig(k=1, ell=4, lam=lam)
            with pytest.raises(ValueError, match="lambda"):
                EvalConfig(k=1, eta=0.1, score_kind="ridge", lam=lam)

    def test_ridge_matches_resolvent_oracle(self):
        # L_lam(i) = a_i^T (A^T A + lam I)^-1 a_i, computed via a linear solve.
        rng = np.random.default_rng(21)
        a = rng.standard_normal((12, 5))
        lam = 0.3
        gram = a.T @ a + lam * np.eye(5)
        for i in range(12):
            rec = score_after(a, a[i], 2, lam=lam)
            oracle = float(a[i] @ np.linalg.solve(gram, a[i]))
            assert rec.ridge_leverage == pytest.approx(oracle, rel=1e-8)

    def test_ridge_oracle_wide_matrix(self):
        # Wide case: stored basis spans only n directions, the rest of the
        # row mass is charged at 1/lam.
        rng = np.random.default_rng(22)
        a = rng.standard_normal((4, 9))
        lam = 0.7
        gram = a.T @ a + lam * np.eye(9)
        probe = rng.standard_normal(9)
        rec = score_after(a, probe, 2, lam=lam)
        oracle = float(probe @ np.linalg.solve(gram, probe))
        assert rec.ridge_leverage == pytest.approx(oracle, rel=1e-8)


class TestBatchScores:
    def test_disj_fixture_full_leverage(self):
        # Set-disjointness style: two copies of e_1, then e_2 and e_3.  The
        # repeated rows carry full leverage 1/2 each, the distinct ones 1.
        eye = np.eye(4)
        a = np.array([eye[0], eye[0], eye[1], eye[2]])
        records = batch_scores(a, k=1)
        lev = [r.full_leverage for r in records]
        assert lev[0] == pytest.approx(0.5, abs=1e-10)
        assert lev[1] == pytest.approx(0.5, abs=1e-10)
        assert lev[2] == pytest.approx(1.0, abs=1e-10)
        assert lev[3] == pytest.approx(1.0, abs=1e-10)

    def test_rank_k_leverage_sums_to_k(self):
        rng = np.random.default_rng(23)
        for k in (1, 3):
            a = rng.standard_normal((20, 7))
            records = batch_scores(a, k)
            total = sum(r.rank_k_leverage for r in records)
            assert total == pytest.approx(k, abs=1e-8)

    def test_projection_sums_to_tail_mass(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((15, 6))
        k = 2
        records = batch_scores(a, k)
        sigma = svd_thin(a).values
        tail = float(np.sum(sigma[k:] ** 2))
        total = sum(r.projection_distance for r in records)
        assert total == pytest.approx(tail, rel=1e-8)

    def test_head_tail_split_of_full_leverage(self):
        rng = np.random.default_rng(25)
        a = rng.standard_normal((10, 5))
        for rec in batch_scores(a, 2):
            assert rec.rank_k_leverage + rec.tail_leverage == pytest.approx(
                rec.full_leverage, abs=1e-8
            )
            assert 0.0 <= rec.rank_k_leverage <= rec.full_leverage + 1e-12

    def test_projection_bounded_by_row_norm(self):
        rng = np.random.default_rng(26)
        a = rng.standard_normal((10, 5))
        for i, rec in enumerate(batch_scores(a, 2)):
            assert rec.projection_distance <= float(a[i] @ a[i]) + 1e-9

    def test_rotation_invariance(self):
        rng = np.random.default_rng(27)
        a = rng.standard_normal((12, 6))
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        base = batch_scores(a, 2, lam=0.4)
        rotated = batch_scores(a @ q, 2, lam=0.4)
        for r1, r2 in zip(base, rotated):
            assert r1.full_leverage == pytest.approx(r2.full_leverage, abs=1e-8)
            assert r1.rank_k_leverage == pytest.approx(r2.rank_k_leverage, abs=1e-8)
            assert r1.projection_distance == pytest.approx(
                r2.projection_distance, abs=1e-8
            )
            assert r1.ridge_leverage == pytest.approx(r2.ridge_leverage, abs=1e-8)

    def test_degenerate_separation_warns(self):
        a = np.vstack([np.eye(3), np.eye(3)])
        with pytest.warns(SeparationWarning):
            batch_scores(a, 1)

    def test_degenerate_separation_warns_projected(self):
        a = np.vstack([np.eye(3), np.eye(3)])
        with pytest.warns(SeparationWarning):
            batch_scores(a, 1, fields=PROJECTED_FIELDS)

    def test_degenerate_separation_warns_after_a_top_k_attempt(self, sym_eig_shapes):
        # Wide enough for the top-k route to iterate; sigma_3 = sigma_2, so
        # no certificate holds and the warning reads the full spectrum.
        sigma = np.concatenate([[1.0, 0.9, 0.9], 0.05 * 0.6 ** np.arange(137)])
        a = spectral_matrix(210, 140, sigma, seed=33)
        with pytest.warns(SeparationWarning):
            batch_scores(a, 2, fields=PROJECTED_FIELDS)
        assert sym_eig_shapes[0] == (2 + linalg._TOP_EXTRA,) * 2
        assert sym_eig_shapes[-1] == (140, 140)

    def test_mode_field(self):
        table = batch_scores(np.eye(3) * 2.0 + np.ones((3, 3)), 1)
        assert table.mode == "exact-batch" and table.defined.all()

    @pytest.mark.parametrize("cond", [1e3, 1e5])
    @pytest.mark.parametrize("n,d", [(60, 400), (30, 800)])
    def test_wide_matches_lapack(self, n, d, cond):
        # A = U diag(sigma) V^T with sigma geometric from 1 to 1/cond.
        rng = np.random.default_rng(28)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        v, _ = np.linalg.qr(rng.standard_normal((d, n)))
        a = (u * np.geomspace(1.0, 1.0 / cond, n)) @ v.T
        k = 5
        table = batch_scores(a, k)
        lu, s, _ = np.linalg.svd(a, full_matrices=False)
        expected = {
            "full_leverage": (lu**2).sum(axis=1),
            "rank_k_leverage": (lu[:, :k] ** 2).sum(axis=1),
            "projection_distance": ((lu[:, k:] * s[k:]) ** 2).sum(axis=1),
        }
        for field, ref in expected.items():
            np.testing.assert_allclose(
                getattr(table, field), ref, rtol=1e-12, atol=0, err_msg=field
            )


    @pytest.mark.parametrize("lam", [None, 0.7])
    @pytest.mark.parametrize("n,d", [(1100, 60), (300, 900)])
    def test_blocks_match_one_block(self, n, d, lam):
        # 1100 rows cross two block boundaries; a wide A's blocks are rows of
        # U Sigma.  BLAS may serve the short last block's X_b V by another
        # kernel, so tall rows may move in the last bits, not more.
        a = np.random.default_rng(29).standard_normal((n, d)) * np.geomspace(3.0, 0.2, d)
        k = 4
        table = batch_scores(a, k, lam=lam)
        tall = d <= n
        basis = svd_thin(a if tall else a.T)
        sigma = basis.values[: basis.rank_used]
        alpha = a @ basis.right_vectors if tall else basis.right_vectors * sigma
        one = score_block(alpha, np.einsum("ij,ij->i", a, a), sigma, k, lam)
        for field in EXACT_FIELDS:
            if one[field] is None:
                assert getattr(table, field) is None
            elif tall:
                np.testing.assert_allclose(
                    getattr(table, field), one[field], rtol=1e-15, atol=0, err_msg=field
                )
            else:
                np.testing.assert_array_equal(getattr(table, field), one[field], field)

    def test_working_memory_is_below_the_input(self):
        # Block-bounded scoring holds the Gram, its vectors and one block's
        # coordinates; whole-matrix X V and (X V)^2 would read about 2x.
        a = np.random.default_rng(30).standard_normal((3000, 200))
        a *= np.geomspace(3.0, 0.2, 200)
        cfg = EvalConfig(k=5, eta=0.05)
        runs = {
            "batch_scores": lambda: batch_scores(a, 5),
            "batch_scores lambda": lambda: batch_scores(a, 5, lam=0.7),
            "ground_truth": lambda: ground_truth(a, cfg),
        }
        for name, run in runs.items():
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.75 * a.nbytes, (name, peak / a.nbytes)

    def test_wide_input_is_read_in_place(self):
        # A wide A is decomposed through svd_thin(A.T), which forms A A^T
        # from A's own bytes; a C-ordered copy of A.T would read about 1x.
        a = np.random.default_rng(31).standard_normal((200, 20000))
        tracemalloc.start()
        try:
            batch_scores(a, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * a.nbytes, peak / a.nbytes


@settings(max_examples=40)
@given(
    k=st.integers(1, 4),
    m=st.integers(160, 220),
    ratio=st.floats(1.5, 3.0),
    delta=st.floats(0.1, 0.7),
    tail_sr=st.floats(0.01, 0.5),
    tall=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_top_k_route_scores_as_the_full_route(k, m, ratio, delta, tail_sr, tall, seed):
    # Random separated spectra, wide enough for the top-k route to iterate
    # and certify: its pairs give the full route's L^k and T^k, and the
    # same labels.
    n = int(m * ratio)
    a = separated_matrix(
        *((n, m) if tall else (m, n)), k, seed, delta=delta, kappa=1.2, tail_sr=tail_sr
    )
    gram = a.T @ a if tall else a @ a.T
    top = sym_eig_top(gram, k)
    assert top.values.size == k  # certified
    projected = batch_scores(a, k, fields=PROJECTED_FIELDS)
    full = batch_scores(a, k)
    # Each route's top-k vectors are within ||E|| / gap of the Gram's
    # (Davis-Kahan), E being its top-k residual, so the two are within the
    # sum.  T^k = |a|^2 - |V_k^T a|^2 then moves by at most that angle
    # times |a|^2, plus rounding, which cancels terms of size |a|^2 over
    # d products: about sqrt(d) eps |a|^2 in the probabilistic model, and 8
    # times that leaves room for another BLAS's summation order.  L^k is at
    # most 1 and moves by a few eps.
    exact = sym_eig(gram)
    residuals = [
        np.linalg.norm(gram @ vectors - vectors * values)
        for values, vectors in [
            (top.values, top.right_vectors),
            (exact.values[:k], exact.right_vectors[:, :k]),
        ]
    ]
    angle = sum(residuals) / (exact.values[k - 1] - exact.values[k])
    rounding = 8.0 * math.sqrt(a.shape[1]) * np.finfo(np.float64).eps
    tolerance = {
        "rank_k_leverage": 1e-12 * np.abs(full.rank_k_leverage).max(),
        "projection_distance": (angle + rounding) * np.einsum("ij,ij->i", a, a).max(),
    }
    for field in ("rank_k_leverage", "projection_distance"):
        got, want = getattr(projected, field), getattr(full, field)
        assert np.abs(got - want).max() <= tolerance[field], field
        for eta in (0.02, 0.1):
            assert np.array_equal(
                top_fraction_mask(got, eta), top_fraction_mask(want, eta)
            )
    assert abs(projected.rank_k_leverage.sum() - k) <= 1e-12 * k


class TestRidgeDiagnostic:
    def test_ridge_relation_on_planted_data(self):
        # Rank-k signal plus white noise, sigma_k^2 >> lam >> sigma_{k+1}^2:
        # L_lam should track L^k + T^k / lam.  Diagnostic only; the margin
        # asserted here is a sanity envelope, not a proven bound.
        a = separated_matrix(300, 40, 3, seed=31, delta=0.6, kappa=1.1, tail_sr=1e-4)
        sigma = svd_thin(a).values
        lam = float(np.sqrt(sigma[2] ** 2 * sigma[3] ** 2))  # geometric middle
        deviation = ridge_identity_deviation(a, 3, lam)
        assert np.isfinite(deviation)
        assert deviation < 0.2

    def test_identity_deviation_nonnegative(self):
        rng = np.random.default_rng(32)
        a = rng.standard_normal((10, 4))
        assert ridge_identity_deviation(a, 1, 0.5) >= 0.0


def prefix_svd_oracle(matrix: np.ndarray, k: int):
    """Online scores recomputed from scratch per prefix (independent path)."""
    out = []
    for i in range(matrix.shape[0]):
        prefix = matrix[:i]
        if i == 0:
            out.append(None)
            continue
        dec = svd_thin(prefix)
        if dec.rank_used < k:
            out.append(None)
            continue
        row = matrix[i]
        out.append(
            score_block(
                (dec.right_vectors.T @ row)[None, :],
                np.array([row @ row]),
                dec.values[: dec.rank_used],
                k,
            )
        )
    return out


class TestOnlineScores:
    def test_first_rows_are_sentinels(self):
        rng = np.random.default_rng(33)
        a = rng.standard_normal((10, 4))
        table = online_scores(iter(a), k=3)
        assert not table.defined[:3].any() and table.defined[3]
        for row in list(table)[:3]:
            assert not row.defined
            assert row.full_leverage is None

    def test_matches_prefix_svd_oracle(self):
        rng = np.random.default_rng(34)
        a = rng.standard_normal((30, 6))
        records = online_scores(iter(a), k=2)
        oracle = prefix_svd_oracle(a, 2)
        for rec, exp in zip(records, oracle):
            if exp is None:
                assert not rec.defined
                continue
            assert rec.defined
            assert rec.rank_k_leverage == pytest.approx(
                exp["rank_k_leverage"][0], abs=1e-8
            )
            assert rec.projection_distance == pytest.approx(
                exp["projection_distance"][0], abs=1e-8
            )
            assert rec.full_leverage == pytest.approx(
                exp["full_leverage"][0], abs=1e-8
            )

    def test_orthogonal_row_scores_unit_distance(self):
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0, 0.0])
        table = online_scores(iter([e1, e1, e1, e2]), k=1)
        assert table.projection_distance[3] == pytest.approx(1.0, abs=1e-10)

    def test_width_mismatch_raises(self):
        rows = [np.ones(3), np.ones(4)]
        with pytest.raises(ShapeError):
            online_scores(iter(rows), k=1)

    def test_sentinel_serialization_shape(self):
        # Rows 0 and 1 see a prefix of rank 0 and 1 < k = 2.
        table = online_scores(iter(np.eye(3)), k=2, lam=0.5)
        assert table.defined.tolist() == [False, False, True]
        assert json.loads(table.to_json())[1] == {
            "row_index": 1,
            **dict.fromkeys(EXACT_FIELDS),
            "mode": "exact-online",
            "defined": False,
            "projection_distance_raw": None,
        }


class TestScoreBlock:
    @settings(max_examples=40)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 9),
        st.integers(2, 30),
        st.data(),
    )
    def test_properties_and_svd_reference(self, seed, d, extra_rows, data):
        k = data.draw(st.integers(1, d - 1))
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((d + extra_rows, d)) * rng.uniform(0.1, 10.0, d)
        basis = svd_thin(a)
        row_sq = np.einsum("ij,ij->i", a, a)
        cols = score_block(
            a @ basis.right_vectors,
            row_sq,
            basis.values[: basis.rank_used],
            k,
            lam=0.5,
        )
        full, lev_k = cols["full_leverage"], cols["rank_k_leverage"]
        assert lev_k.sum() == pytest.approx(k, abs=1e-9 * k)
        assert np.all(lev_k >= -1e-9)
        assert np.all(lev_k <= full + 1e-9)
        assert np.all(full <= 1.0 + 1e-9)
        np.testing.assert_allclose(lev_k + cols["tail_leverage"], full, atol=1e-9)
        assert np.all(cols["projection_distance"] >= 0.0)
        assert np.all(cols["projection_distance_raw"] >= -1e-9 * row_sq.max())

        # Independent reference: QR, then LAPACK's SVD of the small factor.
        q, r = np.linalg.qr(a)
        u_r, s, _ = np.linalg.svd(r)
        u = q @ u_r
        np.testing.assert_allclose(full, (u**2).sum(axis=1), atol=1e-8)
        np.testing.assert_allclose(lev_k, (u[:, :k] ** 2).sum(axis=1), atol=1e-8)
        proj_ref = row_sq - ((u[:, :k] * s[:k]) ** 2).sum(axis=1)
        np.testing.assert_allclose(
            cols["projection_distance_raw"], proj_ref, atol=1e-8 * row_sq.max()
        )
        ridge_ref = ((u * s) ** 2 / (s**2 + 0.5)).sum(axis=1)
        np.testing.assert_allclose(cols["ridge_leverage"], ridge_ref, rtol=1e-8)

    def test_ridge_column_absent_without_lambda(self):
        cols = score_block(np.ones((3, 2)), np.full(3, 2.0), np.ones(2), 1)
        assert cols["ridge_leverage"] is None
        np.testing.assert_array_equal(cols["projection_distance_raw"], np.ones(3))


class TestScoreBlocks:
    SIGMA = np.array([3.0, 2.0, 1.0, 0.5])

    @staticmethod
    def pairs(sizes):
        rng = np.random.default_rng(31)
        return [(rng.standard_normal((n, 6)), rng.standard_normal((n, 4))) for n in sizes]

    @pytest.mark.parametrize("lam", [None, 0.5])
    @pytest.mark.parametrize("fields", [ROWSPACE_FIELDS, PROJECTED_FIELDS])
    @pytest.mark.parametrize("sizes", [(5, 1, 3), (4,)])
    def test_columns_are_the_per_pair_score_block_columns(self, sizes, fields, lam):
        pairs = self.pairs(sizes)
        table = score_blocks(
            MODE_SKETCHED_BATCH, iter(pairs), self.SIGMA, 2, lam, fields
        )
        parts = [
            score_block(alpha, np.einsum("ij,ij->i", rows, rows), self.SIGMA, 2, lam)
            for rows, alpha in pairs
        ]
        assert table.mode == MODE_SKETCHED_BATCH
        assert table.defined.dtype == bool
        np.testing.assert_array_equal(table.defined, np.ones(sum(sizes), dtype=bool))
        for name in ROWSPACE_FIELDS:
            column = getattr(table, name)
            if name not in fields or (name == "ridge_leverage" and lam is None):
                assert column is None, name
            else:
                expected = np.concatenate([part[name] for part in parts])
                assert column.tobytes() == expected.tobytes(), name


def reference_json(table: ScoreTable) -> str:
    """The table through ``json.dumps``: one dict per row, read cell by cell
    from the columns."""

    def cell(name, i):
        column = getattr(table, name)
        return None if column is None or not table.defined[i] else float(column[i])

    rows = [
        {
            "row_index": i,
            **{name: cell(name, i) for name in EXACT_FIELDS},
            "mode": table.mode,
            "defined": bool(table.defined[i]),
            "projection_distance_raw": cell("projection_distance_raw", i),
        }
        for i in range(len(table))
    ]
    return json.dumps(rows, indent=2) + "\n"


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
    -1e300, 1e16, 0.1, math.nan, math.inf, -math.inf,
]


@st.composite
def score_tables(draw):
    n = draw(st.integers(0, 50))
    values = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
    column = st.none() | st.lists(values, min_size=n, max_size=n).map(np.array)
    mask = st.lists(st.booleans(), min_size=n, max_size=n)
    mode = st.sampled_from(
        [MODE_EXACT_BATCH, MODE_EXACT_ONLINE, MODE_SKETCHED_BATCH, MODE_SKETCHED_ONLINE]
    )
    return ScoreTable(
        draw(mode),
        np.array(draw(mask), dtype=bool),
        **{name: draw(column) for name in ROWSPACE_FIELDS},
    )


@st.composite
def clamped_tables(draw):
    """Tables whose T^k is ``np.maximum(raw, 0.0)``, as the pipelines fill
    it: equal to raw T^k where raw is non-negative and finite, +0.0 where
    raw is negative or -0.0 (equal under ``==``, written differently), NaN
    where raw is NaN."""
    n = draw(st.integers(1, 40))
    values = st.one_of(
        st.floats(-1e3, 1e3), st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf])
    )
    raw = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    defined = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    raw[~defined] = math.nan
    other = st.none() | st.just(np.sqrt(np.abs(raw)))
    return ScoreTable(
        draw(st.sampled_from([MODE_SKETCHED_BATCH, MODE_SKETCHED_ONLINE])),
        defined,
        full_leverage=draw(other),
        rank_k_leverage=np.abs(raw),
        projection_distance=np.maximum(raw, 0.0),
        tail_leverage=draw(other),
        ridge_leverage=draw(other),
        projection_distance_raw=raw,
    )


class TestScoreTable:
    @settings(max_examples=200)
    @given(score_tables())
    def test_json_matches_json_dumps(self, table):
        assert table.to_json() == reference_json(table)

    @settings(max_examples=100)
    @given(clamped_tables())
    def test_clamped_distance_json_matches_json_dumps(self, table):
        assert table.to_json() == reference_json(table)

    def test_clamped_negative_zero_is_written_as_positive_zero(self):
        raw = np.array([-0.0, -1.5, 2.5])
        table = ScoreTable(
            MODE_SKETCHED_BATCH, np.ones(3, dtype=bool), None, raw, np.maximum(raw, 0.0),
            None, None, raw,
        )
        rows = table.to_json()
        assert rows == reference_json(table)
        assert '"projection_distance": 0.0,' in rows
        assert '"projection_distance_raw": -0.0\n' in rows
        assert '"projection_distance": 2.5,' in rows

    @settings(max_examples=50)
    @given(score_tables())
    def test_rows_read_the_columns(self, table):
        # json.dumps compares NaN cells that ``==`` would not.
        rows = [row._asdict() for row in table]
        assert len(table) == len(rows)
        reference = json.loads(reference_json(table))
        for ref in reference:
            del ref["mode"]
        assert json.dumps(rows, sort_keys=True) == json.dumps(reference, sort_keys=True)

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketch_anomaly import pipelines, sketches
from sketch_anomaly.errors import RankDeficientError, ShapeError
from sketch_anomaly.linalg import operator_norm, svd_thin, sym_eig
from sketch_anomaly.pipelines import (
    PIPELINE_MODES,
    PipelineConfig,
    run_colsample_pipeline,
    run_fd_pipeline,
    run_online_pipeline,
    run_pipeline,
    run_rowsample_pipeline,
    run_rproj_pipeline,
)
from sketch_anomaly.scores import ROWSPACE_FIELDS, batch_scores
from sketch_anomaly.sketches import (
    ColumnSamplePlan,
    FrequentDirections,
    SignProjector,
    column_sample_plan,
    fd_ingest,
    row_sample,
)
from sketch_anomaly.synth import separated_matrix
from sketch_anomaly.verify import (
    check_projector,
    fd_ell_for_mu,
    mu_for_average_l,
    mu_for_pointwise_t,
)

from oracles import online_scores


def record_arrays(records):
    lev = np.array([r.rank_k_leverage for r in records if r.defined])
    proj = np.array([r.projection_distance for r in records if r.defined])
    return lev, proj


class TestPassDiscipline:
    def setup_method(self):
        rng = np.random.default_rng(61)
        self.matrix = rng.standard_normal((30, 8))

    def test_fd_two_passes(self, counting_source):
        src = counting_source(self.matrix)
        run_fd_pipeline(src, PipelineConfig(k=2, ell=6))
        assert src.passes == 2

    def test_rproj_two_passes(self, counting_source):
        src = counting_source(self.matrix)
        run_rproj_pipeline(src, PipelineConfig(k=2, ell=12, seed=3, mode="rproj"))
        assert src.passes == 2

    def test_colsample_three_passes(self, counting_source):
        src = counting_source(self.matrix)
        run_colsample_pipeline(
            src, PipelineConfig(k=2, ell=12, seed=3, mode="colsample")
        )
        assert src.passes == 3

    def test_rowsample_two_passes(self, counting_source):
        src = counting_source(self.matrix)
        run_rowsample_pipeline(
            src, PipelineConfig(k=2, ell=40, seed=3, mode="rowsample")
        )
        assert src.passes == 2

    def test_online_single_pass(self, counting_source):
        src = counting_source(self.matrix)
        run_online_pipeline(src, PipelineConfig(k=2, ell=8, mode="online-fd"))
        assert src.passes == 1

    @pytest.mark.parametrize("mode", sorted(pipelines.FIRST_PASSES))
    def test_resume_makes_only_the_passes_after_pass_zero(
        self, counting_source, table_columns, mode
    ):
        cfg = PipelineConfig(k=2, ell=6, seed=3, mode=mode)
        src = counting_source(self.matrix)
        plain = run_pipeline(src, cfg)
        passes = src.passes
        state = pipelines.FIRST_PASSES[mode](self.matrix, cfg)
        src = counting_source(self.matrix)
        resumed = run_pipeline(src, cfg, state)
        assert src.passes == passes - 1
        assert table_columns(resumed) == table_columns(plain)

    @pytest.mark.parametrize("mode", ["fd", "rproj", "colsample", "rowsample"])
    def test_shared_iterator_is_an_error_not_an_empty_table(self, mode):
        # The first pass uses up the one iterator, so a later pass sees no
        # rows at all.
        rows = iter(self.matrix)
        cfg = PipelineConfig(k=2, ell=12, seed=3, mode=mode)
        with pytest.raises(ShapeError, match="^row source produced no rows$"):
            run_pipeline(lambda: rows, cfg)


class TestFdPipeline:
    def test_lossless_sketch_equals_exact(self):
        rng = np.random.default_rng(62)
        a = rng.standard_normal((20, 6)) @ np.diag([5, 3, 2, 0.5, 0.3, 0.2])
        records = run_fd_pipeline(lambda: iter(a), PipelineConfig(k=2, ell=16))
        exact = batch_scores(a, 2)
        for rec, exp in zip(records, exact):
            assert rec.rank_k_leverage == pytest.approx(
                exp.rank_k_leverage, abs=1e-8
            )
            assert rec.projection_distance == pytest.approx(
                exp.projection_distance, abs=1e-8
            )
            assert rec.full_leverage == pytest.approx(exp.full_leverage, abs=1e-8)
        assert records.mode == "sketched-batch"

    def test_pointwise_projection_bound_regime(self):
        # Theorem regime: measured mu <= eps^2 * Delta with eps = 0.2.
        eps = 0.2
        for seed in range(5):
            a = separated_matrix(
                200, 40, 3, seed, delta=0.3, kappa=1.15, tail_sr=0.02
            )
            sq = svd_thin(a).values ** 2
            delta = float((sq[2] - sq[3]) / sq[0])
            tail_sr = float(sq[3:].sum() / sq[0])
            ell = fd_ell_for_mu(mu_for_pointwise_t(eps, delta), tail_sr, 3)
            cfg = PipelineConfig(k=3, ell=max(ell, 4))
            fd_records = run_fd_pipeline(lambda: iter(a), cfg)
            exact = batch_scores(a, 3)
            row_sq = np.einsum("ij,ij->i", a, a)
            worst = max(
                abs(r.projection_distance_raw - e.projection_distance) / rs
                for r, e, rs in zip(fd_records, exact, row_sq)
            )
            assert worst <= eps

    def test_rank_deficient_sketch_names_ell_increase(self):
        a = np.vstack([np.eye(2)] * 10)  # rank 2
        hidden = np.hstack([a, np.zeros((20, 4))])  # rank 2 in 6 dims
        with pytest.raises(RankDeficientError, match="increase ell"):
            run_fd_pipeline(lambda: iter(hidden), PipelineConfig(k=4, ell=6))


class TestRprojPipeline:
    def test_clamped_projection_nonnegative(self):
        rng = np.random.default_rng(63)
        a = rng.standard_normal((40, 10))
        records = run_rproj_pipeline(
            lambda: iter(a), PipelineConfig(k=2, ell=8, seed=5, mode="rproj")
        )
        for rec in records:
            assert rec.projection_distance >= 0.0
            assert rec.projection_distance >= rec.projection_distance_raw
            assert rec.full_leverage is None and rec.tail_leverage is None

    def test_scores_match_numpy_reference_of_the_sign_matrix(self):
        # L^k and T^k from the top-k eigenpairs of (A R)^T (A R), with R the
        # projector verify's average checks build for the same seed and ell.
        rng = np.random.default_rng(73)
        a = rng.standard_normal((150, 60)) * np.geomspace(4.0, 0.1, 60)
        cfg = PipelineConfig(k=3, ell=40, seed=901, mode="rproj")
        table = run_rproj_pipeline(lambda: a, cfg)
        y = a @ SignProjector(cfg.seed, cfg.ell, a.shape[1]).matrix()
        lam, vecs = np.linalg.eigh(y.T @ y)
        top = np.argsort(lam)[::-1][: cfg.k]
        alpha_sq = (y @ vecs[:, top]) ** 2
        lev = (alpha_sq / lam[top]).sum(axis=1)
        raw_t = np.einsum("ij,ij->i", a, a) - alpha_sq.sum(axis=1)
        np.testing.assert_allclose(table.rank_k_leverage, lev, rtol=1e-9, atol=0)
        np.testing.assert_allclose(
            table.projection_distance_raw, raw_t, rtol=1e-9, atol=0
        )

    def test_average_error_bound_moderate_ell(self):
        # Average-case errors at a pipeline-scale ell, vs exact scores.
        eps, k = 0.25, 2
        a = separated_matrix(200, 30, k, 99, delta=0.7, kappa=1.05, tail_sr=0.05)
        exact = batch_scores(a, k)
        lev_e = np.array([r.rank_k_leverage for r in exact])
        proj_e = np.array([r.projection_distance for r in exact])
        frob = float(np.sum(a**2))
        hits_l = hits_t = 0
        runs = 20
        for seed in range(runs):
            cfg = PipelineConfig(k=k, ell=600, seed=seed, mode="rproj")
            recs = run_rproj_pipeline(lambda: iter(a), cfg)
            lev_s = np.array([r.rank_k_leverage for r in recs])
            proj_s = np.array([r.projection_distance_raw for r in recs])
            hits_l += np.sum(np.abs(lev_e - lev_s)) <= eps * k
            hits_t += np.sum(np.abs(proj_e - proj_s)) <= eps * frob
        assert hits_l >= runs - 1
        assert hits_t >= runs - 1


class TestColsamplePipeline:
    def test_single_distinct_column_matches_exact(self):
        rng = np.random.default_rng(64)
        col = np.zeros((12, 5))
        col[:, 3] = rng.standard_normal(12)
        cfg = PipelineConfig(k=1, ell=4, seed=2, mode="colsample")
        records = run_colsample_pipeline(lambda: iter(col), cfg)
        exact = batch_scores(col, 1)
        for rec, exp in zip(records, exact):
            assert rec.rank_k_leverage == pytest.approx(
                exp.rank_k_leverage, abs=1e-8
            )
            assert rec.projection_distance == pytest.approx(
                exp.projection_distance, abs=1e-8
            )

    def test_deterministic_per_seed(self, table_columns):
        rng = np.random.default_rng(65)
        a = rng.standard_normal((25, 8))
        cfg = PipelineConfig(k=2, ell=16, seed=9, mode="colsample")
        r1 = run_colsample_pipeline(lambda: iter(a), cfg)
        r2 = run_colsample_pipeline(lambda: iter(a), cfg)
        assert table_columns(r1) == table_columns(r2)

    def test_average_error_at_cubic_ell(self):
        # ell = O(k^3) gives the random-projection-style average bounds.
        eps, k = 0.25, 2
        ell = 8 * k**3
        a = separated_matrix(200, 30, k, 99, delta=0.7, kappa=1.05, tail_sr=0.05)
        exact = batch_scores(a, k)
        lev_e = np.array([r.rank_k_leverage for r in exact])
        proj_e = np.array([r.projection_distance for r in exact])
        frob = float(np.sum(a**2))
        hits_l = hits_t = 0
        for seed in range(100):
            cfg = PipelineConfig(k=k, ell=ell, seed=seed, mode="colsample")
            recs = run_colsample_pipeline(lambda: iter(a), cfg)
            lev_s = np.array([r.rank_k_leverage for r in recs])
            proj_s = np.array([r.projection_distance_raw for r in recs])
            hits_l += np.sum(np.abs(lev_e - lev_s)) <= eps * k
            hits_t += np.sum(np.abs(proj_e - proj_s)) <= eps * frob
        assert hits_l >= 85
        assert hits_t >= 85


class TestOnlinePipeline:
    def test_lossless_matches_exact_online(self):
        rng = np.random.default_rng(66)
        a = rng.standard_normal((40, 6))
        records = run_online_pipeline(
            lambda: iter(a), PipelineConfig(k=2, ell=32, mode="online-fd")
        )
        oracle = online_scores(iter(a), 2)
        for rec, exp in zip(records, oracle):
            assert rec.defined == exp.defined
            if rec.defined:
                assert rec.rank_k_leverage == pytest.approx(
                    exp.rank_k_leverage, abs=1e-8
                )
                assert rec.projection_distance == pytest.approx(
                    exp.projection_distance, abs=1e-8
                )
        assert records.mode == "sketched-online"

    def test_online_columns_match_oracle(self):
        # 2 * ell > n, so the sketch is every row so far, as in the oracle.
        rng = np.random.default_rng(71)
        n, k = 20, 2
        a = rng.standard_normal((n, 5))
        for lam in (None, 0.5):
            cfg = PipelineConfig(k=k, ell=16, lam=lam, mode="online-fd")
            table = run_online_pipeline(lambda: iter(a), cfg)
            exact = online_scores(iter(a), k, lam=lam)
            assert table.defined.tolist() == [i >= k for i in range(n)]
            assert table.defined.tolist() == exact.defined.tolist()
            assert (table.ridge_leverage is None) == (lam is None)
            for name in ROWSPACE_FIELDS:
                column = getattr(table, name)
                if column is None:
                    continue
                assert column.dtype == np.float64 and column.shape == (n,)
                assert np.isnan(column).tolist() == (~table.defined).tolist()
                expected = getattr(exact, name)
                if expected is not None:
                    np.testing.assert_allclose(
                        column[k:], expected[k:], rtol=1e-8, atol=1e-8
                    )

    def test_early_rows_are_sentinels(self):
        rng = np.random.default_rng(67)
        a = rng.standard_normal((12, 5))
        records = run_online_pipeline(
            lambda: iter(a), PipelineConfig(k=3, ell=8, mode="online-fd")
        )
        assert not records.defined[:3].any()
        assert records.defined[3]

    def test_stream_with_no_defined_row_is_rank_deficient(self):
        # k=2 needs two independent rows before a row, so no row of this
        # stream of multiples of one row is ever scored.
        a = np.outer(np.arange(1.0, 7.0), np.ones(5))
        cfg = PipelineConfig(k=2, ell=4, mode="online-fd")
        with pytest.raises(RankDeficientError, match="^no row was scored"):
            run_online_pipeline(lambda: iter(a), cfg)
        assert run_online_pipeline(lambda: iter(np.eye(5)), cfg).defined.any()

    def test_pointwise_bound_carries_over_per_prefix(self):
        # For each row, if the sketch-so-far meets mu <= eps^2 * delta of
        # its prefix, the projection-distance estimate stays within
        # eps * |a_i|^2 of the prefix-exact score.
        eps = 0.25
        a = separated_matrix(80, 12, 2, 68, delta=0.4, kappa=1.1, tail_sr=0.01)
        cfg = PipelineConfig(k=2, ell=10, mode="online-fd")
        sketched = run_online_pipeline(lambda: iter(a), cfg)
        exact = online_scores(iter(a), 2)

        from sketch_anomaly.sketches import FrequentDirections

        fd = FrequentDirections(10, 12)
        checked = 0
        for i, (srec, erec) in enumerate(zip(sketched, exact)):
            if srec.defined and erec.defined:
                prefix = a[:i]
                sq = svd_thin(prefix).values ** 2
                if sq.size > 2 and sq[0] > 0:
                    delta_i = float((sq[1] - sq[2]) / sq[0])
                    s = fd.sketch()
                    mu_i = operator_norm(prefix.T @ prefix - s.T @ s) / sq[0]
                    if delta_i > 0 and mu_i <= eps**2 * delta_i:
                        row_sq = float(a[i] @ a[i])
                        err = abs(
                            srec.projection_distance_raw - erec.projection_distance
                        )
                        assert err <= eps * row_sq
                        checked += 1
            fd.update(a[i])
        assert checked > 20


def reference_lk_tk(sketch, rows, k):
    """L^k and raw T^k of ``rows`` on the row space of ``sketch``, from a QR
    of S^T and ``np.linalg.svd`` of its R factor."""
    q, r = np.linalg.qr(sketch.T)
    _, sigma, zt = np.linalg.svd(r.T)
    alpha = rows @ (q @ zt.T)[:, :k]
    lev_k = (alpha**2 / sigma[:k] ** 2).sum(axis=1)
    return lev_k, np.einsum("ij,ij->i", rows, rows) - (alpha**2).sum(axis=1)


class TestShortSideBasis:
    """Row-space sketches are scored from their short side (the Gram S S^T)."""

    K = 3
    # (n, d, ell): d > 2 ell, so every sketch is short and wide; and d < 2 ell,
    # where full FD buffers and the row sample have more rows than columns.
    SHAPES = [(150, 60, 8), (150, 10, 12)]

    def stream(self, n, d):
        rng = np.random.default_rng(72)
        return rng.standard_normal((n, d)) * np.geomspace(4.0, 0.1, d)

    @pytest.mark.parametrize("n,d,ell", SHAPES)
    def test_batch_matches_svd_reference(self, n, d, ell):
        a = self.stream(n, d)
        sketches = {
            "fd": fd_ingest(a, ell).sketch(),
            "rowsample": row_sample(a, ell, 5),
        }
        for mode, sketch in sketches.items():
            cfg = PipelineConfig(k=self.K, ell=ell, seed=5, mode=mode)
            records = run_pipeline(lambda: iter(a), cfg)
            lev_k, raw_t = reference_lk_tk(sketch, a, self.K)
            got_lev = [r.rank_k_leverage for r in records]
            got_t = [r.projection_distance_raw for r in records]
            np.testing.assert_allclose(got_lev, lev_k, rtol=1e-9, atol=0)
            np.testing.assert_allclose(got_t, raw_t, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n,d,ell", SHAPES)
    def test_online_matches_svd_reference_per_prefix(self, n, d, ell):
        a = self.stream(n, d)
        cfg = PipelineConfig(k=self.K, ell=ell, mode="online-fd")
        records = run_online_pipeline(lambda: iter(a), cfg)
        fd = FrequentDirections(ell, d)
        for i, rec in enumerate(records):
            if rec.defined:
                lev_k, raw_t = reference_lk_tk(fd.sketch(), a[i : i + 1], self.K)
                assert rec.rank_k_leverage == pytest.approx(lev_k[0], rel=1e-9)
                assert rec.projection_distance_raw == pytest.approx(
                    raw_t[0], rel=1e-9
                )
            fd.update(a[i])
        assert sum(r.defined for r in records) == n - self.K

    @settings(max_examples=25)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(3, 10),
        st.integers(2, 30),
        st.integers(1, 3),
        st.integers(1, 4),
        st.sampled_from([None, 0.5]),
    )
    @example(seed=1, ell=8, d=5, k=2, shrinks=3, lam=0.5)
    @example(seed=2, ell=5, d=30, k=3, shrinks=4, lam=None)
    def test_online_matches_lapack_svd_of_each_fd_prefix(
        self, seed, ell, d, k, shrinks, lam
    ):
        k = min(k, d - 1, ell - 1)
        a = self.prefix_stream(seed, ell, d, shrinks)
        fills, shrink_count = online_vs_lapack(a, ell, k, lam)
        assert shrink_count >= shrinks and fills

    # Streams with d < 2 ell whose compared rows include a sketch of exactly
    # d rows, and one of more than d rows.  Read through the fill x fill
    # S S^T, their ridge leverage was off by 1.5e-10 and 6.6e-11 relative.
    @pytest.mark.parametrize(
        "seed, ell, d, k, shrinks, fill_vs_d",
        [(3335432653, 10, 19, 3, 4, 0), (1046135923, 8, 10, 3, 2, 1)],
        ids=["fill=d", "fill>d"],
    )
    def test_online_ridge_when_fill_reaches_dim(
        self, seed, ell, d, k, shrinks, fill_vs_d
    ):
        a = self.prefix_stream(seed, ell, d, shrinks)
        fills, shrink_count = online_vs_lapack(a, ell, k, 0.5)
        assert shrink_count >= shrinks
        assert any(np.sign(fill - d) == fill_vs_d for fill in fills)

    @staticmethod
    def prefix_stream(seed, ell, d, shrinks):
        a = np.random.default_rng(seed).standard_normal((2 * ell * (shrinks + 1), d))
        return a * np.geomspace(4.0, 0.1, d)

    def test_online_reads_one_gram_eigendecomposition_per_row(self, monkeypatch):
        def no_svd_thin(*args, **kwargs):
            raise AssertionError("svd_thin called")

        calls = []

        def counting_sym_eig(matrix):
            calls.append(matrix.shape)
            return sym_eig(matrix)

        a = self.stream(150, 60)
        monkeypatch.setattr(pipelines, "svd_thin", no_svd_thin)
        monkeypatch.setattr(pipelines, "sym_eig", counting_sym_eig)
        cfg = PipelineConfig(k=self.K, ell=8, mode="online-fd")
        assert len(run_online_pipeline(lambda: iter(a), cfg)) == 150
        fd = FrequentDirections(8, 60)
        fills = []
        for row in a:
            if fd.fill:
                fills.append((fd.fill, fd.fill))
            fd.update(row)
        assert fd.shrink_count > 0 and calls == fills

    def test_online_defined_iff_prefix_rank_reaches_k(self):
        # Zero rows, then one direction, then two, then full-rank rows: the
        # prefix sketch's rank climbs 0, 1, 2, ... through FD shrinks.
        rng = np.random.default_rng(73)
        d, ell = 12, 4
        u, v = rng.standard_normal((2, d))
        a = np.vstack([
            np.zeros((2, d)),
            np.outer([1.0, -2.0, 0.5], u),
            np.outer([1.0, 3.0, -1.0, 2.0], v) + 0.5 * u,
            rng.standard_normal((30, d)),
        ])
        cfg = PipelineConfig(k=self.K, ell=ell, mode="online-fd")
        records = run_online_pipeline(lambda: iter(a), cfg)
        fd = FrequentDirections(ell, d)
        ranks = []
        for row in a:
            ranks.append(np.linalg.matrix_rank(fd.sketch()) if fd.fill else 0)
            fd.update(row)
        assert [r.defined for r in records] == [rank >= self.K for rank in ranks]
        assert fd.shrink_count > 0 and min(ranks[10:]) >= self.K

    def test_no_decomposition_needs_qr(self, monkeypatch):
        # Every route goes through a Gram eigendecomposition: the row-space
        # sketches on both shapes (d > 2 ell and d < 2 ell), exact scores of
        # a wide matrix, and the projector check, whose left vectors come
        # from the wide A^T.
        def no_qr(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        streams = [(self.stream(n, d), ell) for n, d, ell in self.SHAPES]
        wide = self.stream(20, 60)
        a = separated_matrix(80, 20, 3, seed=5)
        at = a + 1e-6 * np.random.default_rng(74).standard_normal(a.shape)
        monkeypatch.setattr(np.linalg, "qr", no_qr)
        for stream, ell in streams:
            for mode in ("fd", "rowsample", "online-fd"):
                cfg = PipelineConfig(k=self.K, ell=ell, seed=5, mode=mode)
                assert len(run_pipeline(lambda: iter(stream), cfg)) == len(stream)
        assert len(batch_scores(wide, self.K)) == 20
        assert check_projector(a, at, 3).applicable


class TestConfigAndHelpers:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PipelineConfig(k=0, ell=4)
        with pytest.raises(ValueError):
            PipelineConfig(k=4, ell=4)
        with pytest.raises(ValueError):
            PipelineConfig(k=1, ell=1)
        with pytest.raises(ValueError):
            PipelineConfig(k=1, ell=4, mode="bogus")
        with pytest.raises(ValueError):
            PipelineConfig(k=1, ell=4, lam=-1.0)

    def test_dispatch_matches_direct_calls(self, table_columns):
        rng = np.random.default_rng(69)
        a = rng.standard_normal((15, 5))
        cfg = PipelineConfig(k=1, ell=12, seed=4, mode="fd")
        via_dispatch = run_pipeline(lambda: iter(a), cfg)
        direct = run_fd_pipeline(lambda: iter(a), cfg)
        assert table_columns(via_dispatch) == table_columns(direct)

    def test_fd_ell_formula(self):
        # ell = k + (sum_{i>k} s_i^2 / s_1^2) / mu, from the sketch theorem.
        assert fd_ell_for_mu(0.1, 2.0, 3) == 23
        assert fd_ell_for_mu(0.01, 2.0, 3) == 203
        with pytest.raises(ValueError):
            fd_ell_for_mu(0.0, 1.0, 1)

    def test_mu_translations(self):
        assert mu_for_pointwise_t(0.2, 0.5) == pytest.approx(0.02)
        assert mu_for_average_l(0.25, 0.8) == pytest.approx(0.25**2 * 0.8 / 16)

    def test_multi_chunk_order_and_determinism(self, table_columns):
        # 900 rows span two scoring blocks of 512.
        rng = np.random.default_rng(70)
        a = rng.standard_normal((900, 10))
        for mode in ("fd", "rproj", "colsample", "rowsample"):
            cfg = PipelineConfig(k=2, ell=8, seed=1, mode=mode)
            first = run_pipeline(lambda: iter(a), cfg)
            second = run_pipeline(lambda: iter(a), cfg)
            assert len(first) == 900
            assert table_columns(first) == table_columns(second)
        # Record i scores row i: recompute fd's raw T^k from its sketch.
        basis = svd_thin(fd_ingest(a, 8).sketch())
        alpha = a @ basis.right_vectors[:, :2]
        expected = np.einsum("ij,ij->i", a, a) - (alpha**2).sum(axis=1)
        records = run_fd_pipeline(lambda: iter(a), PipelineConfig(k=2, ell=8))
        np.testing.assert_allclose(
            records.projection_distance_raw, expected, rtol=1e-9
        )


class TestArraySource:
    """An array row source gives the bytes an iterator over its rows gives."""

    # 1100 rows: two full 512-row blocks and a partial one.
    A = np.random.default_rng(75).standard_normal((1100, 9)) * np.geomspace(3.0, 0.2, 9)

    @staticmethod
    def same_table(t1, t2):
        assert t1.mode == t2.mode
        assert t1.defined.tobytes() == t2.defined.tobytes()
        assert t1.to_json() == t2.to_json()
        for name in ROWSPACE_FIELDS:
            c1, c2 = getattr(t1, name), getattr(t2, name)
            assert (c1 is None) == (c2 is None), name
            if c1 is not None:
                assert c1.tobytes() == c2.tobytes(), name

    @pytest.mark.parametrize("mode", PIPELINE_MODES)
    @pytest.mark.parametrize("lam", [None, 0.3])
    def test_every_pipeline(self, mode, lam):
        a = self.A
        cfg = PipelineConfig(k=3, ell=10, seed=6, lam=lam, mode=mode)
        self.same_table(run_pipeline(lambda: a, cfg), run_pipeline(lambda: iter(a), cfg))

    def test_resumed_fd_and_colsample(self):
        a = self.A
        fd_cfg = PipelineConfig(k=3, ell=10, mode="fd")
        self.same_table(
            run_fd_pipeline(lambda: a, fd_cfg, state=fd_ingest(a, 10)),
            run_fd_pipeline(lambda: iter(a), fd_cfg),
        )
        cs_cfg = PipelineConfig(k=3, ell=10, seed=6, mode="colsample")
        plan = column_sample_plan(a, 10, 6)
        self.same_table(
            run_colsample_pipeline(lambda: a, cs_cfg, state=plan),
            run_colsample_pipeline(lambda: iter(a), cs_cfg),
        )

    def test_colsample_validates_each_pass_once(self, monkeypatch):
        seen = {"as_matrix": 0, "scales": 0}

        def counted(name, f):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sketches, "as_matrix", counted("as_matrix", sketches.as_matrix))
        monkeypatch.setattr(ColumnSamplePlan, "scales", counted("scales", ColumnSamplePlan.scales))
        a = self.A
        run_colsample_pipeline(lambda: a, PipelineConfig(k=3, ell=10, seed=6, mode="colsample"))
        # One check per pass over the three blocks; the plan's scales once.
        assert seen == {"as_matrix": 3, "scales": 1}

    def test_wrong_width_and_non_finite_array_raise(self):
        a = self.A.copy()
        fd_cfg = PipelineConfig(k=3, ell=10, mode="fd")
        with pytest.raises(ShapeError):
            run_fd_pipeline(lambda: a[:, :5], fd_cfg, state=fd_ingest(a, 10))
        a[700, 4] = np.nan
        for mode in PIPELINE_MODES:
            cfg = PipelineConfig(k=3, ell=10, mode=mode)
            with pytest.raises(ValueError, match="non-finite"):
                run_pipeline(lambda: a, cfg)


class TestRecordInvariants:
    @settings(max_examples=15)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(12, 80),
        st.integers(4, 12),
        st.integers(1, 3),
        st.integers(0, 3),
    )
    def test_invariants_on_random_inputs(self, seed, n, d, k, extra_ell):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
        # Exact: 0 <= L^k <= L <= 1 row by row, and sum L^k = k.
        exact = batch_scores(a, k, lam=0.5)
        assert [r.row_index for r in exact] == list(range(n))
        lev_k = np.array([r.rank_k_leverage for r in exact])
        full = np.array([r.full_leverage for r in exact])
        assert np.all(lev_k >= -1e-12)
        assert np.all(lev_k <= full + 1e-12)
        assert np.all(full <= 1.0 + 1e-9)
        assert lev_k.sum() == pytest.approx(k, abs=1e-9 * k)
        assert all(r.projection_distance >= 0.0 for r in exact)
        ell = 2 * k + 2 + extra_ell
        for mode in ("fd", "rproj", "colsample", "rowsample"):
            cfg = PipelineConfig(k=k, ell=ell, seed=seed, mode=mode)
            try:
                records = run_pipeline(lambda: iter(a), cfg)
            except RankDeficientError:
                # A random sketch may hold fewer than k directions; the
                # deterministic fd sketch of a full-rank A never does.
                assert mode != "fd"
                continue
            assert [r.row_index for r in records] == list(range(n))
            assert all(r.defined for r in records)
            assert all(r.projection_distance >= 0.0 for r in records)
            assert all(np.isfinite(r.projection_distance_raw) for r in records)


def online_vs_lapack(a, ell, k, lam):
    """Check each online row of ``a`` against np.linalg.svd of the same FD
    prefix S, where the prefix separates sigma_k from sigma_(k+1): L^k and
    raw T^k to 1e-9, ridge leverage (with ``lam``) to 1e-11 relative.
    Returns the prefix fill of every compared row and the shrink count."""
    d = a.shape[1]
    cfg = PipelineConfig(k=k, ell=ell, lam=lam, mode="online-fd")
    table = run_online_pipeline(lambda: iter(a), cfg)
    fd = FrequentDirections(ell, d)
    fills = []
    for i, row in enumerate(a):
        sketch = fd.sketch()
        rank = svd_thin(sketch).rank_used if fd.fill else 0
        assert table.defined[i] == (rank >= k)
        fill = fd.fill
        fd.update(row)
        if not table.defined[i]:
            continue
        _, sigma, vt = np.linalg.svd(sketch, full_matrices=False)
        sq = np.append(sigma**2, 0.0)
        if sq[k - 1] - sq[k] < 1e-3 * sq[0]:
            continue
        alpha_sq = (vt[:rank] @ row) ** 2
        row_sq = row @ row
        assert table.rank_k_leverage[i] == pytest.approx(
            (alpha_sq[:k] / sq[:k]).sum(), rel=1e-9
        )
        # ||a||^2 - sum alpha^2 cancels: both sides err at ~eps * ||a||^2.
        assert table.projection_distance_raw[i] == pytest.approx(
            row_sq - alpha_sq[:k].sum(), rel=1e-9, abs=1e-11 * row_sq
        )
        if lam is not None:
            ridge = (alpha_sq / (sq[:rank] + lam)).sum()
            ridge += max(row_sq - alpha_sq.sum(), 0.0) / lam
            assert table.ridge_leverage[i] == pytest.approx(ridge, rel=1e-11)
        fills.append(fill)
    return fills, fd.shrink_count

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import sign_gram, sign_matrix
from sketch_anomaly import sketches
from sketch_anomaly.errors import ShapeError, ZeroMassError
from sketch_anomaly.linalg import effective_rank, operator_norm, svd_thin
from sketch_anomaly.rng import MERSENNE61
from sketch_anomaly.sketches import (
    GRAM_BLOCK_COLS,
    ColumnSamplePlan,
    FrequentDirections,
    SignProjector,
    column_sample_plan,
    fd_ingest,
    row_blocks,
    row_sample,
)


def svd_route_shrink(buffer: np.ndarray, ell: int) -> np.ndarray:
    """Shrink by sigma_ell^2 through LAPACK's right singular vectors of the
    buffer, kept up to the package's usable rank."""
    _, sigma, vt = np.linalg.svd(buffer, full_matrices=False)
    rank = effective_rank(sigma)
    shift = sigma[ell - 1] ** 2 if sigma.size >= ell else 0.0
    kept = np.sqrt(np.clip(sigma[:rank] ** 2 - shift, 0.0, None))
    nonzero = kept > 0.0
    return kept[nonzero, None] * vt[:rank][nonzero]


def gram(fd: FrequentDirections) -> np.ndarray:
    """S^T S of the current Frequent Directions sketch."""
    s = fd.sketch()
    return s.T @ s


def python_sign(p: SignProjector, i: int, j: int) -> float:
    """R[i, j] by Horner's rule in Python integers modulo 2**61 - 1."""
    prime = int(MERSENNE61)
    x = (j * p.dim + i) % prime
    acc = 0
    for c in reversed([int(c) for c in p.coefficients]):
        acc = (acc * x + c) % prime
    return (-1.0 if acc & 1 else 1.0) / np.sqrt(p.ell)


def oracle_matrix() -> np.ndarray:
    """30 x 7 with zero rows (one at the start), zero entries and one zero column."""
    rng = np.random.default_rng(71)
    a = rng.standard_normal((30, 7)) * rng.uniform(0.2, 2.0, size=7)
    a[rng.random((30, 7)) < 0.2] = 0.0
    a[[0, 1, 2, 3, 11, 17]] = 0.0
    a[:, 5] = 0.0
    return a


class TestFrequentDirections:
    def test_no_shrink_is_lossless(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((15, 5))
        fd = fd_ingest(a, ell=8)  # 15 <= 2*8 - 1
        assert fd.shrink_count == 0
        assert np.abs(a.T @ a - gram(fd)).max() <= 1e-10

    def test_covariance_bound_every_k(self):
        # ||A^T A - S^T S|| <= ||A - A_k||_F^2 / (ell - k) for all k < ell.
        rng = np.random.default_rng(42)
        a = rng.standard_normal((150, 30)) @ np.diag(np.linspace(2.0, 0.2, 30))
        ell = 10
        fd = fd_ingest(a, ell)
        err = operator_norm(a.T @ a - gram(fd))
        sigma_sq = svd_thin(a).values ** 2
        for k in range(ell):
            tail = float(sigma_sq[k:].sum())
            assert err <= tail / (ell - k) + 1e-9

    def test_frobenius_bound(self):
        rng = np.random.default_rng(43)
        a = rng.standard_normal((200, 40))
        ell = 15
        fd = fd_ingest(a, ell)
        err = operator_norm(a.T @ a - gram(fd))
        assert err <= float(np.sum(a**2)) / ell

    def test_sketch_norm_monotone_throughout_stream(self):
        rng = np.random.default_rng(44)
        a = rng.standard_normal((60, 8))
        fd = FrequentDirections(4, 8)
        seen = 0.0
        for row in a:
            fd.update(row)
            seen += float(row @ row)
            assert float(np.sum(fd.sketch() ** 2)) <= seen + 1e-9

    def test_buffer_rows_beyond_fill_are_zero(self):
        rng = np.random.default_rng(45)
        a = rng.standard_normal((40, 6))
        fd = fd_ingest(a, 4)
        assert fd.fill <= 2 * fd.ell
        assert np.all(fd.buffer[fd.fill :] == 0.0)
        assert fd.shrink_count > 0

    @pytest.mark.parametrize(
        "ell, shape, rank",
        [(5, (10, 40), None), (6, (12, 30), 3), (8, (16, 11), None)],
        ids=["random", "rank-below-ell", "dim-below-2ell"],
    )
    def test_shrink_matches_svd_route(self, ell, shape, rank):
        rng = np.random.default_rng(46)
        if rank is None:
            b = rng.standard_normal(shape) * np.geomspace(3.0, 0.1, shape[1])
        else:
            b = rng.standard_normal((shape[0], rank)) @ rng.standard_normal(
                (rank, shape[1])
            )
        expected = svd_route_shrink(b, ell)
        fd = FrequentDirections(ell, shape[1])
        for row in b:
            fd.update(row)
        assert fd.shrink_count == 1
        assert fd.fill == expected.shape[0]
        tol = 1e-10 * float(np.sum(b**2))
        assert np.abs(gram(fd) - expected.T @ expected).max() <= tol
        assert np.all(fd.buffer[fd.fill :] == 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 7),
        st.lists(st.integers(0, 40), max_size=10),
        st.integers(0, 2**32 - 1),
    )
    def test_extend_over_any_partition_equals_update_per_row(
        self, ell, d, sizes, seed
    ):
        # Empty blocks and blocks longer than 2 * ell, crossing several
        # shrinks, included.
        a = gaussian_stream(sum(sizes), d, seed)
        by_row = FrequentDirections(ell, d)
        for row in a:
            by_row.update(row)
        by_block = FrequentDirections(ell, d)
        for stop, size in zip(np.cumsum(sizes), sizes):
            by_block.extend(a[stop - size : stop])
        assert (by_block.fill, by_block.shrink_count) == (
            by_row.fill, by_row.shrink_count,
        )
        assert by_block.buffer.tobytes() == by_row.buffer.tobytes()

    def test_width_mismatch(self):
        fd = FrequentDirections(4, 6)
        with pytest.raises(ShapeError):
            fd.update(np.ones(5))

    def test_ell_below_one_rejected(self):
        with pytest.raises(ValueError):
            FrequentDirections(0, 4)


class TestSignProjector:
    def test_entry_deterministic(self):
        p1 = SignProjector(42, 16, 10)
        p2 = SignProjector(42, 16, 10)
        assert p1.matrix().tobytes() == p2.matrix().tobytes()
        assert p1.matrix()[3, 7] == SignProjector(42, 16, 10).matrix()[3, 7]
        assert p1.matrix().tobytes() != SignProjector(43, 16, 10).matrix().tobytes()

    def test_entry_magnitude(self):
        r = SignProjector(1, 25, 8).matrix()
        assert r.shape == (8, 25)
        np.testing.assert_allclose(np.abs(r), 1 / 5.0, rtol=0, atol=1e-15)

    def test_entry_matches_matrix(self):
        # Entry (i, j) is the polynomial hash at position j * dim + i,
        # recomputed here without numpy's modular arithmetic.
        for seed in (9, -1, 2**64 - 1):
            p = SignProjector(seed, 12, 7)
            r = p.matrix()
            for i in range(7):
                for j in range(12):
                    assert python_sign(p, i, j) == r[i, j]
        # -1 and 2**64 - 1 are the same u64 seed.
        assert p.matrix().tobytes() == SignProjector(-1, 12, 7).matrix().tobytes()

    @pytest.mark.parametrize(
        "ell, dim, w", [(40, 400, 32), (40, 800, 32), (40, 800, 8), (40, 400, 8)]
    )
    def test_matrix_is_the_mulmod61_oracle_bytes(self, ell, dim, w):
        for seed in (0, 901):
            p = SignProjector(seed, ell, dim, w)
            assert p.matrix().tobytes() == sign_matrix(p).tobytes()

    @pytest.mark.parametrize("dim, w", [(2, 32), (3, 8)])
    def test_gram_over_several_blocks_is_the_mulmod61_oracle_bytes(self, dim, w):
        p = SignProjector(17, GRAM_BLOCK_COLS + 40, dim, w)
        expected = sign_gram(p, GRAM_BLOCK_COLS)
        assert p.gram().tobytes() == expected.tobytes()

    def test_monte_carlo_bias(self):
        # Mean of 1e5 entries, rescaled by sqrt(ell), should be near zero.
        p = SignProjector(7, 1000, 100)
        r = p.matrix()
        assert abs(r.mean()) * np.sqrt(1000) <= 0.02

    def test_pairwise_product_bias(self):
        # Products over fixed small index subsets should also be unbiased.
        p = SignProjector(11, 50000, 4)
        r = p.matrix() * np.sqrt(50000)
        for cols in [(0, 1), (0, 2), (1, 3), (0, 1, 2)]:
            prod = np.prod([r[c] for c in cols], axis=0)
            assert abs(prod.mean()) <= 0.02

    def test_projection_of_zero_row(self):
        p = SignProjector(3, 10, 6)
        np.testing.assert_array_equal(np.zeros(6) @ p.matrix(), np.zeros(10))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 40))
    def test_projection_linearity(self, seed, dim):
        p = SignProjector(seed, 11, dim)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(dim)
        b = rng.standard_normal(dim)
        r = p.matrix()
        lhs = (a + b) @ r
        rhs = a @ r + b @ r
        assert np.abs(lhs - rhs).max() <= 1e-10

    def test_gram_matches_matrix(self, monkeypatch):
        monkeypatch.setattr(sketches, "GRAM_BLOCK_COLS", 64)
        p = SignProjector(21, 300, 45)
        r = p.matrix()
        assert np.abs(p.gram() - r @ r.T).max() <= 1e-9

    def test_covariance_preservation_trials(self):
        # n=400, d=100, sr ~ 10, ell = 400: the projected covariance should
        # stay within 0.5 sigma_1^2 in at least 95 of 100 seeded trials.
        rng = np.random.default_rng(46)
        spectrum = np.concatenate([np.full(10, 3.0), np.full(90, 0.3)])
        a = rng.standard_normal((400, 100)) @ np.diag(spectrum)
        cov = a @ a.T
        sigma1_sq = svd_thin(a).values[0] ** 2
        hits = 0
        for seed in range(100):
            r = SignProjector(seed, 400, 100).matrix()
            proj = a @ r
            if operator_norm(cov - proj @ proj.T) <= 0.5 * sigma1_sq:
                hits += 1
        assert hits >= 95

    def test_psd_projected_covariance(self):
        rng = np.random.default_rng(47)
        a = rng.standard_normal((30, 12))
        r = SignProjector(2, 20, 12).matrix()
        proj = a @ r
        eigvals = np.linalg.eigvalsh(proj.T @ proj)
        assert eigvals.min() >= -1e-9


# Stream shapes for the two row_blocks paths: up to three full blocks and a
# partial one.
stream_shapes = (
    st.integers(1, 3 * sketches._CHUNK + 1),
    st.integers(1, 9),
    st.integers(0, 2**32 - 1),
)


def gaussian_stream(n: int, d: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, d))


def drain(rows, width=None):
    """``row_blocks`` with its blocks read into a list."""
    width, blocks = row_blocks(rows, width)
    return width, list(blocks)


class TestRowBlocks:
    @settings(max_examples=30, deadline=None)
    @given(*stream_shapes)
    def test_array_and_iterator_give_same_blocks(self, n, d, seed):
        a = gaussian_stream(n, d, seed)
        width_array, from_array = drain(a)
        width_rows, from_rows = drain(iter(a), width=d)
        # Without a given width, the first row fixes it.
        assert width_array == width_rows == drain(iter(a))[0] == d
        sizes = [b.shape[0] for b in from_array]
        assert sizes[:-1] == [sketches._CHUNK] * (len(sizes) - 1) and sum(sizes) == n
        assert [b.shape for b in from_array] == [b.shape for b in from_rows]
        assert [b.tobytes() for b in from_array] == [b.tobytes() for b in from_rows]
        assert all(b.flags.c_contiguous for b in from_array + from_rows)
        # Array blocks are views of the array; row blocks are new arrays.
        assert all(np.shares_memory(b, a) for b in from_array)
        assert not any(np.shares_memory(b, a) for b in from_rows)

    @settings(max_examples=15, deadline=None)
    @given(*stream_shapes, st.integers(2, 12))
    def test_array_and_iterator_give_same_sketches(self, n, d, seed, ell):
        a = gaussian_stream(n, d, seed)
        rows = lambda: (list(r) for r in a)  # noqa: E731
        assert row_sample(a, ell, seed).tobytes() == row_sample(rows(), ell, seed).tobytes()
        p1, p2 = column_sample_plan(a, ell, seed), column_sample_plan(rows(), ell, seed)
        assert p1.indices.tobytes() == p2.indices.tobytes()
        assert p1.column_masses.tobytes() == p2.column_masses.tobytes()
        assert (p1.running_mass, p1.entries_seen) == (p2.running_mass, p2.entries_seen)
        # Both ingest paths equal one ``update`` per row, shrinks included.
        by_row = FrequentDirections(ell, d)
        for row in a:
            by_row.update(row)
        for fd in (fd_ingest(a, ell), fd_ingest(rows(), ell)):
            assert (fd.fill, fd.shrink_count) == (by_row.fill, by_row.shrink_count)
            assert fd.buffer.tobytes() == by_row.buffer.tobytes()

    def test_validation(self):
        with pytest.raises(ShapeError):
            drain(iter([np.ones(3), np.ones(4)]))
        # A row past the first block is checked against the width it fixed.
        with pytest.raises(ShapeError):
            drain(iter([np.ones(3)] * sketches._CHUNK + [np.ones(4)]))
        with pytest.raises(ShapeError):
            drain(np.ones((4, 3)), width=5)
        with pytest.raises(ShapeError):
            drain(iter([np.ones((2, 2))]))
        with pytest.raises(ValueError):
            drain(iter([np.array([1.0, np.nan])]))
        with pytest.raises(ValueError):
            drain(np.array([[1.0, np.inf]]))
        with pytest.raises(ShapeError, match="^row source produced no rows$"):
            row_blocks(iter([]))
        with pytest.raises(ShapeError):
            drain(np.ones((0, 3)))
        # An array of another dtype or layout is converted once.
        a = np.arange(1200, dtype=np.int64).reshape(600, 2)
        width, blocks = drain(np.asfortranarray(a))
        assert width == 2
        assert all(b.dtype == np.float64 and b.flags.c_contiguous for b in blocks)
        assert np.vstack(blocks).tobytes() == a.astype(np.float64).tobytes()

    @settings(max_examples=20, deadline=None)
    @given(*stream_shapes, st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_non_finite_entry_raises_on_both_paths(self, n, d, seed, bad):
        a = gaussian_stream(n, d, seed)
        rng = np.random.default_rng(seed)
        a[rng.integers(n), rng.integers(d)] = bad
        for rows in (a, iter(a)):
            with pytest.raises(ValueError, match="non-finite"):
                drain(rows)
        with pytest.raises(ValueError, match="non-finite"):
            fd_ingest(a, 2)

    @pytest.mark.parametrize(
        "ingest, args",
        [(fd_ingest, (3,)), (row_sample, (3, 0)), (column_sample_plan, (3, 0))],
        ids=["fd_ingest", "row_sample", "column_sample_plan"],
    )
    def test_empty_stream_is_the_one_row_blocks_error(self, ingest, args):
        with pytest.raises(ShapeError, match="^row source produced no rows$"):
            ingest(iter([]), *args)


class TestBlockReservoirs:
    @pytest.mark.parametrize("chunk", [512, 4])
    def test_frequency_oracle(self, monkeypatch, chunk):
        # Each slot must settle on row i (column j) with probability equal
        # to its share of the squared mass, with one block or many.
        monkeypatch.setattr(sketches, "_CHUNK", chunk)
        a = oracle_matrix()
        sq = a**2
        norms = np.linalg.norm(a, axis=1)
        unit_rows = a / np.where(norms > 0.0, norms, 1.0)[:, None]
        row_counts = np.zeros(a.shape[0])
        col_counts = np.zeros(a.shape[1])
        ell = 8
        for seed in range(3000):
            sketch = row_sample(a, ell, seed)
            # A rescaled row stays parallel to its source row.
            cosines = (sketch / np.linalg.norm(sketch, axis=1)[:, None]) @ unit_rows.T
            np.add.at(row_counts, np.argmax(cosines, axis=1), 1)
            np.add.at(col_counts, column_sample_plan(a, ell, seed).indices, 1)
        runs = 3000 * ell
        assert np.abs(row_counts / runs - sq.sum(axis=1) / sq.sum()).max() <= 0.01
        assert np.abs(col_counts / runs - sq.sum(axis=0) / sq.sum()).max() <= 0.01
        assert row_counts[[0, 1, 2, 3, 11, 17]].sum() == 0
        assert col_counts[5] == 0

    @settings(max_examples=15, deadline=None)
    @given(*stream_shapes, st.integers(1, 12), st.floats(0.0, 1.0))
    @example(3 * sketches._CHUNK + 1, 9, 5, 12, 0.0)
    @example(3 * sketches._CHUNK + 1, 2, 6, 7, 0.5)
    def test_picks_match_plain_python_reservoir(self, n, d, seed, ell, zero_share):
        # Small integers keep every square and partial sum exact in float64,
        # so the bytes pin the reservoir's picks, not numpy's summation order.
        # A zero prefix exercises blocks that add no mass.
        a = np.random.default_rng(seed).integers(-3, 4, (n, d)).astype(np.float64)
        a[: int(zero_share * n)] = 0.0
        if not a.any():
            with pytest.raises(ZeroMassError):
                row_sample(a, ell, seed)
            with pytest.raises(ZeroMassError):
                column_sample_plan(a, ell, seed)
            return
        chunk = sketches._CHUNK
        expected = oracles.row_sample(a, ell, seed, chunk, sketches._LANE_ROW_SAMPLER)
        assert row_sample(a, ell, seed).tobytes() == expected.tobytes()
        indices, masses, total, seen = oracles.column_sample_plan(
            a, ell, seed, chunk, sketches._LANE_COL_SAMPLER
        )
        plan = column_sample_plan(a, ell, seed)
        assert plan.indices.tolist() == indices
        assert plan.column_masses.tobytes() == np.array(masses).tobytes()
        assert (plan.running_mass, plan.entries_seen) == (total, seen)

    def test_one_draw_per_slot_per_block(self, monkeypatch):
        draws = []
        uniform01 = sketches.uniform01

        def counting(*words):
            out = uniform01(*words)
            draws[-1] += out.size
            return out

        monkeypatch.setattr(sketches, "uniform01", counting)
        a = np.random.default_rng(74).standard_normal((1100, 7))
        ell = 5
        blocks = -(-a.shape[0] // 512)
        for seed in (3, 4):
            for sample in (row_sample, column_sample_plan):
                draws.append(0)
                sample(a, ell, seed)
                assert draws[-1] == ell * blocks


class TestRowSample:
    def test_identical_rows_exact(self):
        rng = np.random.default_rng(48)
        row = rng.standard_normal(6)
        a = np.tile(row, (20, 1))
        sketch = row_sample(a, 5, seed=9)
        assert np.abs(sketch.T @ sketch - a.T @ a).max() <= 1e-10

    def test_seeded_determinism(self):
        rng = np.random.default_rng(49)
        a = rng.standard_normal((25, 4))
        s1 = row_sample(a, 8, seed=123)
        s2 = row_sample(a, 8, seed=123)
        assert s1.tobytes() == s2.tobytes()
        s3 = row_sample(a, 8, seed=124)
        assert s1.tobytes() != s3.tobytes()

    def test_covariance_trials(self):
        # n=500, d=30, sr ~ 5, ell = 600 -> within 0.5 sigma_1^2 in >= 90/100.
        rng = np.random.default_rng(50)
        spectrum = np.concatenate([np.full(5, 2.0), np.full(25, 0.2)])
        a = rng.standard_normal((500, 30)) @ np.diag(spectrum)
        gram = a.T @ a
        sigma1_sq = svd_thin(a).values[0] ** 2
        hits = 0
        for seed in range(100):
            sketch = row_sample(a, 600, seed)
            if operator_norm(gram - sketch.T @ sketch) <= 0.5 * sigma1_sq:
                hits += 1
        assert hits >= 90

    def test_zero_mass_raises(self):
        with pytest.raises(ZeroMassError):
            row_sample(np.zeros((5, 3)), 4, seed=0)


class TestColumnSamplePlan:
    def test_single_nonzero_column_forced(self):
        m = np.zeros((4, 5))
        m[:, 2] = [1.0, 2.0, 0.5, 1.0]
        plan = column_sample_plan(m, 7, seed=3)
        assert np.all(plan.indices == 2)

    def test_reservoir_probability_oracle(self):
        # Columns with squared-mass ratio 3:1; the reservoir rule selects
        # column 0 with probability exactly 0.75 at stream end.
        t = np.array([[np.sqrt(3.0), 1.0]])
        ell = 4
        runs = 2000
        hits = 0
        for seed in range(runs):
            plan = column_sample_plan(t, ell, seed)
            hits += int(np.sum(plan.indices == 0))
        fraction = hits / (runs * ell)
        assert abs(fraction - 0.75) <= 0.03

    def test_seeded_determinism(self):
        rng = np.random.default_rng(51)
        a = rng.standard_normal((10, 6))
        p1 = column_sample_plan(a, 9, seed=7)
        p2 = column_sample_plan(a, 9, seed=7)
        assert np.array_equal(p1.indices, p2.indices)
        assert p1.running_mass == p2.running_mass

    def test_mass_accounting(self):
        rng = np.random.default_rng(52)
        a = rng.standard_normal((8, 5))
        plan = column_sample_plan(a, 3, seed=1)
        np.testing.assert_allclose(plan.column_masses, (a**2).sum(axis=0))
        assert plan.running_mass == pytest.approx(float(np.sum(a**2)))
        assert plan.entries_seen == 40

    def test_zero_mass_raises(self):
        with pytest.raises(ZeroMassError):
            column_sample_plan(np.zeros((3, 3)), 2, seed=0)


def project(plan: ColumnSamplePlan, a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` through the plan, as the colsample pipeline projects them."""
    return a[:, plan.indices] * plan.scales()


class TestApplyColumnPlan:
    def test_single_column_ell_one_exact(self):
        a = np.array([[3.0], [4.0]])
        plan = column_sample_plan(a, 1, seed=5)
        sketch = project(plan, a)
        assert np.abs(sketch @ sketch.T - a @ a.T).max() <= 1e-12

    def test_homogeneity(self):
        rng = np.random.default_rng(53)
        a = rng.standard_normal((6, 4))
        plan1 = column_sample_plan(a, 5, seed=2)
        plan2 = column_sample_plan(2.0 * a, 5, seed=2)
        assert np.array_equal(plan1.indices, plan2.indices)
        out1 = project(plan1, a)
        out2 = project(plan2, 2.0 * a)
        np.testing.assert_allclose(out2, 2.0 * out1, rtol=1e-12)

    def test_defensive_zero_mass_error(self):
        plan = ColumnSamplePlan(
            ell=2,
            dim=3,
            seed=0,
            indices=np.array([0, 1]),
            column_masses=np.array([1.0, 0.0, 1.0]),
            running_mass=2.0,
            entries_seen=6,
        )
        with pytest.raises(ZeroMassError):
            project(plan, np.ones((1, 3)))

    def test_covariance_trials(self):
        # 200 x 50, ell = 2000 -> within 0.5 sigma_1^2 in >= 90/100 trials.
        rng = np.random.default_rng(54)
        spectrum = np.concatenate([np.full(5, 2.0), np.full(45, 0.25)])
        a = rng.standard_normal((200, 50)) @ np.diag(spectrum)
        cov = a @ a.T
        sigma1_sq = svd_thin(a).values[0] ** 2
        hits = 0
        for seed in range(100):
            sketch = project(column_sample_plan(a, 2000, seed), a)
            if operator_norm(cov - sketch @ sketch.T) <= 0.5 * sigma1_sq:
                hits += 1
        assert hits >= 90

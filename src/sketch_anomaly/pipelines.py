"""End-to-end streaming score pipelines.

Every pipeline takes a ``row_source``: a zero-argument callable returning
either a 2-D array or a fresh iterable of rows.  Each call is one pass over
the data, so pass discipline is observable from outside.  Every batch pass
reads its source through ``sketches.row_blocks``, which validates the rows,
fixes the width the pass allocates from, and raises
``ShapeError("row source produced no rows")`` on an empty pass (say, a
second pass over one shared iterator).  The online pipeline reads every
source row by row.  Passes per pipeline:

* ``run_fd_pipeline``        - 2 passes (sketch, then score)
* ``run_rproj_pipeline``     - 2 passes (projected covariance, then score)
* ``run_colsample_pipeline`` - 3 passes (sampling plan, covariance, score)
* ``run_rowsample_pipeline`` - 2 passes (reservoirs, then score)
* ``run_online_pipeline``    - 1 pass (score against the sketch so far,
  then fold the row in)

Every pipeline returns a ``scores.ScoreTable``.  Row-space sketches (fd,
rowsample) fill the full score set; projected sketches (rproj, colsample)
fill only the two estimators defined in projected coordinates (rank-k
leverage and projection distance), and the other columns are None.
Projection distance estimates are clamped at zero, with the raw value kept
in ``projection_distance_raw``.  Scoring passes hand the blocks of
``sketches.row_blocks``, each with its coordinates, to
``scores.score_blocks``, which stacks their columns in stream order.  The
online pipeline appends each row's scores to one float64 column per
field, NaN where the row is undefined, and builds the table once at the
end.  Neither builds per-row objects.

The batch row-space passes score through ``svd_thin(S)``: its right vectors
and usable sigma.  For a sketch with fewer rows than columns these come
from the short-side Gram S S^T that the Frequent Directions shrink also
uses, as W = S^T U Sigma^-1.  The online pass never forms W: it carries
S S^T from row to row and scores each row a from S a and the Gram's
eigenvectors, since a . (S^T u_j / sigma_j) = (S a) . u_j / sigma_j.  It
reads a sketch with at least as many rows as columns through
``svd_thin(S)``, as the batch passes do.

Resuming: ``FIRST_PASSES`` holds pass zero of fd (the Frequent Directions
buffer) and of colsample (the sampling plan).  Given the ``state`` that pass
returned, say reloaded by ``io.load_snapshot``, ``run_pipeline`` makes only
the later passes, and scores as a run in one invocation does.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import RankDeficientError, ShapeError
from .linalg import as_row, gram_basis, svd_thin, sym_eig
from .scores import (
    MODE_SKETCHED_BATCH,
    MODE_SKETCHED_ONLINE,
    PROJECTED_FIELDS,
    ROWSPACE_FIELDS,
    ScoreTable,
    check_lambda,
    score_block,
    score_blocks,
)
from .sketches import (
    ColumnSamplePlan,
    FrequentDirections,
    SignProjector,
    column_sample_plan,
    fd_ingest,
    row_blocks,
    row_sample,
)

# A 2-D array or an iterable of rows.
RowSource = Callable[[], Iterable]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs shared by all pipelines."""

    k: int
    ell: int
    seed: int = 0
    lam: float | None = None
    mode: str = "fd"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.ell < 2:
            raise ValueError(f"ell must be >= 2, got {self.ell}")
        if self.k >= self.ell:
            raise ValueError(f"need k < ell, got k={self.k}, ell={self.ell}")
        if self.mode not in PIPELINE_MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        check_lambda(self.lam)


def _require_rank(usable: int, cfg: PipelineConfig) -> None:
    if usable < cfg.k:
        raise RankDeficientError(
            f"sketch retains only {usable} usable direction(s) but k={cfg.k}; "
            f"increase ell from {cfg.ell} to at least "
            f"{cfg.ell + 2 * (cfg.k - usable)}"
        )


def _rowspace_table(
    row_source: RowSource, sketch: np.ndarray, cfg: PipelineConfig
) -> ScoreTable:
    """Score pass against the row space of a sketch (fd, rowsample)."""
    basis = svd_thin(sketch)
    _require_rank(basis.rank_used, cfg)
    w = basis.right_vectors
    _, blocks = row_blocks(row_source(), w.shape[0])
    return score_blocks(
        MODE_SKETCHED_BATCH, ((block, block @ w) for block in blocks),
        basis.values[: basis.rank_used], cfg.k, cfg.lam, ROWSPACE_FIELDS,
    )


def _projected_table(
    row_source: RowSource,
    projector: Callable[[int], Callable[[np.ndarray], np.ndarray]],
    cfg: PipelineConfig,
    width: int | None = None,
) -> ScoreTable:
    """Covariance pass, then score pass, in projected coordinates (rproj,
    colsample), where only L^k and T^k are defined.

    ``projector(width)`` builds the block projection for the width
    ``row_blocks`` reports.  A covariance larger than physical memory raises
    ``MemoryError`` before it is allocated.
    """
    need = 8 * cfg.ell**2
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if need > physical:
        raise MemoryError(
            f"an ell x ell covariance with ell={cfg.ell} needs {need} bytes, "
            f"more than the {physical} bytes of physical memory"
        )
    cov = np.zeros((cfg.ell, cfg.ell))
    width, blocks = row_blocks(row_source(), width)
    project = projector(width)
    for block in blocks:
        projected = project(block)
        cov += projected.T @ projected
    decomp = gram_basis(sym_eig(cov))
    _require_rank(decomp.rank_used, cfg)
    v_k = decomp.right_vectors[:, : cfg.k]
    _, blocks = row_blocks(row_source(), width)
    return score_blocks(
        MODE_SKETCHED_BATCH, ((block, project(block) @ v_k) for block in blocks),
        decomp.values[: cfg.k], cfg.k, None, PROJECTED_FIELDS,
    )


# Pass zero of each mode whose state a run can persist and resume from.  Each
# call looks its function up here, where perfbench's tracer wraps it.
FIRST_PASSES: dict[str, Callable[[Iterable, PipelineConfig], object]] = {
    "fd": lambda rows, cfg: fd_ingest(rows, cfg.ell),
    "colsample": lambda rows, cfg: column_sample_plan(rows, cfg.ell, cfg.seed),
}


def run_fd_pipeline(
    row_source: RowSource,
    cfg: PipelineConfig,
    state: FrequentDirections | None = None,
) -> ScoreTable:
    """Two passes: Frequent Directions sketch, then score all rows.  A
    ``state`` from ``FIRST_PASSES["fd"]`` skips the sketch pass."""
    if state is None:
        state = FIRST_PASSES["fd"](row_source(), cfg)
    return _rowspace_table(row_source, state.sketch(), cfg)


def run_rowsample_pipeline(
    row_source: RowSource, cfg: PipelineConfig
) -> ScoreTable:
    """Two passes: length-squared row reservoirs, then score all rows."""
    sketch = row_sample(row_source(), cfg.ell, cfg.seed)
    return _rowspace_table(row_source, sketch, cfg)


def run_rproj_pipeline(
    row_source: RowSource, cfg: PipelineConfig
) -> ScoreTable:
    """Two passes: covariance of sign-projected rows, then score."""

    def projector(width: int) -> Callable[[np.ndarray], np.ndarray]:
        r = SignProjector(cfg.seed, cfg.ell, width).matrix()
        return lambda block: block @ r

    return _projected_table(row_source, projector, cfg)


def run_colsample_pipeline(
    row_source: RowSource,
    cfg: PipelineConfig,
    state: ColumnSamplePlan | None = None,
) -> ScoreTable:
    """Three passes: sampling plan, sampled covariance, then score.  A
    ``state`` from ``FIRST_PASSES["colsample"]`` skips the plan pass."""
    if state is None:
        state = FIRST_PASSES["colsample"](row_source(), cfg)

    def projector(_width: int) -> Callable[[np.ndarray], np.ndarray]:
        # ``row_blocks`` has validated every block and its width; the
        # scales are taken once.
        indices, scales = state.indices, state.scales()
        return lambda block: block[:, indices] * scales

    return _projected_table(row_source, projector, cfg, state.dim)


def run_online_pipeline(
    row_source: RowSource, cfg: PipelineConfig
) -> ScoreTable:
    """One pass: score each row against the sketch of rows before it.

    Score-then-update ordering: row i never sees itself.  While the sketch
    still has rank < k the row is undefined; a stream with no defined row
    raises ``RankDeficientError``, as the batch pipelines do.

    The pass carries G = S S^T of the Frequent Directions buffer S.  Each
    row a is validated once and read through z = S a: the sketch's sigma
    and left vectors u_j come from ``sym_eig`` of the fill x fill G, and
    the row's coordinate on right vector j is (z . u_j) / sigma_j.  The row
    is then folded in with ``extend`` and G bordered with z and a . a;
    after a shrink G is formed again from the shrunk rows.  So a row costs
    one fill x fill eigendecomposition plus O(ell * d), and the batch
    passes' d-wide basis is never built.  Only a sketch with at least as
    many rows as columns (fill >= d, possible when d < 2 ell) is read
    through ``svd_thin(S)``, which decomposes the smaller d x d S^T S, and
    its right vectors v_j as a . v_j.

    Each row keeps its own full ``sym_eig``, because a subspace iteration
    warm-started from the previous row's vectors took 3 to 5 or more rounds
    to reach ``EIG_TOL``, each round about a third of one ``sym_eig`` at the
    fills of the benchmark's streams.
    """
    columns = {name: array("d") for name in ROWSPACE_FIELDS}
    if cfg.lam is None:
        del columns["ridge_leverage"]
    defined = bytearray()
    fd: FrequentDirections | None = None
    for row in row_source():
        if fd is None:
            # The first row's size fixes dim.
            fd = FrequentDirections(cfg.ell, np.size(row))
            gram = np.zeros((2 * cfg.ell, 2 * cfg.ell))
        a = as_row(row, fd.dim)
        fill, shrinks = fd.fill, fd.shrink_count
        z = fd.buffer[:fill] @ a
        row_sq = a @ a
        rank = 0
        if fill >= fd.dim:
            # At least as many rows as columns: the dim x dim S^T S is the
            # smaller Gram, and it resolves near-floor directions that the
            # fill x fill S S^T loses.
            basis = svd_thin(fd.buffer[:fill])
            rank = basis.rank_used
            alpha = a @ basis.right_vectors
        elif fill:
            basis = gram_basis(sym_eig(gram[:fill, :fill]))
            rank = basis.rank_used
            alpha = (z @ basis.right_vectors) / basis.values[:rank]
        fd.extend(a[None])
        if fd.shrink_count != shrinks:
            shrunk = fd.buffer[: fd.fill]
            gram[: fd.fill, : fd.fill] = shrunk @ shrunk.T
        else:
            gram[fill, :fill] = z
            gram[:fill, fill] = z
            gram[fill, fill] = row_sq
        defined.append(rank >= cfg.k)
        if rank < cfg.k:
            for column in columns.values():
                column.append(math.nan)
            continue
        scored = score_block(
            alpha[None, :], np.array([row_sq]), basis.values[:rank], cfg.k, cfg.lam
        )
        for name, column in columns.items():
            column.append(scored[name][0])
    if fd is None:
        raise ShapeError("row source produced no rows")
    if not any(defined):
        raise RankDeficientError(
            f"no row was scored: the sketch never retained k={cfg.k} usable directions"
        )
    table = dict.fromkeys(ROWSPACE_FIELDS)
    table.update((name, np.frombuffer(column)) for name, column in columns.items())
    return ScoreTable(
        MODE_SKETCHED_ONLINE, np.frombuffer(defined, dtype=bool), **table
    )


_RUNNERS: dict[str, Callable[[RowSource, PipelineConfig], ScoreTable]] = {
    "fd": run_fd_pipeline,
    "rproj": run_rproj_pipeline,
    "colsample": run_colsample_pipeline,
    "rowsample": run_rowsample_pipeline,
    "online-fd": run_online_pipeline,
}

PIPELINE_MODES = tuple(_RUNNERS)

# Modes whose runners read ``cfg.seed``, and those whose runners score
# through ``_projected_table``, filling only PROJECTED_FIELDS.
RANDOMIZED_MODES = ("rproj", "colsample", "rowsample")
PROJECTED_MODES = ("rproj", "colsample")


def run_pipeline(
    row_source: RowSource, cfg: PipelineConfig, state=None
) -> ScoreTable:
    """Dispatch on cfg.mode; a ``state`` from ``FIRST_PASSES[cfg.mode]``
    resumes the run after pass zero."""
    if state is None:
        return _RUNNERS[cfg.mode](row_source, cfg)
    return _RUNNERS[cfg.mode](row_source, cfg, state)


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
in ``projection_distance_raw``.  Scoring passes stack the columns of
``scores.score_block`` block by block (``sketches.row_blocks``), in stream
order.  The online pipeline appends each row's scores to one float64
column per field, NaN where the row is undefined, and builds the table
once at the end.  Neither builds per-row objects.

Row-space sketches take one route, ``svd_thin(S)``: rows are scored through
its right vectors and usable sigma.  For a sketch with fewer rows than
columns these come from the short-side Gram S S^T that the Frequent
Directions shrink also uses, as W = S^T U Sigma^-1.
"""

from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import RankDeficientError, ShapeError
# ``as_row`` is not called here (``FrequentDirections.update`` validates
# online rows), but perfbench/tracing.py counts its calls through this
# module's name for it.
from .linalg import as_row, gram_basis, svd_thin, sym_eig  # noqa: F401
from .scores import (
    MODE_SKETCHED_BATCH,
    MODE_SKETCHED_ONLINE,
    PROJECTED_FIELDS,
    ROWSPACE_FIELDS,
    ScoreTable,
    check_lambda,
    score_block,
    score_table,
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


def _score_pass(
    row_source: RowSource,
    width: int,
    coords: Callable[[np.ndarray], np.ndarray],
    sigma: np.ndarray,
    k: int,
    lam: float | None,
    fields: tuple[str, ...],
) -> ScoreTable:
    """One pass scoring every row, block by block, from its basis coordinates."""
    _, blocks = row_blocks(row_source(), width)
    scored = [
        score_block(coords(block), np.einsum("ij,ij->i", block, block), sigma, k, lam)
        for block in blocks
    ]
    return score_table(MODE_SKETCHED_BATCH, scored, fields)


def _rowspace_table(
    row_source: RowSource, sketch: np.ndarray, cfg: PipelineConfig
) -> ScoreTable:
    """Score pass against the row space of a sketch (fd, rowsample)."""
    basis = svd_thin(sketch)
    _require_rank(basis.rank_used, cfg)
    w = basis.right_vectors
    return _score_pass(
        row_source, w.shape[0], lambda block: block @ w,
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
    return _score_pass(
        row_source, width, lambda block: project(block) @ v_k,
        decomp.values[: cfg.k], cfg.k, None, PROJECTED_FIELDS,
    )


def run_fd_pipeline(
    row_source: RowSource,
    cfg: PipelineConfig,
    state: FrequentDirections | None = None,
) -> ScoreTable:
    """Two passes: Frequent Directions sketch, then score all rows.

    An externally built ``state`` (e.g. reloaded from a snapshot) skips
    pass one, turning this into the resume path for multi-invocation runs.
    """
    fd = state if state is not None else fd_ingest(row_source(), cfg.ell)
    return _rowspace_table(row_source, fd.sketch(), cfg)


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
    plan: ColumnSamplePlan | None = None,
) -> ScoreTable:
    """Three passes: sampling plan, sampled covariance, then score.

    A pre-built ``plan`` (reloaded from a snapshot) skips pass zero.
    """
    if plan is None:
        plan = column_sample_plan(row_source(), cfg.ell, cfg.seed)

    def projector(_width: int) -> Callable[[np.ndarray], np.ndarray]:
        # ``row_blocks`` has validated every block and its width; the
        # scales are taken once.
        indices, scales = plan.indices, plan.scales()
        return lambda block: block[:, indices] * scales

    return _projected_table(row_source, projector, cfg, plan.dim)


def run_online_pipeline(
    row_source: RowSource, cfg: PipelineConfig
) -> ScoreTable:
    """One pass: score each row against the sketch of rows before it.

    Score-then-update ordering: row i never sees itself.  While the sketch
    still has rank < k the row is undefined.
    """
    columns = {name: array("d") for name in ROWSPACE_FIELDS}
    if cfg.lam is None:
        del columns["ridge_leverage"]
    defined = bytearray()
    fd: FrequentDirections | None = None
    for row in row_source():
        if fd is None:
            # The first row's size fixes dim; ``update`` validates every
            # row, this one included.
            fd = FrequentDirections(cfg.ell, np.size(row))
        rank = 0
        if fd.fill:
            basis = svd_thin(fd.buffer[: fd.fill])
            rank = basis.rank_used
        # The basis above is the sketch of the rows before this one, so the
        # row can be validated and folded in before it is scored.
        a = fd.update(row)
        defined.append(rank >= cfg.k)
        if rank < cfg.k:
            for column in columns.values():
                column.append(math.nan)
            continue
        scored = score_block(
            (a @ basis.right_vectors)[None, :],
            np.array([a @ a]),
            basis.values[:rank],
            cfg.k,
            cfg.lam,
        )
        for name, column in columns.items():
            column.append(scored[name][0])
    if fd is None:
        raise ShapeError("row source produced no rows")
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


def run_pipeline(row_source: RowSource, cfg: PipelineConfig) -> ScoreTable:
    """Dispatch on cfg.mode."""
    return _RUNNERS[cfg.mode](row_source, cfg)


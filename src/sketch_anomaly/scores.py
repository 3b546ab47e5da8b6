"""Exact subspace anomaly scores, batch and online.

Batch scores are computed against the SVD of the whole matrix; online
scores for row i are computed against only rows 1..i-1 (maintained as a
d x d covariance accumulator).  Score definitions, for a row ``a`` with
spectrum ``sigma`` and right singular vectors ``v_j``:

* full leverage        ``L    = sum_j (a.v_j)^2 / sigma_j^2``
* rank-k leverage      ``L^k  = sum_{j<=k} (a.v_j)^2 / sigma_j^2``
* projection distance  ``T^k  = |a|^2 - sum_{j<=k} (a.v_j)^2``
* tail leverage        ``L^{>k} = L - L^k``
* ridge leverage       ``L_lam = sum_j (a.v_j)^2 / (sigma_j^2 + lam)``

``score_block`` is the one implementation of these formulas; every exact,
sketched, online and verification scorer passes it a block's coordinates
on some basis.  Directions with ``sigma_j`` at or below the relative rank
floor contribute zero to leverage sums rather than exploding; for ridge
leverage the mass outside the stored basis is charged at ``1/lam`` (its
true weight at sigma = 0).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import RankDeficientError
from .linalg import (
    as_matrix,
    as_row,
    gram_basis,
    svd_thin,
    sym_eig,
)

MODE_EXACT_BATCH = "exact-batch"
MODE_EXACT_ONLINE = "exact-online"
MODE_SKETCHED_BATCH = "sketched-batch"
MODE_SKETCHED_ONLINE = "sketched-online"

SEPARATION_WARN_FLOOR = 1e-6


class SeparationWarning(UserWarning):
    """Spectrum gap at k is numerically degenerate; scores are fragile."""


@dataclass(frozen=True)
class ScoreRecord:
    """Per-row anomaly scores with provenance.

    ``defined`` is False for online rows whose prefix had rank < k; all
    score fields are then None (the sentinel the early stream gets).
    ``projection_distance_raw`` preserves the unclamped estimator value in
    sketched modes, where projection can push it slightly negative.
    """

    row_index: int
    full_leverage: float | None
    rank_k_leverage: float | None
    projection_distance: float | None
    tail_leverage: float | None
    ridge_leverage: float | None
    mode: str
    defined: bool = True
    projection_distance_raw: float | None = None

    def to_dict(self) -> dict:
        return {
            "row_index": self.row_index,
            "full_leverage": self.full_leverage,
            "rank_k_leverage": self.rank_k_leverage,
            "projection_distance": self.projection_distance,
            "tail_leverage": self.tail_leverage,
            "ridge_leverage": self.ridge_leverage,
            "mode": self.mode,
            "defined": self.defined,
            "projection_distance_raw": self.projection_distance_raw,
        }


def undefined_record(row_index: int, mode: str) -> ScoreRecord:
    """Sentinel for rows scored against a basis of insufficient rank."""
    return ScoreRecord(
        row_index=row_index,
        full_leverage=None,
        rank_k_leverage=None,
        projection_distance=None,
        tail_leverage=None,
        ridge_leverage=None,
        mode=mode,
        defined=False,
    )


def check_lambda(lam: float | None) -> None:
    """Reject a ridge parameter that is set but not positive and finite."""
    if lam is not None and not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be positive and finite, got {lam}")


# Record fields each family of scorers fills; the rest read None.
EXACT_FIELDS = (
    "full_leverage",
    "rank_k_leverage",
    "projection_distance",
    "tail_leverage",
    "ridge_leverage",
)
ROWSPACE_FIELDS = EXACT_FIELDS + ("projection_distance_raw",)
PROJECTED_FIELDS = ("rank_k_leverage", "projection_distance", "projection_distance_raw")


def score_block(
    alpha: np.ndarray,
    row_sq: np.ndarray,
    sigma: np.ndarray,
    k: int,
    lam: float | None = None,
) -> dict[str, np.ndarray | None]:
    """Score columns for a block of rows from their basis coordinates.

    ``alpha[i, j]`` is row i's coordinate on basis vector j (the basis
    must hold at least k vectors, with singular values ``sigma``) and
    ``row_sq[i]`` its squared norm.  Returns one column per record field;
    ``ridge_leverage`` is None without ``lam``.  This is the only place
    the score formulas are written out: exact, sketched, online and
    verification scorers differ only in the basis they pass.
    """
    alpha_sq = alpha**2
    sigma_sq = sigma**2
    inv_sigma_sq = 1.0 / sigma_sq
    rank_k = alpha_sq[:, :k] @ inv_sigma_sq[:k]
    raw_t = row_sq - alpha_sq[:, :k].sum(axis=1)
    full = alpha_sq @ inv_sigma_sq
    ridge = None
    if lam is not None:
        residual = np.maximum(row_sq - alpha_sq.sum(axis=1), 0.0)
        ridge = alpha_sq @ (1.0 / (sigma_sq + lam)) + residual / lam
    return {
        "full_leverage": full,
        "rank_k_leverage": rank_k,
        "projection_distance": np.maximum(raw_t, 0.0),
        "tail_leverage": np.maximum(full - rank_k, 0.0),
        "ridge_leverage": ridge,
        "projection_distance_raw": raw_t,
    }


def score_records(
    columns: dict, fields: tuple[str, ...], mode: str, start: int = 0
) -> list[ScoreRecord]:
    """One record per row of ``columns``, filling only ``fields``."""
    lists = [
        columns[name].tolist()
        if name in fields and columns[name] is not None
        else repeat(None)
        for name in ROWSPACE_FIELDS
    ]
    return [
        ScoreRecord(
            row_index=start + i,
            full_leverage=full,
            rank_k_leverage=rank_k,
            projection_distance=proj,
            tail_leverage=tail,
            ridge_leverage=ridge,
            mode=mode,
            projection_distance_raw=raw,
        )
        for i, (full, rank_k, proj, tail, ridge, raw) in enumerate(zip(*lists))
    ]


def _warn_if_degenerate(sigma: np.ndarray, k: int) -> None:
    if sigma.size > k and sigma[0] > 0:
        delta = float((sigma[k - 1] ** 2 - sigma[k] ** 2) / sigma[0] ** 2)
        if delta < SEPARATION_WARN_FLOOR:
            warnings.warn(
                f"separation delta at k={k} is {delta:.3e}; the principal "
                "subspace is numerically degenerate and scores depend on "
                "tie-breaking",
                SeparationWarning,
                stacklevel=3,
            )


def batch_scores(matrix, k: int, lam: float | None = None) -> list[ScoreRecord]:
    """Exact scores for every row of the matrix against its own SVD."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_lambda(lam)
    a = as_matrix(matrix)
    tall = a.shape[1] <= a.shape[0]
    # A wide A's rows are scored at U Sigma (= A V), U being the right
    # vectors of svd_thin(A^T).
    basis = svd_thin(a if tall else a.T)
    rank = basis.rank_used
    if rank < k:
        raise RankDeficientError(f"basis rank {rank} is below requested k={k}")
    _warn_if_degenerate(basis.values, k)
    sigma = basis.values[:rank]
    columns = score_block(
        a @ basis.right_vectors if tall else basis.right_vectors * sigma,
        np.einsum("ij,ij->i", a, a),
        sigma,
        k,
        lam,
    )
    return score_records(columns, EXACT_FIELDS, MODE_EXACT_BATCH)


def online_scores(row_stream, k: int, lam: float | None = None) -> list[ScoreRecord]:
    """Score each row against the prefix that preceded it.

    Rows arriving while the prefix rank is still below k get sentinel
    records (``defined=False``); there is no principal subspace to measure
    against yet.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_lambda(lam)
    records: list[ScoreRecord] = []
    cov: np.ndarray | None = None
    width: int | None = None
    for i, row in enumerate(row_stream):
        a = as_row(row, width)
        if cov is None:
            width = a.shape[0]
            cov = np.zeros((width, width))
        basis = gram_basis(sym_eig(cov))
        if basis.rank_used < k:
            records.append(undefined_record(i, MODE_EXACT_ONLINE))
        else:
            columns = score_block(
                (basis.right_vectors.T @ a)[None, :],
                np.array([a @ a]),
                basis.values[: basis.rank_used],
                k,
                lam,
            )
            records += score_records(columns, EXACT_FIELDS, MODE_EXACT_ONLINE, i)
        cov += np.outer(a, a)
    return records

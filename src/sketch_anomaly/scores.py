"""Subspace anomaly scores: the score kernel and exact batch scores.

Exact scores are computed against the SVD of the whole matrix.  Score
definitions, for a row ``a`` with spectrum ``sigma`` and right singular
vectors ``v_j``:

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

Every scorer returns a ``ScoreTable``: the mode, a ``defined`` mask and
one float64 column per field, stacked from ``score_block``'s columns with
no per-row objects in between.  ``ScoreTable.to_json`` writes the bytes
``json.dumps`` with ``indent=2`` would write for the list of row dicts.
"""

from __future__ import annotations

import json
import math
import warnings
from collections import namedtuple
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

from .errors import RankDeficientError
# ``as_row`` and ``sym_eig`` are not called here, but perfbench/tracing.py
# counts and times their calls through this module's names for them.
from .linalg import as_matrix, as_row, svd_thin, sym_eig  # noqa: F401

MODE_EXACT_BATCH = "exact-batch"
MODE_SKETCHED_BATCH = "sketched-batch"
MODE_SKETCHED_ONLINE = "sketched-online"

SEPARATION_WARN_FLOOR = 1e-6


class SeparationWarning(UserWarning):
    """Spectrum gap at k is numerically degenerate; scores are fragile."""


def check_lambda(lam: float | None) -> None:
    """Reject a ridge parameter that is set but not positive and finite."""
    if lam is not None and not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lambda must be positive and finite, got {lam}")


# Columns each family of scorers fills; the rest are None.
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
    ``row_sq[i]`` its squared norm.  Returns one column per table field;
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


# Key order of one row object in the ``score`` JSON output.
_JSON_KEYS = (
    ("row_index",) + EXACT_FIELDS + ("mode", "defined", "projection_distance_raw")
)
_JSON_ROW = "  {\n" + ",\n".join(f'    "{key}": %s' for key in _JSON_KEYS) + "\n  }"

ScoreRow = namedtuple("ScoreRow", ("row_index", "defined") + ROWSPACE_FIELDS)


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Per-row anomaly scores of one scorer, held as columns.

    ``defined[i]`` is False for online rows whose prefix had rank < k;
    every column holds NaN there.  A column is None where the mode's
    family of scorers does not fill that field (``ridge_leverage`` also
    without lambda).  ``projection_distance_raw`` keeps the unclamped
    estimator value in sketched modes, where projection can push it
    slightly negative.
    """

    mode: str
    defined: np.ndarray
    full_leverage: np.ndarray | None
    rank_k_leverage: np.ndarray | None
    projection_distance: np.ndarray | None
    tail_leverage: np.ndarray | None
    ridge_leverage: np.ndarray | None
    projection_distance_raw: np.ndarray | None

    def __len__(self) -> int:
        return self.defined.shape[0]

    def __iter__(self) -> Iterator[ScoreRow]:
        """One ``ScoreRow`` per row, None where a column is absent or the
        row is undefined.  For readers outside the package; package code
        reads the columns."""
        cells = [self._cells(name, None) for name in ROWSPACE_FIELDS]
        return map(ScoreRow, range(len(self)), self.defined.tolist(), *cells)

    def _cells(self, name: str, null, fmt=None) -> Iterable:
        """Column ``name`` as a list, mapped through ``fmt`` when given, with
        ``null`` where the column is absent or the row undefined."""
        column = getattr(self, name)
        if column is None:
            return repeat(null)
        cells = column.tolist()
        if fmt is not None:
            cells = list(map(fmt, cells))
        for i in np.flatnonzero(~self.defined):
            cells[i] = null
        return cells

    def to_json(self) -> str:
        """The rows as ``json.dumps([...], indent=2) + "\\n"`` writes them.

        Each row is an object with the keys of ``_JSON_KEYS`` in that
        order; an absent column and every score of an undefined row are
        null.  Floats read as json writes them: ``float.__repr__`` when
        finite, else ``NaN``, ``Infinity`` or ``-Infinity``.
        """
        n = len(self)
        if n == 0:
            return "[]\n"
        text = {}
        for name in ROWSPACE_FIELDS:
            text[name] = cells = self._cells(name, "null", float.__repr__)
            column = getattr(self, name)
            if column is not None:
                for i in np.flatnonzero(self.defined & ~np.isfinite(column)):
                    cells[i] = json.dumps(float(column[i]))
        rows = zip(
            range(n),
            *(text[name] for name in EXACT_FIELDS),
            repeat(json.dumps(self.mode)),
            np.where(self.defined, "true", "false").tolist(),
            text["projection_distance_raw"],
        )
        return "[\n" + ",\n".join(_JSON_ROW % row for row in rows) + "\n]\n"


def _stack(blocks: list[dict]) -> dict:
    """One ``score_block`` output holding the rows of ``blocks`` in order."""
    return {
        name: None if first is None else np.concatenate([b[name] for b in blocks])
        for name, first in blocks[0].items()
    }


def score_table(
    mode: str,
    blocks: list[dict],
    fields: tuple[str, ...],
    defined: np.ndarray | None = None,
) -> ScoreTable:
    """Stack ``score_block`` outputs, in row order, into a table filling
    only ``fields``.

    Without ``defined`` every row is defined.  With it, the blocks hold
    the defined rows only, and the undefined rows read NaN.
    """
    stacked = _stack(blocks) if blocks else dict.fromkeys(fields, np.empty(0))
    if defined is None:
        defined = np.ones(stacked["rank_k_leverage"].shape[0], dtype=bool)
    columns = dict.fromkeys(ROWSPACE_FIELDS)
    for name in fields:
        values = stacked[name]
        if values is None or defined.all():
            columns[name] = values
        else:
            columns[name] = np.full(defined.shape, np.nan)
            columns[name][defined] = values
    return ScoreTable(mode, defined, **columns)


class OnlineRows:
    """The rows of an online scorer, in stream order.

    Defined rows arrive as single-row ``score_block`` outputs and are
    stacked every ``STACK_ROWS`` of them, so a long stream holds its
    scores as columns rather than one dict of one-element arrays per row.
    """

    STACK_ROWS = 512

    def __init__(self):
        self.blocks: list[dict] = []
        self.pending: list[dict] = []
        self.defined: list[bool] = []

    def add(self, block: dict | None) -> None:
        """Append one row: its ``score_block`` output, or None if undefined."""
        self.defined.append(block is not None)
        if block is not None:
            self.pending.append(block)
            if len(self.pending) == self.STACK_ROWS:
                self.blocks.append(_stack(self.pending))
                self.pending = []

    def table(self, mode: str, fields: tuple[str, ...]) -> ScoreTable:
        return score_table(
            mode, self.blocks + self.pending, fields, np.array(self.defined, dtype=bool)
        )


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


def batch_scores(matrix, k: int, lam: float | None = None) -> ScoreTable:
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
    return score_table(MODE_EXACT_BATCH, [columns], EXACT_FIELDS)

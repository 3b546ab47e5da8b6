"""Subspace anomaly scores: the score kernel and exact batch scores.

Exact scores are computed against the SVD of the whole matrix, one block
of ``_CHUNK`` rows at a time, so that besides the matrix they take
O(block * d + d^2) working memory.  Score definitions, for a row ``a``
with spectrum ``sigma`` and right singular vectors ``v_j``:

* full leverage        ``L    = sum_j (a.v_j)^2 / sigma_j^2``
* rank-k leverage      ``L^k  = sum_{j<=k} (a.v_j)^2 / sigma_j^2``
* projection distance  ``T^k  = |a|^2 - sum_{j<=k} (a.v_j)^2``
* tail leverage        ``L^{>k} = L - L^k``
* ridge leverage       ``L_lam = sum_j (a.v_j)^2 / (sigma_j^2 + lam)``

``score_block`` is the one implementation of these formulas, and
``score_blocks`` the one loop around it, which every exact, sketched and
verification scorer calls with its blocks of rows and their coordinates
on some basis; the online pipeline, whose basis changes with each row,
calls ``score_block`` itself.  Scorers pass only the directions with
``sigma_j`` above the relative rank floor ``sqrt(m * eps) * sigma_1`` of
an m-value spectrum (``linalg.effective_rank``); for ridge leverage the
mass outside the basis is charged at ``1/lam`` (its true weight at sigma = 0).

Every scorer returns a ``ScoreTable``: the mode, a ``defined`` mask and
one float64 column per field.  ``score_blocks`` stacks the blocks'
columns; the online pipeline appends each row's scores to its own float64
columns, NaN where a row is undefined.  Neither builds per-row objects.
``ScoreTable.to_json`` writes the bytes ``json.dumps`` with ``indent=2``
would write for the list of row dicts, and builds no per-row string
either.  It formats each float cell at most once: T^k takes raw T^k's
text wherever the two are the same bits.  Cells that every row shares (an
absent column, the mode, an all-true ``defined``) become part of a row
template, and one ``"".join`` of the template's literals and the per-row
cells, interleaved in one flat list, builds the document.
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
from .linalg import (  # noqa: F401
    SEPARATION_WARN_FLOOR,
    as_matrix,
    as_row,
    gram_basis,
    spectral_stats,
    svd_thin,
    sym_eig,
    sym_eig_top,
)
from .sketches import _CHUNK

MODE_EXACT_BATCH = "exact-batch"
MODE_SKETCHED_BATCH = "sketched-batch"
MODE_SKETCHED_ONLINE = "sketched-online"


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
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: np.ndarray) -> list[str]:
    """json's text for each float of ``values``: ``float.__repr__`` when
    finite, else NaN, Infinity or -Infinity."""
    text = list(map(float.__repr__, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)):
        text[i] = _JSON_NONFINITE[text[i]]
    return text


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
        cells = [self._cells(name) for name in ROWSPACE_FIELDS]
        return map(ScoreRow, range(len(self)), self.defined.tolist(), *cells)

    def _cells(self, name: str) -> Iterable:
        """Column ``name`` as a list, None where the column is absent or the
        row undefined."""
        column = getattr(self, name)
        if column is None:
            return repeat(None)
        cells = column.tolist()
        for i in np.flatnonzero(~self.defined):
            cells[i] = None
        return cells

    def _json_cells(self) -> dict[str, str | list[str]]:
        """The JSON text of each key of ``_JSON_KEYS``: one string when every
        row holds the same text, else a list of one string per row.

        A score is null where its column is absent or its row undefined.
        T^k reuses raw T^k's list, or a copy of it, at every defined row
        where the two columns hold the same bits; only its other cells are
        formatted.
        """
        defined = self.defined
        undefined = np.flatnonzero(~defined).tolist()
        cells = {
            "row_index": list(map(int.__repr__, range(len(self)))),
            "mode": json.dumps(self.mode),
            "defined": "true"
            if not undefined
            else np.where(defined, "true", "false").tolist(),
        }
        raw = self.projection_distance_raw
        for name in ("projection_distance_raw",) + EXACT_FIELDS:
            column = getattr(self, name)
            if column is None or len(undefined) == len(self):
                cells[name] = "null"
            elif name == "projection_distance" and raw is not None:
                differ = np.flatnonzero(
                    (column.view(np.int64) != raw.view(np.int64)) & defined
                )
                text = cells["projection_distance_raw"]
                if differ.size:
                    text = text.copy()
                    for i, cell in zip(differ.tolist(), _json_floats(column[differ])):
                        text[i] = cell
                cells[name] = text
            else:
                cells[name] = text = _json_floats(column)
                for i in undefined:
                    text[i] = "null"
        return cells

    def to_json(self) -> str:
        """The rows as ``json.dumps([...], indent=2) + "\\n"`` writes them.

        Each row is an object with the keys of ``_JSON_KEYS`` in that
        order; an absent column and every score of an undefined row are
        null.  Floats read as json writes them: ``float.__repr__`` when
        finite, else ``NaN``, ``Infinity`` or ``-Infinity``.

        The row object is a template cut at its per-row cells (the
        ``_json_cells`` that are lists): literal j, then cell j, for each
        of the m cut points, then the template's tail.  The document is one
        flat list of 2*m*n + 1 strings, its literal and cell slots filled by
        extended-slice assignment, and one ``"".join`` of it.
        """
        n = len(self)
        if n == 0:
            return "[]\n"
        cells = self._json_cells()
        literal, literals, columns = "  {\n", [], []
        for j, key in enumerate(_JSON_KEYS):
            literal += (",\n" if j else "") + f'    "{key}": '
            if isinstance(cells[key], str):
                literal += cells[key]
            else:
                literals.append(literal)
                columns.append(cells[key])
                literal = ""
        tail = literal + "\n  }"
        width = 2 * len(columns)
        parts = [""] * (width * n + 1)
        # Slot 0 of each row carries the previous row's tail; row_index
        # is always cut, so literals[0] opens every row.
        parts[::width] = (
            ["[\n" + literals[0]] + [tail + ",\n" + literals[0]] * (n - 1)
            + [tail + "\n]\n"]
        )
        for j in range(1, len(columns)):
            parts[2 * j :: width] = [literals[j]] * n
        for j, column in enumerate(columns):
            parts[2 * j + 1 :: width] = column
        return "".join(parts)


def score_blocks(
    mode: str, blocks: Iterable[tuple[np.ndarray, np.ndarray]], sigma: np.ndarray,
    k: int, lam: float | None, fields: tuple[str, ...],
) -> ScoreTable:
    """Score ``(rows, coordinates)`` blocks, at least one, in row order into
    a table of defined rows filling only ``fields``.  ``score_block`` reads
    each block's coordinates on the basis of singular values ``sigma`` and
    its squared row norms, taken here once per block."""
    scored = [
        score_block(alpha, np.einsum("ij,ij->i", rows, rows), sigma, k, lam)
        for rows, alpha in blocks
    ]
    columns = dict.fromkeys(ROWSPACE_FIELDS)
    for name in fields:
        if scored[0][name] is not None:
            columns[name] = np.concatenate([block[name] for block in scored])
    n = columns["rank_k_leverage"].shape[0]
    return ScoreTable(mode, np.ones(n, dtype=bool), **columns)


def _warn_if_degenerate(sigma: np.ndarray, k: int) -> None:
    """Warn when the full spectrum's separation at k is below
    ``SEPARATION_WARN_FLOOR``.  A spectrum of only k values comes from
    ``sym_eig_top``'s certified route, whose separation is certified to be
    at least the floor."""
    if sigma.size > k and sigma[0] > 0:
        delta = spectral_stats(sigma, k).separation_delta
        if delta < SEPARATION_WARN_FLOOR:
            warnings.warn(
                f"separation delta at k={k} is {delta:.3e}; the principal "
                "subspace is numerically degenerate and scores depend on "
                "tie-breaking",
                SeparationWarning,
                stacklevel=3,
            )


def batch_scores(
    matrix, k: int, lam: float | None = None, fields: tuple[str, ...] = EXACT_FIELDS
) -> ScoreTable:
    """Exact scores for every row of the matrix against its own SVD.

    The rows are scored in blocks of ``_CHUNK`` rows: ``score_blocks``
    takes each block with its coordinates X_b V (for a wide A, its rows of
    U Sigma).  So besides the matrix, the working memory is
    O(block * d + d^2): the Gram, its eigenvectors and one block's
    coordinates, never the whole of X V or (X V)^2.

    ``fields`` names the columns to fill.  With ``PROJECTED_FIELDS`` only
    the top-k coordinates X V_k are formed, and L^k, T^k and raw T^k are
    filled, as in the projected sketches' tables; lambda is then checked but
    unused.  The top-k pairs then come from ``sym_eig_top`` of the smaller
    Gram: certified Ritz pairs, whose separation at k is at least
    ``SEPARATION_WARN_FLOOR`` and whose sigma_k is therefore above the rank
    floor, or else the full spectrum of ``sym_eig``, which the rank check
    and the degenerate-spectrum warning read as for the other fields.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_lambda(lam)
    a = as_matrix(matrix)
    tall = a.shape[1] <= a.shape[0]
    # A wide A's rows are scored at U Sigma (= A V), U being the right
    # vectors of svd_thin(A^T), the eigenvectors of A A^T.
    if fields == PROJECTED_FIELDS:
        gram = a.T @ a if tall else a @ a.T
        basis = gram_basis(sym_eig_top(gram, k))
    else:
        basis = svd_thin(a if tall else a.T)
    rank = basis.rank_used
    if rank < k:
        raise RankDeficientError(f"basis rank {rank} is below requested k={k}")
    _warn_if_degenerate(basis.values, k)
    if fields == PROJECTED_FIELDS:
        rank, lam = k, None
    sigma = basis.values[:rank]
    vectors = basis.right_vectors[:, :rank]
    starts = range(0, a.shape[0], _CHUNK)
    if tall:
        blocks = ((a[s : s + _CHUNK], a[s : s + _CHUNK] @ vectors) for s in starts)
    else:
        blocks = ((a[s : s + _CHUNK], vectors[s : s + _CHUNK] * sigma) for s in starts)
    return score_blocks(MODE_EXACT_BATCH, blocks, sigma, k, lam, fields)

"""Streaming sketch constructions.

Four sketches, all single-writer streaming accumulators:

* ``FrequentDirections`` - deterministic row-space sketch with a doubled
  buffer: rows accumulate until the buffer holds 2*ell of them, then an
  SVD shrink subtracts the ell-th squared singular value from every
  direction and keeps the surviving rows.  ``FrequentDirections.extend``
  is its one ingest path.
* ``SignProjector`` - pseudorandom +-1/sqrt(ell) projection whose entries
  come from a polynomial hash over GF(2**61 - 1) of degree
  ``SIGN_INDEPENDENCE - 1``; entry (i, j) is a pure function of
  (seed, i, j).
* ``row_sample`` - length-squared row sampling via ell independent
  single-slot reservoirs, rescaled so the sketch covariance is unbiased.
* ``ColumnSamplePlan`` - the zero-th pass of column subsampling: reservoir
  sampling over squared entries in row-major order, plus the per-column
  masses needed to rescale on later passes.

The samplers, ``fd_ingest`` and the batch pipelines' passes read their
stream through ``row_blocks``.  It alone validates the rows (a 2-D array
once, yielding views of it; any other iterable row by row, restacked),
fixes the width its consumer allocates from, and raises
``ShapeError("row source produced no rows")`` on an empty stream.  Both
paths cut the stream at the same multiples of ``_CHUNK``, so every sketch
is the same bytes either way.  ``fd_ingest`` hands each block to
``FrequentDirections.extend``, and so does the online pipeline, one row
at a time after its own ``as_row``; ``FrequentDirections.update``
validates one row and extends by it.

Both samplers merge their blocks through one ``_Reservoir``, a block-merge
weighted reservoir (Chao 1982; Efraimidis & Spirakis, "Weighted random
sampling with a reservoir", IPL 2006).  With running squared mass C0
before a block and C1 after it, each slot draws one uniform u per block
and moves to the item whose cumulative-mass interval holds v = u * C1 when
v >= C0, else keeps its pick.  So a slot keeps its pick with probability
C0 / C1, and item i of the block wins with probability w_i / C1.  By
induction over blocks, if the pick before the block is item j with
probability w_j / C0, afterwards it is w_j / C0 * C0 / C1 = w_j / C1 for
every item seen: the law of per-item coin flips, at ell uniforms per block
instead of per item.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ShapeError, ZeroMassError
from .linalg import as_matrix, as_row, svd_thin
from .rng import MERSENNE61, mix64, polyval61, seed64, uniform01

_LANE_ROW_SAMPLER = 0x521AF00D
_LANE_COL_SAMPLER = 0x0C01F00D
_LANE_SIGN_COEFF = 0x516EC0EF

GRAM_BLOCK_COLS = 65536

# Coefficients of the sign hash: O(log 1/delta)-wise independent signs give
# the JL moment property behind approximate matrix products (Clarkson &
# Woodruff, STOC 2009; Kane & Nelson, J. ACM 2014).
SIGN_INDEPENDENCE = 8

# Rows per block of ``row_blocks``.  The reservoir uniforms are keyed by
# each block's first stream position, so this size is part of the output
# format, not a speed setting: changing it changes the rows and columns that
# ``row_sample`` and ``column_sample_plan`` pick, and their ``rng.draws``,
# for every seed.
_CHUNK = 512


def row_blocks(rows, width: int | None = None):
    """``(width, blocks)``: the stream's width and an iterator over its
    validated 2-D float64 blocks of up to ``_CHUNK`` consecutive rows.

    This is the one place where a batch pass validates its rows and learns
    their width.  ``rows`` is a 2-D array or any other iterable of rows.  An
    array passes ``as_matrix`` once (nonempty and finite, converted to
    C-contiguous float64 if it is not already) and the blocks are views of
    it, which callers read but never write.  Any other iterable is validated
    row by row with ``as_row`` and each block is a new array; its first block
    is read at once, so that its first row fixes the width.  Either way
    every row is finite and, when ``width`` is given, that wide.  A stream
    with no rows raises ``ShapeError("row source produced no rows")``.
    """
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        a = as_matrix(rows)
        if width is not None and a.shape[1] != width:
            raise ShapeError(f"row has width {a.shape[1]}, expected {width}")
        starts = range(0, a.shape[0], _CHUNK)
        return a.shape[1], (a[start : start + _CHUNK] for start in starts)
    blocks = _stacked_blocks(rows, width)
    first = next(blocks, None)
    if first is None:
        raise ShapeError("row source produced no rows")
    return first.shape[1], chain([first], blocks)


def _stacked_blocks(rows, width: int | None):
    """Blocks of an iterable's rows, validated row by row; unless ``width``
    is given, the first row fixes it."""
    block: list[np.ndarray] = []
    for row in rows:
        a = as_row(row, width)
        width = a.shape[0]
        block.append(a)
        if len(block) == _CHUNK:
            yield np.asarray(block)
            block = []
    if block:
        yield np.asarray(block)


class FrequentDirections:
    """Frequent Directions with a 2*ell buffer and shrink-by-sigma_ell^2.

    Rows enter only through ``extend`` (``update`` is ``extend`` by one
    validated row), which fills the buffer and runs every shrink.  After any
    prefix of the stream, ``sketch()`` is a matrix with at most 2*ell - 1
    rows whose Gram satisfies, for every k < ell,

        ||A^T A - S^T S|| <= ||A - A_k||_F^2 / (ell - k).
    """

    def __init__(self, ell: int, dim: int):
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.ell = ell
        self.dim = dim
        self.buffer = np.zeros((2 * ell, dim))
        self.fill = 0
        self.shrink_count = 0

    def update(self, row) -> np.ndarray:
        """Append one row, validated by ``as_row``, through ``extend``.

        Returns the validated row.
        """
        a = as_row(row, self.dim)
        self.extend(a[None])
        return a

    def extend(self, block: np.ndarray) -> None:
        """Append a validated 2-D block of ``dim``-wide rows, in order.

        Rows are copied into the buffer up to 2*ell - fill at a time, with a
        shrink whenever the buffer fills, so the shrinks fall on the same
        rows however the stream is cut into blocks.
        """
        start = 0
        while start < block.shape[0]:
            take = min(2 * self.ell - self.fill, block.shape[0] - start)
            self.buffer[self.fill : self.fill + take] = block[start : start + take]
            self.fill += take
            start += take
            if self.fill == 2 * self.ell:
                self._shrink()

    def _shrink(self) -> None:
        # svd_thin(B^T) eigendecomposes the short-side Gram B B^T
        # (2ell x 2ell) and returns B's left vectors U.  The shrunk rows
        # sqrt(sigma^2 - delta) v^T equal (sqrt(sigma^2 - delta) / sigma)
        # u^T B, so no right vectors are formed.
        decomp = svd_thin(self.buffer.T)
        rank = decomp.rank_used
        sigma = decomp.values[:rank]
        shift = sigma[self.ell - 1] ** 2 if rank >= self.ell else 0.0
        kept = np.sqrt(np.clip(sigma**2 - shift, 0.0, None))
        nonzero = kept > 0.0
        count = int(np.count_nonzero(nonzero))
        rows = (
            (kept[nonzero] / sigma[nonzero])[:, None]
            * decomp.right_vectors[:, nonzero].T
        ) @ self.buffer
        # Rows at or past fill are zero already.
        self.buffer[:count] = rows
        self.buffer[count : self.fill] = 0.0
        self.fill = count
        self.shrink_count += 1

    def sketch(self) -> np.ndarray:
        """Current sketch rows (copy)."""
        return self.buffer[: self.fill].copy()


def fd_ingest(rows, ell: int) -> FrequentDirections:
    """Frequent Directions state after ``extend`` with every block of
    ``row_blocks(rows)``: the same bytes as one ``update`` per row."""
    width, blocks = row_blocks(rows)
    fd = FrequentDirections(ell, width)
    for block in blocks:
        fd.extend(block)
    return fd


class SignProjector:
    """Pseudorandom sign matrix R in R^{dim x ell}, 8-wise independent.

    Entry (i, j) is ``+-1/sqrt(ell)``, the sign being the low bit of a
    polynomial over GF(2**61 - 1) with ``SIGN_INDEPENDENCE`` coefficients,
    evaluated at the entry's global position ``j * dim + i``.  State is the
    seed plus those coefficients, so the projector itself costs O(1) words.
    ``matrix()`` materializes all dim * ell entries for fast dense products,
    hashing them afresh on every call; ``sign_gram()`` never holds more
    than ``GRAM_BLOCK_COLS`` columns.
    """

    def __init__(self, seed: int, ell: int, dim: int):
        if ell < 1 or dim < 1:
            raise ValueError("ell and dim must be >= 1")
        self.seed = seed64(seed)
        self.ell = ell
        self.dim = dim
        terms = np.arange(SIGN_INDEPENDENCE, dtype=np.uint64)
        self.coefficients = mix64(self.seed, _LANE_SIGN_COEFF, terms) % MERSENNE61
        self._scale = 1.0 / np.sqrt(ell)

    def _signs(self, start: int, stop: int, scale: float) -> np.ndarray:
        """Columns ``start <= j < stop`` as rows, entries +-scale."""
        positions = np.arange(start * self.dim, stop * self.dim, dtype=np.uint64)
        bits = polyval61(self.coefficients, positions)
        bits &= np.uint64(1)
        # Low bit b -> b * (-2 * scale) + scale, which is +-scale exactly.
        signs = bits.astype(np.float64)
        signs *= -2.0 * scale
        signs += scale
        return signs.reshape(stop - start, self.dim)

    def matrix(self) -> np.ndarray:
        """The full dim x ell matrix."""
        return np.ascontiguousarray(self._signs(0, self.ell, self._scale).T)

    def sign_gram(self, start: int, stop: int) -> np.ndarray:
        """Sum of s_j s_j^T over the +-1 sign columns ``start <= j < stop``
        (dim x dim, unscaled), ``GRAM_BLOCK_COLS`` columns at a time.

        Every entry is an integer of magnitude at most ``stop - start``, so
        float64 holds each partial sum exactly, in any order: sums over
        adjacent column ranges add up to the sum over their union, to the
        bit.  Column j hashes the same positions for every ell, so a caller
        that doubles ell extends the previous sum by the new columns only.
        """
        if not 0 <= start <= stop <= self.ell:
            raise ValueError(f"need 0 <= start <= stop <= {self.ell}, got {start}, {stop}")
        g = np.zeros((self.dim, self.dim))
        for lo in range(start, stop, GRAM_BLOCK_COLS):
            block = self._signs(lo, min(lo + GRAM_BLOCK_COLS, stop), 1.0)
            g += block.T @ block
        return g


class _Reservoir:
    """``ell`` single-slot block-merge reservoirs over one stream of items:
    the seed, the slots, the running mass so far and the stream position of
    the next item.  Each sampler keeps only what it stores per pick."""

    def __init__(self, seed: int, lane: int, ell: int):
        if ell < 1:
            raise ValueError(f"ell must be >= 1, got {ell}")
        self.seed = seed64(seed)
        self.lane = lane
        self.slots = np.arange(ell, dtype=np.uint64)
        self.mass = 0.0
        self.position = 0

    def merge(self, mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Merge the next block's item masses (row-major): the slots that
        move and the index of the item each moves to.

        Each slot draws one uniform keyed by the block's first stream
        position and moves only when ``before <= v < after``, which also
        skips all-zero prefixes.
        """
        before = self.mass
        cumulative = before + np.cumsum(mass)
        after = cumulative[-1]
        position = np.uint64(self.position)
        v = uniform01(self.seed, self.lane, self.slots, position) * after
        move = (v >= before) & (v < after)
        self.mass = float(after)
        self.position += mass.size
        return move, np.searchsorted(cumulative, v[move], side="right")


def row_sample(rows, ell: int, seed: int) -> np.ndarray:
    """Sample ell rows proportional to squared length, rescaled.

    Each of the ell output slots is an independent single-slot reservoir
    (sampling with replacement) over the rows, weighted by squared length,
    so row i ends in a slot with probability ||row_i||^2 / ||A||_F^2 (see
    the module docstring).  A kept row is rescaled by
    ``||A||_F / (sqrt(ell) * ||row||)`` so the sketch covariance is an
    unbiased estimate of A^T A.
    """
    reservoir = _Reservoir(seed, _LANE_ROW_SAMPLER, ell)
    width, blocks = row_blocks(rows)
    chosen = np.zeros((ell, width))
    chosen_mass = np.zeros(ell)
    for block in blocks:
        w = np.einsum("ij,ij->i", block, block)
        move, picks = reservoir.merge(w)
        chosen[move] = block[picks]
        chosen_mass[move] = w[picks]
    if reservoir.mass == 0.0:
        raise ZeroMassError("all rows have zero length; nothing to sample")
    scale = np.sqrt(reservoir.mass) / (np.sqrt(ell) * np.sqrt(chosen_mass))
    return chosen * scale[:, None]


@dataclass
class ColumnSamplePlan:
    """Output of the zero-th column-subsampling pass.

    ``indices[t]`` is the column the t-th reservoir settled on,
    ``column_masses[j]`` the squared mass of column j seen during the
    pass, and ``running_mass`` their total (= ||A||_F^2).
    """

    ell: int
    dim: int
    seed: int
    indices: np.ndarray
    column_masses: np.ndarray
    running_mass: float
    entries_seen: int

    def scales(self) -> np.ndarray:
        """Per-slot rescaling ||A||_F / (sqrt(ell) * ||column S_t||)."""
        masses = self.column_masses[self.indices]
        if np.any(masses <= 0.0):
            raise ZeroMassError(
                "reservoir holds a column with zero recorded mass"
            )
        return np.sqrt(self.running_mass) / (np.sqrt(self.ell) * np.sqrt(masses))


def column_sample_plan(rows, ell: int, seed: int) -> ColumnSamplePlan:
    """Zero-th pass: reservoir-sample ell column indices by squared entry.

    Entries are merged into the reservoirs in row-major order, one block of
    rows at a time, so column j ends in a slot with probability
    ||column j||^2 / ||A||_F^2, as with per-entry coin flips (see the module
    docstring).
    """
    reservoir = _Reservoir(seed, _LANE_COL_SAMPLER, ell)
    width, blocks = row_blocks(rows)
    indices = np.zeros(ell, dtype=np.int64)
    col_masses = np.zeros(width)
    for block in blocks:
        sq = block**2
        col_masses += sq.sum(axis=0)
        move, picks = reservoir.merge(sq)
        indices[move] = picks % width
    if reservoir.mass == 0.0:
        raise ZeroMassError("zero total mass; cannot sample columns")
    return ColumnSamplePlan(
        ell=ell,
        dim=width,
        seed=reservoir.seed,
        indices=indices,
        column_masses=col_masses,
        running_mass=reservoir.mass,
        entries_seen=reservoir.position,
    )

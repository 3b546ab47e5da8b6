"""Reference scorers and sign hashes the tests compare the package against."""

import math

import numpy as np

from sketch_anomaly.linalg import as_row, gram_basis, sym_eig
from sketch_anomaly.rng import MERSENNE61, mod61, seed64, uniform01
from sketch_anomaly.scores import (
    EXACT_FIELDS,
    ROWSPACE_FIELDS,
    ScoreTable,
    check_lambda,
    score_block,
)

MODE_EXACT_ONLINE = "exact-online"


def online_scores(row_stream, k: int, lam: float | None = None):
    """Score each row against the exact SVD of the rows before it.

    The prefix is kept as a d x d covariance and eigendecomposed for every
    row.  Rows arriving while the prefix rank is still below k are
    undefined (``defined`` False); there is no principal subspace to
    measure against yet.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_lambda(lam)
    defined: list[bool] = []
    scored: list[dict] = []
    cov: np.ndarray | None = None
    width: int | None = None
    for row in row_stream:
        a = as_row(row, width)
        if cov is None:
            width = a.shape[0]
            cov = np.zeros((width, width))
        basis = gram_basis(sym_eig(cov))
        defined.append(basis.rank_used >= k)
        if defined[-1]:
            scored.append(score_block(
                (basis.right_vectors.T @ a)[None, :],
                np.array([a @ a]),
                basis.values[: basis.rank_used],
                k,
                lam,
            ))
        cov += np.outer(a, a)
    mask = np.array(defined, dtype=bool)
    columns = dict.fromkeys(ROWSPACE_FIELDS)
    for name in EXACT_FIELDS:
        if name == "ridge_leverage" and lam is None:
            continue
        columns[name] = np.full(mask.shape, np.nan)
        columns[name][mask] = [row[name][0] for row in scored]
    return ScoreTable(MODE_EXACT_ONLINE, mask, **columns)


def block_reservoirs(blocks, ell: int, seed: int, lane: int):
    """Plain-Python weighted reservoirs, merged one block of items at a time.

    ``blocks`` is the stream's item masses cut into lists.  Before a block
    the running mass is C0 and after it C1; each of the ``ell`` slots draws
    one uniform u keyed by (seed, lane, slot, stream index of the block's
    first item) and, when v = u * C1 is at least C0, moves to the first item
    whose running mass exceeds v.  Returns the stream index each slot ends
    on (None for a slot that never moved) and the total mass.
    """
    seed = seed64(seed)
    picks = [None] * ell
    total = 0.0
    start = 0
    for block in blocks:
        before = total
        prefix = 0.0
        cumulative = []
        for mass in block:
            prefix += mass
            cumulative.append(before + prefix)
        total = cumulative[-1]
        for slot in range(ell):
            u = float(uniform01(seed, lane, np.uint64(slot), np.uint64(start)))
            v = u * total
            if before <= v < total:
                picks[slot] = start + next(
                    i for i, c in enumerate(cumulative) if c > v
                )
        start += len(block)
    return picks, total


def _sum_of_squares(values) -> float:
    out = 0.0
    for x in values:
        out += x * x
    return out


def row_sample(a: np.ndarray, ell: int, seed: int, chunk: int, lane: int):
    """Length-squared row sample from ``block_reservoirs`` over ``chunk``-row
    blocks, each pick rescaled by ||A||_F / (sqrt(ell) * ||row||)."""
    rows = a.tolist()
    masses = [_sum_of_squares(row) for row in rows]
    blocks = [masses[s : s + chunk] for s in range(0, len(rows), chunk)]
    picks, total = block_reservoirs(blocks, ell, seed, lane)
    return np.array([
        [x * (math.sqrt(total) / (math.sqrt(ell) * math.sqrt(masses[p]))) for x in rows[p]]
        for p in picks
    ])


def column_sample_plan(a: np.ndarray, ell: int, seed: int, chunk: int, lane: int):
    """(column indices, column masses, total mass, entries seen) from
    ``block_reservoirs`` over the squared entries in row-major order, cut
    into blocks of ``chunk`` rows."""
    rows = a.tolist()
    blocks = [
        [x * x for row in rows[s : s + chunk] for x in row]
        for s in range(0, len(rows), chunk)
    ]
    picks, total = block_reservoirs(blocks, ell, seed, lane)
    width = len(rows[0])
    column_masses = [_sum_of_squares(column) for column in zip(*rows)]
    return [p % width for p in picks], column_masses, total, len(rows) * width


_LO32 = np.uint64(0xFFFFFFFF)
_LO29 = np.uint64((1 << 29) - 1)


def mulmod61(a, b):
    """(a * b) mod (2**61 - 1) for uint64 inputs < 2**61, vectorized.

    Splits each factor into 32-bit halves so every partial product fits in
    64 bits, then folds using 2**61 = 1 (mod p).
    """
    with np.errstate(over="ignore"):
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        a1 = a >> np.uint64(32)
        a0 = a & _LO32
        b1 = b >> np.uint64(32)
        b0 = b & _LO32
        hi = a1 * b1  # < 2**58
        mid = a1 * b0 + a0 * b1  # < 2**62
        lo = a0 * b0  # < 2**64, wraps nothing
        # hi * 2**64 == hi * 8 (mod p); mid * 2**32 folds via a 29-bit split.
        acc = (hi << np.uint64(3)) + (mid >> np.uint64(29)) + ((mid & _LO29) << np.uint64(32))
        acc += (lo & MERSENNE61) + (lo >> np.uint64(61))
        acc = (acc & MERSENNE61) + (acc >> np.uint64(61))
        acc = (acc & MERSENNE61) + (acc >> np.uint64(61))
        return np.where(acc >= MERSENNE61, acc - MERSENNE61, acc)


def sign_hash(projector, positions: np.ndarray) -> np.ndarray:
    """``SignProjector``'s polynomial hash by Horner's rule with a full
    ``mulmod61`` and ``mod61`` reduction at every step."""
    x = mod61(positions)
    coeffs = projector.coefficients
    acc = np.broadcast_to(coeffs[-1], x.shape).copy()
    with np.errstate(over="ignore"):
        for t in range(projector.independence_w - 2, -1, -1):
            acc = mod61(mulmod61(acc, x) + coeffs[t])
    return acc


def sign_entries(projector, positions: np.ndarray) -> np.ndarray:
    """+-1/sqrt(ell) from the low bit of ``sign_hash``."""
    scale = 1.0 / np.sqrt(projector.ell)
    bits = sign_hash(projector, positions) & np.uint64(1)
    return np.where(bits == 0, scale, -scale)


def sign_matrix(projector) -> np.ndarray:
    """The dim x ell sign matrix, entry (i, j) hashed at j * dim + i."""
    positions = np.arange(projector.ell * projector.dim, dtype=np.uint64)
    entries = sign_entries(projector, positions)
    return np.ascontiguousarray(entries.reshape(projector.ell, projector.dim).T)


def sign_gram(projector, block_cols: int) -> np.ndarray:
    """R R^T summed over blocks of ``block_cols`` columns, in order."""
    dim = projector.dim
    g = np.zeros((dim, dim))
    for start in range(0, projector.ell, block_cols):
        stop = min(start + block_cols, projector.ell)
        positions = np.arange(start * dim, stop * dim, dtype=np.uint64)
        block = sign_entries(projector, positions).reshape(stop - start, dim)
        g += block.T @ block
    return g

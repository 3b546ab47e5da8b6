"""Counter-based splittable random numbers.

All streaming randomness in this package (reservoir samplers, sign
projections) derives from stateless 64-bit mixing of ``(seed, lane,
position)`` counters.  Replaying a pass therefore replays its random
decisions bit for bit, which is what multi-pass pipelines need, and
distinct lanes never share state so they can be evaluated in any order.

Also hosts arithmetic over the Mersenne prime p = 2**61 - 1 for the
k-wise independent polynomial hash behind the sign projector: its
coefficients are ``mix64`` words reduced by ``% MERSENNE61``, and
``polyval61`` evaluates the polynomial at many positions by Horner's
rule.  The kernel splits each reduced position once, x = x1 * 2**31 + x0,
and keeps 2 * x1, which absorbs 2**62 = 2 (mod p).
Each Horner step multiplies from 31-bit halves, every partial product and
their sum below 2**64, and folds once with 2**61 = 1 (mod p).  The
accumulator stays below 2**61 + 8 between steps, a residue but not yet
the least one; the full reduction to [0, p) happens once, at the end, so
every result is the unique residue that reducing at each step gives.
Positions go through in fixed chunks of ``_POLY_CHUNK`` with the same
seven scratch vectors, updated in place, for every step.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INIT = np.uint64(0x2545F4914F6CDD1D)

MERSENNE61 = np.uint64((1 << 61) - 1)

_U64 = np.uint64
_SHIFT30 = _U64(30)
_SHIFT27 = _U64(27)
_SHIFT31 = _U64(31)
_SHIFT11 = _U64(11)
_INV53 = float(2.0**-53)


def _finalize(z):
    z = (z ^ (z >> _SHIFT30)) * _MIX1
    z = (z ^ (z >> _SHIFT27)) * _MIX2
    return z ^ (z >> _SHIFT31)


def mix64(*words):
    """Mix integer words (scalars or uint64 arrays) into uint64 hash values.

    Pure function of its arguments; arrays broadcast against each other.
    """
    with np.errstate(over="ignore"):
        h = _INIT
        for w in words:
            w = np.asarray(w).astype(np.uint64, copy=False)
            h = _finalize((h ^ w) + _GAMMA)
        return h


def seed64(seed) -> int:
    """The u64 a seed keys the streams by (and a snapshot stores)."""
    return int(seed) & 0xFFFFFFFFFFFFFFFF


def uniform01(*words):
    """Deterministic uniforms in [0, 1), keyed by the given words."""
    bits = mix64(*words)
    return (bits >> _SHIFT11).astype(np.float64) * _INV53


_M61 = MERSENNE61
_ONE = _U64(1)
_LO30 = _U64((1 << 30) - 1)
_LO31 = _U64((1 << 31) - 1)

# Positions per chunk of ``polyval61``: its seven scratch vectors of this
# length stay in cache, and memory stays bounded however many positions a
# caller hashes at once.
_POLY_CHUNK = 16384


def _fold61(v: np.ndarray, t: np.ndarray) -> None:
    """v <- (v & p) + (v >> 61) in place: same residue, and below 2**61 + 8."""
    np.right_shift(v, _U64(61), out=t)
    v &= _M61
    v += t


def _reduce61(v: np.ndarray, t: np.ndarray) -> None:
    """v <- v mod p in place, for v < 2**61 + 8.

    v + 1 reaches 2**61 exactly when v >= p, so folding it and taking the
    1 back gives v - p then and v otherwise.
    """
    v += _ONE
    _fold61(v, t)
    v -= _ONE


def polyval61(coefficients, x) -> np.ndarray:
    """sum_t coefficients[t] * x**t mod (2**61 - 1), for every entry of x.

    ``coefficients`` are field elements in [0, 2**61 - 1), lowest degree
    first; ``x`` holds any uint64 values.  Returns a new uint64 array of x's
    shape, each entry the unique residue in [0, 2**61 - 1).  See the module
    docstring for the reduction.
    """
    coeffs = list(np.asarray(coefficients, dtype=np.uint64))
    x = np.asarray(x, dtype=np.uint64)
    flat = x.reshape(-1)
    out = np.empty(flat.shape, dtype=np.uint64)
    scratch = np.empty((7, min(_POLY_CHUNK, flat.size)), dtype=np.uint64)
    for start in range(0, flat.size, _POLY_CHUNK):
        stop = min(start + _POLY_CHUNK, flat.size)
        x0, x1, x2, acc, a1, mid, t = scratch[:, : stop - start]
        # x mod p = x1 * 2**31 + x0 with x1 < 2**30 and x0 < 2**31;
        # x2 = 2 * x1 absorbs 2**62 = 2 (mod p).
        np.copyto(x0, flat[start:stop])
        _fold61(x0, t)
        _reduce61(x0, t)
        np.right_shift(x0, _U64(31), out=x1)
        x0 &= _LO31
        np.left_shift(x1, _ONE, out=x2)
        acc.fill(coeffs[-1])
        for c in coeffs[-2::-1]:
            # Invariant: acc < 2**61 + 8, so acc = a1 * 2**31 + a0 with
            # a1 <= 2**30 and a0 < 2**31, and
            # acc * x = a1 * x2 + mid * 2**31 + a0 * x0 (mod p)
            # with mid = a1 * x0 + a0 * x1.
            np.right_shift(acc, _U64(31), out=a1)
            acc &= _LO31  # a0
            np.multiply(a1, x0, out=mid)  # < 2**61
            np.multiply(acc, x1, out=t)  # < 2**61
            mid += t  # < 2**62
            a1 *= x2  # < 2**61
            acc *= x0  # < 2**62
            acc += a1  # < 2**62 + 2**61
            # mid * 2**31 = (mid >> 30) * 2**61 + (mid & (2**30 - 1)) * 2**31
            # = (mid >> 30) + ((mid & (2**30 - 1)) << 31)  (mod p),
            # two terms < 2**32 and < 2**61.
            np.right_shift(mid, _U64(30), out=t)
            acc += t
            mid &= _LO30
            mid <<= _U64(31)
            acc += mid
            acc += c  # < 2**62 + 3 * 2**61 + 2**32 < 2**64: no wrap
            _fold61(acc, t)  # acc >> 61 <= 5, so the invariant holds again
        _reduce61(acc, t)
        out[start:stop] = acc
    return out.reshape(x.shape)

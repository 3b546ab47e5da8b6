"""Counter-based splittable random numbers.

All streaming randomness in this package (reservoir samplers, sign
projections) derives from stateless 64-bit mixing of ``(seed, lane,
position)`` counters.  Replaying a pass therefore replays its random
decisions bit for bit, which is what multi-pass pipelines need, and
distinct lanes never share state so they can be evaluated in any order.

Also hosts modular arithmetic over the Mersenne prime 2**61 - 1, used by
the limited-independence polynomial hash behind the sign projector.
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
_LO32 = _U64(0xFFFFFFFF)
_LO29 = _U64((1 << 29) - 1)


def mulmod61(a, b):
    """(a * b) mod (2**61 - 1) for uint64 inputs < 2**61, vectorized.

    Splits each factor into 32-bit halves so every partial product fits in
    64 bits, then folds using 2**61 = 1 (mod p).
    """
    with np.errstate(over="ignore"):
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        a1 = a >> _U64(32)
        a0 = a & _LO32
        b1 = b >> _U64(32)
        b0 = b & _LO32
        hi = a1 * b1  # < 2**58
        mid = a1 * b0 + a0 * b1  # < 2**62
        lo = a0 * b0  # < 2**64, wraps nothing
        # hi * 2**64 == hi * 8 (mod p); mid * 2**32 folds via a 29-bit split.
        acc = (hi << _U64(3)) + (mid >> _U64(29)) + ((mid & _LO29) << _U64(32))
        acc += (lo & _M61) + (lo >> _U64(61))
        acc = (acc & _M61) + (acc >> _U64(61))
        acc = (acc & _M61) + (acc >> _U64(61))
        return np.where(acc >= _M61, acc - _M61, acc)


def mod61(x):
    """x mod (2**61 - 1) for uint64 input, vectorized."""
    with np.errstate(over="ignore"):
        x = np.asarray(x, dtype=np.uint64)
        x = (x & _M61) + (x >> _U64(61))
        x = (x & _M61) + (x >> _U64(61))
        return np.where(x >= _M61, x - _M61, x)

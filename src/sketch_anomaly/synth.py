"""Seeded synthetic matrices with controlled spectra.

Real datasets are out of scope for the test rig, so everything the
guarantees depend on (separation at k, stable rank, condition number,
tail mass, planted anomalies) is constructed directly.  All generators
are pure functions of their seed.
"""

from __future__ import annotations

import math

import numpy as np

TAIL_DECAY = 0.6

# Planted-anomaly datasets: signal standard deviations run linearly from
# the first value to the second over the k signal directions, and anomalies
# live in this many further orthogonal directions.
SIGNAL_SCALE = (1.3, 1.0)
ANOMALY_DIMS = 20


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Deterministic orthonormal columns via QR of a Gaussian draw."""
    g = rng.standard_normal((rows, cols))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def spectral_matrix(n: int, d: int, sigma: np.ndarray, seed: int) -> np.ndarray:
    """A = U diag(sigma) V^T with random orthonormal factors.

    ``sigma`` are the exact singular values (descending); len(sigma) may be
    less than min(n, d), in which case the remaining spectrum is zero.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(np.diff(sigma) > 0):
        raise ValueError("sigma must be non-increasing")
    r = sigma.size
    if r > min(n, d):
        raise ValueError("more singular values than min(n, d)")
    rng = np.random.default_rng(seed)
    u = _orthonormal(rng, n, r)
    v = _orthonormal(rng, d, r)
    return (u * sigma) @ v.T


def separated_spectrum(
    m: int,
    k: int,
    *,
    delta: float = 0.5,
    kappa: float = 1.3,
    tail_sr: float = 0.05,
) -> np.ndarray:
    """Singular values (length m) with a gap of at least delta at k.

    Top-k squared values run linearly from 1 down to 1/kappa (1 alone when
    k = 1).  The tail decays geometrically by ``TAIL_DECAY`` per value, with
    total mass ``tail_sr`` in units of sigma_1^2, scaled down if its top would
    exceed 1/kappa - delta: the gap is exactly delta only where that cap binds
    and k >= 2.
    """
    if not 1 <= k < m:
        raise ValueError("need 1 <= k < m")
    head_floor = 1.0 / kappa
    if delta > head_floor:
        raise ValueError(f"delta={delta} exceeds sigma_k^2={head_floor}")
    head = np.linspace(1.0, head_floor, k)
    next_sq = head_floor - delta
    tail_len = m - k
    weights = TAIL_DECAY ** np.arange(tail_len)
    tail = tail_sr * weights / weights.sum()
    if tail.size and tail[0] > next_sq:
        tail = tail * (next_sq / tail[0]) if next_sq > 0 else tail * 0.0
    return np.sqrt(np.concatenate([head, tail]))


def separated_matrix(
    n: int,
    d: int,
    k: int,
    seed: int,
    *,
    delta: float = 0.5,
    kappa: float = 1.3,
    tail_sr: float = 0.05,
) -> np.ndarray:
    """Random (k, delta)-separated matrix with controlled spectrum."""
    sigma = separated_spectrum(min(n, d), k, delta=delta, kappa=kappa, tail_sr=tail_sr)
    return spectral_matrix(n, d, sigma, seed)


def additive_perturbation(
    matrix: np.ndarray, mu_target: float, seed: int
) -> np.ndarray:
    """A + eta * G with eta sized so that ||AA^T - (A+N)(A+N)^T|| is near
    ``mu_target * sigma_1^2``.

    Only approximate: checkers always measure the achieved mu, this just
    lands the sweep in the right decade.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(matrix.shape)
    sigma1 = float(np.linalg.norm(matrix, 2))
    g_norm = float(np.linalg.norm(g, 2))
    if g_norm == 0 or sigma1 == 0:
        return matrix.copy()
    eta = mu_target * sigma1**2 / (2.0 * sigma1 * g_norm)
    return matrix + eta * g


def planted_anomaly_dataset(
    n: int,
    d: int,
    k: int,
    seed: int,
    *,
    anomaly_fraction: float = 0.02,
    noise_scale: float = 0.02,
    anomaly_scale: float = 4.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Rank-k signal + white noise + off-subspace anomaly rows.

    Normal rows live near a planted k-dimensional subspace; an
    ``anomaly_fraction`` of rows additionally get a component of length
    ``anomaly_scale`` inside a separate block of directions orthogonal to
    the signal.  Returns ``(matrix, planted_mask)``.  The seed and both
    scales must be non-negative, and the scales finite.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 < anomaly_fraction < 1:
        raise ValueError("anomaly_fraction must be in (0, 1)")
    if d < k + ANOMALY_DIMS:
        raise ValueError("d too small for signal plus anomaly directions")
    for name, scale in (("noise_scale", noise_scale), ("anomaly_scale", anomaly_scale)):
        if not (math.isfinite(scale) and scale >= 0.0):
            raise ValueError(f"{name} must be finite and non-negative, got {scale}")
    rng = np.random.default_rng(seed)
    basis = _orthonormal(rng, d, k + ANOMALY_DIMS)
    v_signal = basis[:, :k]
    v_anom = basis[:, k:]

    stds = np.linspace(SIGNAL_SCALE[0], SIGNAL_SCALE[1], k)
    z = rng.standard_normal((n, k)) * stds
    x = z @ v_signal.T + noise_scale * rng.standard_normal((n, d))

    m = max(1, int(round(anomaly_fraction * n)))
    planted = np.zeros(n, dtype=bool)
    planted[rng.choice(n, size=m, replace=False)] = True
    direction = rng.standard_normal((m, ANOMALY_DIMS))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    x[planted] += anomaly_scale * direction @ v_anom.T
    return x, planted

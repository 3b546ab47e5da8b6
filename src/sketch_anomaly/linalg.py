"""Dense symmetric eigendecomposition, thin SVD, and spectral statistics.

Matrices are plain ``numpy.ndarray`` in float64, row-major.  ``as_matrix``
is the boundary validator: every public operation accepts anything
array-like and rejects non-finite entries.

Decompositions are deterministic: eigenvalues are sorted descending with
ties broken by the solver's original order (stable sort), and every Gram
eigenvector is sign-normalized so that its largest-magnitude entry is
nonnegative.  Two calls on identical input bytes return identical output
bytes.  Only right singular vectors are stored; a caller that needs A's
left vectors takes the right vectors of ``svd_thin(A.T)``, which reads A
in place.

There is one eigen route, ``sym_eig``, and one decomposition route, the
smaller Gram.  A wide A (n < d) gets its left vectors U from the Gram
A A^T and its right vectors as A^T U Sigma^-1, with no orthonormalization
pass: column j is orthonormal to about eps * (sigma_1 / sigma_j)^2, and
its sign follows u_j's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateSpectrumError, ShapeError

RANK_FLOOR = 1e-12
EIG_TOL = 1e-13
_SYMMETRY_RTOL = 1e-12
# ||M||_F range in which no norm ``sym_eig`` takes, of M, M - M^T or a
# residual down to EIG_TOL * ||M||_F, can overflow or underflow.
_NORM_RANGE = (1e-100, 1e100)


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D float64 C-contiguous array."""
    arr = np.ascontiguousarray(obj, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ShapeError(f"{name} must be nonempty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_row(obj, width: int | None = None) -> np.ndarray:
    """Validate a 1-D float64 vector, optionally of fixed width."""
    vec = np.ascontiguousarray(obj, dtype=np.float64)
    if vec.ndim != 1:
        raise ShapeError(f"row must be 1-D, got ndim={vec.ndim}")
    if width is not None and vec.shape[0] != width:
        raise ShapeError(f"row has width {vec.shape[0]}, expected {width}")
    # The method, not np.all: this runs once per streamed row, and np.all's
    # dispatch costs more than the check on a 400-wide row.
    if not np.isfinite(vec).all():
        raise ValueError("row contains non-finite entries")
    return vec


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ordered eigen/singular system.

    ``values`` are sorted non-increasing.  For SVD results they are
    singular values (nonnegative, full length ``min(n, d)``) while
    ``right_vectors`` keeps only the columns above the usable floor
    (``effective_rank``).  For plain symmetric eigendecompositions,
    ``values`` are eigenvalues (possibly negative) and ``right_vectors``
    holds all eigenvectors.
    """

    values: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)
        self.right_vectors.setflags(write=False)

    @property
    def rank_used(self) -> int:
        """The number of stored right vectors."""
        return self.right_vectors.shape[1]


@dataclass(frozen=True)
class SpectralStats:
    """Spectrum-derived scalars used by separation and sketch-size bounds."""

    sigma_sq: np.ndarray
    separation_delta: float
    condition_kappa_k: float
    stable_rank: float
    numeric_rank_p: float


def _fix_signs(vectors: np.ndarray) -> None:
    """Flip columns in place so each one's largest-magnitude entry is
    nonnegative."""
    lead = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs


def sym_eig(matrix) -> SpectralDecomposition:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Backed by LAPACK's symmetric solver.  The symmetry test, the solver
    and the residual certificate read one array: M when ||M||_F is inside
    ``_NORM_RANGE``, else M divided once by the power of two 2^(e-1) at
    max|M|, whose eigenvalues are multiplied back by it.  No norm then
    overflows or underflows.  The array must pass
    ``||M - M^T||_F <= 1e-12 * ||M||_F``, and is symmetrized as
    ``(M + M^T) / 2`` only where that norm is not 0, so an exactly
    symmetric M in range (every Gram the package forms) is decomposed
    without a copy.  A reconstruction residual not within
    ``EIG_TOL * ||M||_F``, NaN included, raises ``ConvergenceError``.
    """
    m = as_matrix(matrix, "symmetric matrix")
    n, d = m.shape
    if n != d:
        raise ShapeError(f"expected square matrix, got {n}x{d}")
    with np.errstate(over="ignore"):
        norm_f = float(np.linalg.norm(m))
    scale = 1.0
    if not _NORM_RANGE[0] <= norm_f <= _NORM_RANGE[1]:
        scale = float(np.ldexp(1.0, np.frexp(np.abs(m).max())[1] - 1))
        m = m / scale
        norm_f = float(np.linalg.norm(m))
    asym = float(np.linalg.norm(m - m.T))
    if asym > _SYMMETRY_RTOL * norm_f:
        raise ShapeError(
            f"matrix is not symmetric: ||M - M^T||_F = {asym * scale:.3e} "
            f"exceeds {_SYMMETRY_RTOL:.0e} * ||M||_F"
        )
    # A zero asymmetry means (M + M^T) / 2 would be M's bytes again.
    eigvals, eigvecs = np.linalg.eigh(m if asym == 0.0 else 0.5 * (m + m.T))
    order = np.argsort(-eigvals, kind="stable")
    eigvals = eigvals[order]
    eigvecs = np.take(eigvecs, order, axis=1)
    _fix_signs(eigvecs)

    recon = (eigvecs * eigvals) @ eigvecs.T
    recon -= m
    residual = float(np.linalg.norm(recon))
    if not residual <= EIG_TOL * norm_f:
        raise ConvergenceError(
            f"eigendecomposition residual {residual * scale:.3e} exceeds "
            f"{EIG_TOL:.1e} * ||M||_F = {EIG_TOL * norm_f * scale:.3e}",
            residual=residual * scale,
        )
    return SpectralDecomposition(values=eigvals * scale, right_vectors=eigvecs)


def gram_basis(eig: SpectralDecomposition) -> SpectralDecomposition:
    """Spectrum and usable right vectors of A from ``sym_eig`` of its Gram.

    Eigenvalues are clipped at zero before the square root; vectors stop
    at ``effective_rank`` of the resulting singular values.
    """
    sigma = np.sqrt(np.clip(eig.values, 0.0, None))
    rank = effective_rank(sigma)
    return SpectralDecomposition(
        values=sigma,
        right_vectors=np.ascontiguousarray(eig.right_vectors[:, :rank]),
    )


def svd_thin(matrix) -> SpectralDecomposition:
    """Thin SVD via the smaller Gram matrix.

    Uses ``A^T A`` when d <= n, else ``A A^T``.  Singular values cover the
    full ``min(n, d)`` spectrum; stored right singular vectors stop at the
    rank boundary (``effective_rank``).  The right vectors of
    ``svd_thin(A.T)`` are A's left vectors; for non-square A it forms the
    same Gram, so its values and rank are A's to the bit.

    For d > n the right vectors are A^T U Sigma^-1, U being the Gram's
    eigenvectors: orthonormal to about eps * (sigma_1 / sigma_j)^2 in
    column j, and signed by u_j rather than sign-normalized themselves.
    An F-ordered A (``flags.fnc``), such as X.T, is validated through its
    C-ordered transpose, so ``svd_thin(X.T)`` reads X in place.
    """
    fnc = isinstance(matrix, np.ndarray) and matrix.flags.fnc
    a = as_matrix(matrix.T).T if fnc else as_matrix(matrix)
    n, d = a.shape
    if d <= n:
        return gram_basis(sym_eig(a.T @ a))
    left = gram_basis(sym_eig(a @ a.T))
    sigma = left.values[: left.rank_used]
    return SpectralDecomposition(
        values=left.values,
        right_vectors=a.T @ (left.right_vectors / sigma),
    )


def effective_rank(sigma: np.ndarray) -> int:
    """Count singular values above the usable floor.

    The relative floor ``RANK_FLOOR`` is combined with the Gram-route noise
    level: eigenvalues of A^T A below ~m*eps*lambda_1 are indistinguishable
    from rounding, so sigma below sqrt(m*eps)*sigma_1 cannot be trusted
    regardless of how small ``RANK_FLOOR`` is.
    """
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    gram_noise = np.sqrt(sigma.size * np.finfo(np.float64).eps)
    thresh = max(RANK_FLOOR, gram_noise) * sigma[0]
    return int(np.count_nonzero(sigma > thresh))


def spectral_stats(sigma, k: int) -> SpectralStats:
    """Separation, condition number, stable rank, and k-th numeric rank.

    ``sigma`` is A's full singular spectrum, non-increasing: pass
    ``svd_thin(A).values`` from the decomposition the caller already holds.
    """
    sigma_sq = np.asarray(sigma, dtype=np.float64) ** 2
    m = sigma_sq.size
    if not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < min(n, d) = {m}, got {k}")
    top = float(sigma_sq[0])
    if top <= 0.0:
        raise DegenerateSpectrumError("zero matrix has no spectral statistics")
    total = float(sigma_sq.sum())
    delta = float((sigma_sq[k - 1] - sigma_sq[k]) / top)
    kappa = float(top / sigma_sq[k - 1]) if sigma_sq[k - 1] > 0 else np.inf
    return SpectralStats(
        sigma_sq=sigma_sq,
        separation_delta=delta,
        condition_kappa_k=kappa,
        stable_rank=total / top,
        numeric_rank_p=k * total / float(sigma_sq[:k].sum()),
    )


def operator_norm(matrix) -> float:
    """Largest singular value, LAPACK's (``np.linalg.norm(A, 2)``)."""
    return float(np.linalg.norm(as_matrix(matrix), 2))

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
its sign follows u_j's.  ``sym_eig_top``, for a caller that reads only the
top k eigenpairs of a Gram, does its Rayleigh-Ritz step through
``sym_eig`` on a small projected matrix, and falls back to ``sym_eig`` of
the Gram itself wherever it cannot certify its result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DegenerateSpectrumError, ShapeError
from .rng import uniform01

EIG_TOL = 1e-13
# A separation (lambda_k - lambda_{k+1}) / lambda_1 below this is treated as
# degenerate: ``sym_eig_top`` certifies no less, and ``batch_scores`` warns.
SEPARATION_WARN_FLOOR = 1e-6
_SYMMETRY_RTOL = 1e-12
_EPS = float(np.finfo(np.float64).eps)
# ||M||_F range in which no norm ``sym_eig`` takes, of M, M - M^T or a
# residual down to EIG_TOL * ||M||_F, can overflow or underflow.
_NORM_RANGE = (1e-100, 1e100)
# ``sym_eig_top`` iterates on k + _TOP_EXTRA columns for at most _TOP_ROUNDS
# rounds, and only on a matrix at least _TOP_MIN_WIDTHS blocks wide; its
# start block is keyed by _TOP_START_KEY.  The round cap keeps an attempt
# that fails under a quarter of a full ``sym_eig`` at 400 x 400 and above.
# In narrower matrices the rounds a converging attempt takes cost about as
# much as ``sym_eig`` itself.
_TOP_EXTRA = 6
_TOP_ROUNDS = 10
_TOP_MIN_WIDTHS = 16
_TOP_START_KEY = 0x746F706B


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
    holds all eigenvectors, except from ``sym_eig_top``'s certified route,
    which holds the top k of each.
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


def sym_eig_top(matrix, k: int) -> SpectralDecomposition:
    """The top k eigenpairs of a symmetric M, certified, else ``sym_eig(M)``.

    Block subspace iteration (Halko, Martinsson & Tropp, SIREV 2011; Musco
    & Musco, NeurIPS 2015) on b = k + ``_TOP_EXTRA`` columns, from a start
    block drawn from the package's ``rng``, so the bytes are deterministic.
    Each round multiplies the orthonormal block Q by M once and takes a
    Rayleigh-Ritz step, ``sym_eig`` of the b x b matrix Q^T M Q, which
    gives the Ritz pairs (Theta_k, Q_k) and the top-k residual
    ||E|| = ||M Q_k - Q_k Theta_k||_F.  Once ||E|| is within
    ``EIG_TOL * ||M||_F`` the certificate below is checked, and, when it
    holds, one more round is taken and checked again: that round shrinks
    the angle between Q_k and M's top-k eigenvectors by about another
    lambda_{b+1} / lambda_k, which ``batch_scores`` needs for a wide A,
    whose T^k weighs the angle by (sigma_1 / sigma_{k+1})^2.

    The certificate: with P = I - Q_k Q_k^T, M is
    within ||E|| of blockdiag(Theta_k, P M P) (Weyl), and
    ||P M P||_F^2 = ||M||_F^2 - 2 ||M Q_k||_F^2 + ||Theta_k||_F^2, plus
    4 m eps ||M||_F^2 of slack for the rounding of the three norms.  So
    when the bound

        (theta_k - ||P M P||_F - 2 ||E||) / (theta_1 + ||E||)

    is positive, each of M's top k eigenvalues lambda_i is within ||E|| of
    theta_i, lambda_{k+1} <= ||P M P||_F + ||E||, the bound is a lower bound
    on the separation (lambda_k - lambda_{k+1}) / lambda_1, and Davis-Kahan
    bounds the angle between Q_k and M's top-k eigenvectors by ||E|| over
    theta_k - lambda_{k+1}.

    The k Ritz pairs are returned, values descending and vectors
    sign-normalized as ``sym_eig`` leaves them, when the bound is at least
    ``SEPARATION_WARN_FLOOR``.  Otherwise the result is
    ``sym_eig(M)``, every eigenpair: when the bound falls short, when
    ``_TOP_ROUNDS`` rounds do not get there, when m < ``_TOP_MIN_WIDTHS`` * b
    (iteration does not pay), and when ||M||_F is outside ``_NORM_RANGE``,
    non-finite M included.  A caller tells the two apart by the length of
    ``values``.  The iteration converges on the top of a positive
    semidefinite M, such as a Gram; M's symmetry is checked on each Q^T M Q.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected square matrix, got shape {m.shape}")
    size, width = m.shape[0], k + _TOP_EXTRA
    if size < _TOP_MIN_WIDTHS * width:
        return sym_eig(m)
    with np.errstate(over="ignore"):
        norm_f = float(np.linalg.norm(m))
    if not _NORM_RANGE[0] <= norm_f <= _NORM_RANGE[1]:
        return sym_eig(m)
    start = uniform01(_TOP_START_KEY, np.arange(size * width, dtype=np.uint64))
    q = np.linalg.qr(m @ (2.0 * start.reshape(size, width) - 1.0))[0]
    converged = False
    for _ in range(_TOP_ROUNDS):
        mq = m @ q
        ritz = sym_eig(q.T @ mq)
        theta, w_k = ritz.values[:k], ritz.right_vectors[:, :k]
        q_k, mq_k = q @ w_k, mq @ w_k
        residual = float(np.linalg.norm(mq_k - q_k * theta))
        if residual <= EIG_TOL * norm_f:
            rest_sq = norm_f**2 - 2.0 * float(np.linalg.norm(mq_k)) ** 2
            rest_sq += float(theta @ theta)
            rest = np.sqrt(max(rest_sq, 0.0) + 4.0 * size * _EPS * norm_f**2)
            gap = theta[-1] - rest - 2.0 * residual
            floor = SEPARATION_WARN_FLOOR * (theta[0] + residual)
            if not (gap > 0.0 and gap >= floor):
                break
            if converged:
                _fix_signs(q_k)
                return SpectralDecomposition(values=theta, right_vectors=q_k)
            converged = True  # one more round
        q = np.linalg.qr(mq)[0]
    return sym_eig(m)


def gram_basis(eig: SpectralDecomposition) -> SpectralDecomposition:
    """Spectrum and usable right vectors of A from ``sym_eig`` of its Gram.

    Eigenvalues are clipped at zero before the square root; vectors stop
    at ``effective_rank`` of the resulting singular values.  From
    ``sym_eig_top``'s certified route all k vectors are kept: its
    certificate puts sigma_k above sqrt(SEPARATION_WARN_FLOOR) * sigma_1,
    which is above the rank floor for any min(n, d) below 4e9.
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
    """Count the m singular values above the relative rank floor
    sqrt(m * eps) * sigma_1.

    The floor is the Gram route's noise level: eigenvalues of A^T A below
    ~m * eps * lambda_1 are indistinguishable from rounding, so a sigma at
    or below sqrt(m * eps) * sigma_1 cannot be trusted.
    """
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    thresh = np.sqrt(sigma.size * _EPS) * sigma[0]
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

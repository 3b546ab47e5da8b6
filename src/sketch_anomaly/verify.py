"""Executable checkers for the perturbation and approximation bounds.

Every checker measures the left side of one inequality, evaluates the
stated right side from measured quantities, and returns a ``BoundReport``.
The covariance error ``mu`` is always *measured* from the matrices at
hand, never assumed from a sketch-size formula; a theorem whose
precondition fails on the measured value is reported ``applicable=False``
(the bound asserts nothing there) rather than failed.  Each matrix is
decomposed once by ``linalg.svd_thin``, whose singular values
``linalg.spectral_stats`` reads, and scores come from
``scores.score_block``: the same kernels the pipelines use.

Checkers are pure: identical inputs and seeds give identical reports.

``run_suite`` runs the seeded sweeps of the suite table ``_SWEEPS``
(names in ``SUITES``): for each seed it calls the suite's instance
function (``_weyl_instance``, ``_gap_instance``, ...), which builds that
seed's matrices and returns its checker's reports.

The ``*_ell_for_mu`` and ``mu_for_*`` helpers translate the covariance
error a guarantee prescribes into a sketch size; the CLI ``--mu`` flag
uses them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import RankDeficientError, ShapeError
from .linalg import (
    SpectralDecomposition,
    SpectralStats,
    as_matrix,
    gram_basis,
    operator_norm,
    spectral_stats,
    svd_thin,
    sym_eig,
)
from .scores import score_block
from .sketches import SignProjector, fd_ingest
from .synth import additive_perturbation, separated_matrix

PASS_SLACK = 1e-9

_INPUT_KEYS = ("n", "d", "k", "ell", "mu", "delta", "kappa_k", "sr", "epsilon", "seed")


@dataclass(frozen=True)
class BoundReport:
    """Measured deviation versus a theoretical bound."""

    bound_name: str
    lhs: float
    rhs: float
    slack: float
    inputs: dict
    applicable: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "bound_name": self.bound_name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "inputs": self.inputs,
            "applicable": self.applicable,
            "pass": self.passed,
        }


def _report(name: str, lhs: float, rhs: float, applicable: bool, **inputs) -> BoundReport:
    full_inputs = {key: None for key in _INPUT_KEYS}
    full_inputs.update(inputs)
    lhs = float(lhs)
    rhs = float(rhs)
    passed = (not applicable) or (lhs <= rhs + PASS_SLACK * max(1.0, rhs))
    return BoundReport(
        bound_name=name,
        lhs=lhs,
        rhs=rhs,
        slack=rhs - lhs,
        inputs=full_inputs,
        applicable=bool(applicable),
        passed=passed,
    )


# --- sketch-size translation helpers -----------------------------------
#
# The guarantees prescribe a covariance error level mu; these translate it
# into a sketch size for each construction.  Pipelines accept ell directly
# and bounds are always gated on the *measured* mu, never on these formulas.


def _check_mu(mu: float) -> None:
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be positive and finite, got {mu}")


def fd_ell_for_mu(mu: float, tail_stable_rank: float, k: int) -> int:
    """Frequent Directions size for target mu, given sum_{i>k} s_i^2/s_1^2."""
    _check_mu(mu)
    return int(np.ceil(k + tail_stable_rank / mu))


# Failure probability the sign-projection width is sized for.
RPROJ_FAIL_PROB = 0.05


def rproj_ell_for_mu(mu: float, stable_rank: float) -> int:
    """Sign-projection width for target mu (unit-constant reading)."""
    _check_mu(mu)
    return int(np.ceil((stable_rank + np.log(1.0 / RPROJ_FAIL_PROB)) / mu**2))


def colsample_ell_for_mu(mu: float, stable_rank: float) -> int:
    """Column-subsample count for target mu (unit-constant reading)."""
    _check_mu(mu)
    sr = max(stable_rank, 2.0)
    return int(np.ceil(sr * np.log(sr / mu**2) / mu**2))


def mu_for_pointwise_t(eps: float, delta: float) -> float:
    """Covariance error making |T^k - ~T^k| <= eps * |a|^2 pointwise."""
    return eps**2 * delta


def mu_for_pointwise_l(eps: float, k: int, stable_rank: float, kappa: float) -> float:
    """Covariance error for the pointwise rank-k leverage guarantee."""
    return eps**3 * k**2 / (1e3 * stable_rank**3 * kappa**4)


def mu_for_average_l(eps: float, delta: float) -> float:
    """Covariance error for the average rank-k leverage guarantee."""
    return eps**2 * delta / 16.0


def mu_for_average_t(eps: float, stable_rank: float, k: int) -> float:
    """Covariance error for the average projection-distance guarantee."""
    return eps**3 * stable_rank**3 / (125.0 * k**4)


# --- measured quantities -------------------------------------------------


def measured_mu_rowspace(a: np.ndarray, at: np.ndarray) -> float:
    """||A^T A - At^T At|| / sigma_1(A)^2 (row-space sketch error).

    The column-space error of a pair is ``measured_mu_rowspace(a.T, at.T)``.
    """
    sigma1 = operator_norm(a)
    if sigma1 == 0:
        raise ValueError("zero matrix has no relative covariance error")
    return operator_norm(a.T @ a - at.T @ at) / sigma1**2


def _stat_inputs(stats: SpectralStats) -> dict:
    """Report inputs read off the spectrum of A."""
    return dict(
        delta=stats.separation_delta,
        kappa_k=stats.condition_kappa_k,
        sr=stats.stable_rank,
    )


# --- individual checkers -------------------------------------------------


def check_weyl(c, noise, seed: int | None = None) -> BoundReport:
    """max_i |sigma_i(C) - sigma_i(C + N)| <= ||N||."""
    c = as_matrix(c, "C")
    noise = as_matrix(noise, "N")
    if c.shape != noise.shape:
        raise ShapeError(f"shape mismatch {c.shape} vs {noise.shape}")
    sc = np.linalg.svd(c, compute_uv=False)
    sd = np.linalg.svd(c + noise, compute_uv=False)
    lhs = float(np.max(np.abs(sc - sd))) if sc.size else 0.0
    rhs = operator_norm(noise) if np.any(noise) else 0.0
    n, d = c.shape
    return _report("weyl", lhs, rhs, True, n=n, d=d, seed=seed)


@dataclass(frozen=True)
class _GapBound:
    """One bound on ``||U_k W U_k^T - ~U_k W ~U_k^T||``.

    ``ceiling(k, delta, kappa)`` is the largest mu the precondition admits,
    ``weights`` maps the top-k squared singular values of A to the diagonal
    of W (None for W = I), and ``rhs(sigma_sq, mu, k, delta, kappa)`` is the
    bound.
    """

    name: str
    ceiling: Callable[[int, float, float], float]
    weights: Callable[[np.ndarray], np.ndarray] | None
    rhs: Callable[[np.ndarray, float, int, float, float], float]


_PROJECTOR = _GapBound(
    "projector-closeness",
    ceiling=lambda k, delta, kappa: delta / 6,
    weights=None,
    rhs=lambda sq, mu, k, delta, kappa: (
        2.0 * np.sqrt(mu / delta) if delta > 0 else np.inf
    ),
)

_SIGMA_WEIGHTED = {
    "squared": _GapBound(
        "sigma-weighted-squared",
        ceiling=lambda k, delta, kappa: min(delta**3 * k**2, 1.0 / (20.0 * k)),
        weights=lambda head_sq: head_sq,
        rhs=lambda sq, mu, k, delta, kappa: (
            8.0 * float(sq[0]) * (mu * k) ** (1.0 / 3.0)
        ),
    ),
    "inverse-squared": _GapBound(
        "sigma-weighted-inverse-squared",
        ceiling=lambda k, delta, kappa: min(
            delta**3 * (k * kappa) ** 2, 1.0 / (20.0 * k * kappa)
        ),
        weights=lambda head_sq: 1.0 / head_sq,
        rhs=lambda sq, mu, k, delta, kappa: (
            8.0 / float(sq[k - 1]) * (mu * k * kappa) ** (1.0 / 3.0)
        ),
    ),
}


def _projector_gap(a, at, k: int, bound: _GapBound, seed: int | None) -> BoundReport:
    """Shared core of the projector checks: measure and report one _GapBound."""
    a = as_matrix(a, "A")
    at = as_matrix(at, "At")
    if a.shape[0] != at.shape[0]:
        raise ShapeError("A and At must share the row count (column spaces)")
    # Left vectors of A are the right vectors of A^T.
    decomp = svd_thin(a.T)
    stats = spectral_stats(decomp.values, k)
    mu = measured_mu_rowspace(a.T, at.T)
    delta, kappa = stats.separation_delta, stats.condition_kappa_k
    applicable = delta > 0 and mu <= bound.ceiling(k, delta, kappa)
    decomp_t = svd_thin(at.T)
    if decomp_t.rank_used < k:
        applicable = False
        lhs = np.inf
    elif decomp.rank_used < k:
        raise RankDeficientError(
            f"matrix rank {decomp.rank_used} below requested k={k}"
        )
    else:
        u_k = decomp.right_vectors[:, :k]
        ut_k = decomp_t.right_vectors[:, :k]
        if bound.weights is None:
            gap = u_k @ u_k.T - ut_k @ ut_k.T
        else:
            w = bound.weights(stats.sigma_sq[:k])
            gap = (u_k * w) @ u_k.T - (ut_k * w) @ ut_k.T
        lhs = operator_norm(gap)
    n, d = a.shape
    return _report(
        bound.name,
        lhs,
        bound.rhs(stats.sigma_sq, mu, k, delta, kappa),
        applicable,
        n=n,
        d=d,
        k=k,
        ell=at.shape[1],
        mu=mu,
        **_stat_inputs(stats),
        seed=seed,
    )


def check_projector(a, at, k: int, seed: int | None = None) -> BoundReport:
    """||U_k U_k^T - ~U_k ~U_k^T|| <= 2 sqrt(mu / Delta), needs mu <= Delta/6."""
    return _projector_gap(a, at, k, _PROJECTOR, seed)


def check_sigma_weighted(
    a, at, k: int, mode: str, seed: int | None = None
) -> BoundReport:
    """Perturbation of the sigma^2- or sigma^-2-weighted projector.

    Both terms are weighted by the TRUE top-k spectrum of A:
    ``||U_k W U_k^T - ~U_k W ~U_k^T||`` for W = Sigma_k^2 or Sigma_k^-2.
    """
    if mode not in _SIGMA_WEIGHTED:
        raise ValueError(f"mode must be 'squared' or 'inverse-squared', got {mode!r}")
    return _projector_gap(a, at, k, _SIGMA_WEIGHTED[mode], seed)


def check_diag_dominance(matrix, seed: int | None = None) -> BoundReport:
    """sum_i |M_ii| <= rank(M) * ||M|| for symmetric M."""
    decomp = sym_eig(matrix)  # validates shape and symmetry
    m = as_matrix(matrix)
    lhs = float(np.sum(np.abs(np.diag(m))))
    abs_eigs = np.abs(decomp.values)
    top = float(abs_eigs.max(initial=0.0))
    rank = int(np.count_nonzero(abs_eigs > 1e-10 * top)) if top > 0 else 0
    rhs = rank * top
    return _report(
        "diagonal-dominance", lhs, rhs, True, n=m.shape[0], d=m.shape[1], seed=seed
    )


# --- sketched-score guarantees -------------------------------------------


def _rowspace_estimates(
    a: np.ndarray, row_sq: np.ndarray, decomp: SpectralDecomposition, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(L^k, raw T^k) for every row of a against ``svd_thin`` of a basis."""
    if decomp.rank_used < k:
        raise RankDeficientError(
            f"basis rank {decomp.rank_used} below k={k}; "
            "a sketch needs a larger ell"
        )
    columns = score_block(
        a @ decomp.right_vectors[:, :k], row_sq, decomp.values[:k], k
    )
    return columns["rank_k_leverage"], columns["projection_distance_raw"]


# Sign-projection independence and ell doublings of the average checks.
_AVERAGE_INDEPENDENCE = 8
_AVERAGE_DOUBLINGS = 4


def check_average_guarantees(
    a, k: int, eps: float, seed: int = 0
) -> tuple[BoundReport, BoundReport]:
    """Average-case bounds for rank-k leverage and projection distance.

    Builds a sign-projection column-space sketch At = A R with error
    targeted at the leverage lemma's prescription ``mu = eps^2 * Delta / 16``
    (doubling ell until the measured error meets it), then reports:

    * ``sum_i |L^k - ~L^k| <= eps * k``
    * ``sum_i |T^k - ~T^k| <= eps * ||A||_F^2``

    Each report gates on its own lemma's precondition against the measured
    mu.  ell reaches ~7.5e5 in the sweep, so At is never formed: its
    covariance is ``A (R R^T) A^T``, whose top-k eigenpairs ~U_k, ~sigma_k^2
    give the sketch scores as ``score_block(~U_k ~sigma_k, ...)``, the
    projected-space estimator the rproj pipeline computes.
    """
    a = as_matrix(a, "A")
    exact = svd_thin(a)
    stats = spectral_stats(exact.values, k)
    delta, sr = stats.separation_delta, stats.stable_rank
    sigma1_sq = float(stats.sigma_sq[0])
    mu_l_target = mu_for_average_l(eps, delta)
    mu_t_target = mu_for_average_t(eps, sr, k)

    cov_exact = a @ a.T
    ell0 = rproj_ell_for_mu(mu_l_target, sr)
    for ell in (ell0 << t for t in range(_AVERAGE_DOUBLINGS + 1)):
        gram = SignProjector(seed, ell, a.shape[1], _AVERAGE_INDEPENDENCE).gram()
        cov_sketch = a @ gram @ a.T
        mu = operator_norm(cov_exact - cov_sketch) / sigma1_sq
        if mu <= mu_l_target:
            break

    row_sq = np.einsum("ij,ij->i", a, a)
    lev_exact, proj_exact = _rowspace_estimates(a, row_sq, exact, k)
    sketch = gram_basis(sym_eig(cov_sketch))
    rank_ok = sketch.rank_used >= k
    if rank_ok:
        sigma_t = sketch.values[:k]
        columns = score_block(sketch.right_vectors[:, :k] * sigma_t, row_sq, sigma_t, k)
        lhs_l = float(np.sum(np.abs(lev_exact - columns["rank_k_leverage"])))
        lhs_t = float(np.sum(np.abs(proj_exact - columns["projection_distance_raw"])))
    else:
        lhs_l = np.inf
        lhs_t = np.inf

    common = dict(
        n=a.shape[0],
        d=a.shape[1],
        k=k,
        ell=ell,
        mu=mu,
        **_stat_inputs(stats),
        epsilon=eps,
        seed=seed,
        sketch_kind="rproj",
    )
    applicable_l = rank_ok and eps < 1 and delta > 0 and mu <= mu_l_target
    report_l = _report(
        "average-leverage",
        lhs_l,
        eps * k,
        applicable_l,
        mu_target=mu_l_target,
        **common,
    )
    eps_cond_t = eps <= min(delta * k**2, float(k)) / sr
    applicable_t = rank_ok and delta > 0 and eps_cond_t and mu <= mu_t_target
    report_t = _report(
        "average-projection",
        lhs_t,
        eps * float(stats.sigma_sq.sum()),
        applicable_t,
        mu_target=mu_t_target,
        **common,
    )
    return report_l, report_t


# ell doublings of the pointwise checks' Frequent Directions sketches.
_POINTWISE_DOUBLINGS = 6


def check_pointwise_guarantees(
    a, k: int, eps: float, seed: int = 0
) -> tuple[BoundReport, BoundReport]:
    """Pointwise bounds from a Frequent Directions row-space sketch.

    * projection distance: with mu <= eps^2 * Delta (eps < 1/3),
      ``|T^k(i) - ~T^k(i)| <= eps * |a_i|^2`` for every row.
    * rank-k leverage: with mu <= eps^3 k^2 / (1000 sr^3 kappa^4) and
      eps within the theorem's parameter window,
      ``|L^k(i) - ~L^k(i)| <= eps k |a_i|^2 / ||A||_F^2``.

    Each sketch starts at the ``fd_ell_for_mu`` size and doubles ell until
    the measured mu meets the target or ell reaches the row count.  The
    leverage theorem's proof invokes a lower bound on mu where its
    statement needs an upper bound; the checker follows the statement and
    records ``mu_regime="upper-bound reading"`` in the inputs.
    """
    a = as_matrix(a, "A")
    exact = svd_thin(a)
    stats = spectral_stats(exact.values, k)
    delta, kappa, sr = (
        stats.separation_delta,
        stats.condition_kappa_k,
        stats.stable_rank,
    )
    sq = stats.sigma_sq
    tail_sr = float(sq[k:].sum() / sq[0])
    row_sq = np.einsum("ij,ij->i", a, a)
    nonzero = row_sq > 0
    lev_exact, proj_exact = _rowspace_estimates(a, row_sq, exact, k)

    def build(mu_target: float) -> tuple[np.ndarray, float, int]:
        ell0 = max(fd_ell_for_mu(mu_target, tail_sr, k), k + 1)
        for ell in (ell0 << t for t in range(_POINTWISE_DOUBLINGS + 1)):
            sketch = fd_ingest(a, ell).sketch()
            mu = measured_mu_rowspace(a, sketch)
            if mu <= mu_target or ell >= a.shape[0]:
                break
        return sketch, mu, ell

    common = dict(
        n=a.shape[0],
        d=a.shape[1],
        k=k,
        **_stat_inputs(stats),
        epsilon=eps,
        seed=seed,
    )

    mu_t_target = mu_for_pointwise_t(eps, delta)
    sketch_t, mu_t, ell_t = build(mu_t_target)
    _, proj_t = _rowspace_estimates(a, row_sq, svd_thin(sketch_t), k)
    lhs_t = float(
        np.max(np.abs(proj_exact[nonzero] - proj_t[nonzero]) / row_sq[nonzero])
    )
    report_t = _report(
        "pointwise-projection",
        lhs_t,
        eps,
        delta > 0 and eps < 1.0 / 3.0 and mu_t <= mu_t_target,
        ell=ell_t,
        mu=mu_t,
        mu_target=mu_t_target,
        **common,
    )

    mu_l_target = mu_for_pointwise_l(eps, k, sr, kappa)
    sketch_l, mu_l, ell_l = build(mu_l_target)
    lev_l, _ = _rowspace_estimates(a, row_sq, svd_thin(sketch_l), k)
    scale = float(sq.sum()) / k
    lhs_l = float(
        np.max(np.abs(lev_exact[nonzero] - lev_l[nonzero]) * scale / row_sq[nonzero])
    )
    eps_window = eps <= min(kappa * delta, 1.0 / k) * sr * kappa
    report_l = _report(
        "pointwise-leverage",
        lhs_l,
        eps,
        delta > 0 and eps_window and mu_l <= mu_l_target,
        ell=ell_l,
        mu=mu_l,
        mu_target=mu_l_target,
        mu_regime="upper-bound reading",
        **common,
    )
    return report_t, report_l


def check_low_rank_approx(
    a, p: int, k_proj: int, seed: int, eps: float
) -> BoundReport:
    """Low-rank reconstruction through a row-mixing sign projection.

    B = R A for a k_proj x n sign matrix R (scaled 1/sqrt(k_proj)); the
    top-p right singular vectors w_i of B give the approximation
    ``~A_p = sum_{i<=p} (A w_i) w_i^T``.  Checks

        ||A - ~A_p||_F^2 <= ||A - A_p||_F^2 + eps * ||A_p||_F^2

    and verifies the exact decomposition
    ``||A - ~A_p||_F^2 = ||A - A_p||_F^2 + (||A_p||_F^2 - sum ||A w_i||^2)``,
    whose residual is recorded in the report inputs.  Needs
    1 <= p < min(n, d).
    """
    a = as_matrix(a, "A")
    n, d = a.shape
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if k_proj < p:
        raise ValueError(f"k_proj must be >= p, got k_proj={k_proj}, p={p}")
    projector = SignProjector(seed, k_proj, n)
    b = projector.matrix().T @ a
    decomp_b = svd_thin(b)
    if decomp_b.rank_used < p:
        raise RankDeficientError(
            f"projected matrix has rank {decomp_b.rank_used} < p={p}"
        )
    w = decomp_b.right_vectors[:, :p]
    aw = a @ w
    approx = aw @ w.T

    stats = spectral_stats(svd_thin(a).values, p)
    head = float(stats.sigma_sq[:p].sum())
    total = float(stats.sigma_sq.sum())
    baseline = max(total - head, 0.0)

    lhs = float(np.sum((a - approx) ** 2))
    rhs = baseline + eps * head
    captured = float(np.sum(aw**2))
    identity_rhs = baseline + (head - captured)
    identity_residual = abs(lhs - identity_rhs) / max(1.0, total)
    return _report(
        "low-rank-approx",
        lhs,
        rhs,
        True,
        n=n,
        d=d,
        k=p,
        ell=k_proj,
        epsilon=eps,
        seed=seed,
        identity_residual=identity_residual,
        numeric_rank_p=stats.numeric_rank_p,
    )


# --- the suites: one instance per seed -----------------------------------
#
# Each instance function takes the sweep's base seed, the seed index s, the
# seed count and the suite's eps, builds seed s's instance and returns its
# checker's reports, seeded base + s.  ``run_suite`` is the one seed loop.


def _weyl_instance(base: int, s: int, num_seeds: int, eps: float | None):
    rng = np.random.default_rng(base + s)
    c = rng.standard_normal((120, 40))
    scale = 10.0 ** rng.uniform(-3, 0)
    noise = scale * rng.standard_normal((120, 40))
    return [check_weyl(c, noise, seed=base + s)]


def _perturbed_separated(
    k: int, seed: int, mu_fraction_of_max: float, bound: _GapBound
):
    """Separated 120x40 instance plus perturbation with measured mu under a cap.

    The cap is the bound's precondition ceiling; the perturbation is
    retried at half strength until the measured mu fits under it, so sweep
    instances are applicable by construction.
    """
    a = separated_matrix(120, 40, k, seed, delta=0.5, kappa=1.3, tail_sr=0.05)
    stats = spectral_stats(svd_thin(a).values, k)
    cap = bound.ceiling(k, stats.separation_delta, stats.condition_kappa_k)
    target = mu_fraction_of_max * cap
    at = additive_perturbation(a, target, seed + 1)
    for _ in range(8):
        if measured_mu_rowspace(a.T, at.T) <= cap:
            break
        target *= 0.5
        at = additive_perturbation(a, target, seed + 1)
    return a, at


def _gap_instance(
    bound: _GapBound,
    seed_stride: int,
    log_spread: bool,
    base: int,
    s: int,
    num_seeds: int,
    eps: float | None,
):
    """Projector-gap reports at k = 2 and 5, instance seeds base + stride*s + k.

    The perturbation targets 0.6 of the precondition ceiling or, with
    ``log_spread``, a share spread log-evenly over the sweep from 1e-6 up
    to half the ceiling.
    """
    if log_spread:
        mu_fraction = min(10.0 ** (-6.0 + 5.7 * (s / max(num_seeds - 1, 1))), 0.5)
    else:
        mu_fraction = 0.6
    reports = []
    for k in (2, 5):
        a, at = _perturbed_separated(k, base + seed_stride * s + k, mu_fraction, bound)
        reports.append(_projector_gap(a, at, k, bound, base + s))
    return reports


def _diag_instance(base: int, s: int, num_seeds: int, eps: float | None):
    """A 40x40 symmetric matrix: indefinite, low rank or rank one by s mod 3."""
    rng = np.random.default_rng(base + s)
    kind = s % 3
    if kind == 0:
        g = rng.standard_normal((40, 40))
        m = g + g.T
    elif kind == 1:
        rank = int(rng.integers(1, 6))
        g = rng.standard_normal((40, rank))
        m = g @ g.T
    else:
        v = rng.standard_normal(40)
        m = np.outer(v, v)
    return [check_diag_dominance(m, seed=base + s)]


def _pointwise_instance(base: int, s: int, num_seeds: int, eps: float):
    a = separated_matrix(200, 40, 3, base + s, delta=0.3, kappa=1.15, tail_sr=5e-5)
    return list(check_pointwise_guarantees(a, 3, eps, seed=base + s))


def _average_instance(base: int, s: int, num_seeds: int, eps: float):
    a = separated_matrix(200, 30, 2, base + s, delta=0.7, kappa=1.05, tail_sr=0.05)
    return list(check_average_guarantees(a, 2, eps, seed=base + s))


def _low_rank_instance(base: int, s: int, num_seeds: int, eps: float):
    a = separated_matrix(300, 60, 5, base + s, delta=0.6, kappa=1.2, tail_sr=0.08)
    return [check_low_rank_approx(a, 5, 200, base + s, eps)]


# Suite name -> (instance function, default eps); a None default means the
# suite takes no eps.  The order is the order of ``--suite all``.
_SWEEPS: dict[str, tuple[Callable[..., list[BoundReport]], float | None]] = {
    "weyl": (_weyl_instance, None),
    "projector": (partial(_gap_instance, _PROJECTOR, 1000, False), None),
    "sigma-squared": (
        partial(_gap_instance, _SIGMA_WEIGHTED["squared"], 2000, True),
        None,
    ),
    "sigma-inverse": (
        partial(_gap_instance, _SIGMA_WEIGHTED["inverse-squared"], 2000, True),
        None,
    ),
    "diag": (_diag_instance, None),
    "pointwise": (_pointwise_instance, 0.2),
    "average": (_average_instance, 0.25),
    "lowrank": (_low_rank_instance, 0.3),
}

SUITES = tuple(_SWEEPS)


def run_suite(
    name: str,
    num_seeds: int,
    base_seed: int = 0,
    eps: float | None = None,
) -> list[BoundReport]:
    """Run one named suite (or all of them) over seeds base_seed + s.

    Reports come suite by suite, and within a suite seed by seed.
    ``eps`` overrides each eps-taking suite's default; it must be positive
    and below 1 (at 1 or more every suite's bound is vacuous or its
    precondition fails), and ``num_seeds`` at least 1.
    """
    if name != "all" and name not in _SWEEPS:
        raise ValueError(f"unknown suite {name!r}")
    if num_seeds < 1:
        raise ValueError(f"seed count must be >= 1, got {num_seeds}")
    if eps is not None and not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"epsilon must be positive and finite, got {eps}")
    if eps is not None and eps >= 1.0:
        raise ValueError(f"epsilon must be below 1, got {eps}")
    reports = []
    for suite in SUITES if name == "all" else (name,):
        instance, default_eps = _SWEEPS[suite]
        suite_eps = default_eps if eps is None else eps
        for s in range(num_seeds):
            reports += instance(base_seed, s, num_seeds, suite_eps)
    return reports

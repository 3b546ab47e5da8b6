"""Executable checkers for the perturbation and approximation bounds.

Every checker measures the left side of one inequality, evaluates the
stated right side from measured quantities, and returns a ``BoundReport``.
The covariance error ``mu`` is always *measured* from the matrices at
hand, never assumed from a sketch-size formula; a theorem whose
precondition fails on the measured value is reported ``applicable=False``
(the bound asserts nothing there) rather than failed.

Checkers are pure: identical inputs and seeds give identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import RankDeficientError, ShapeError
from .linalg import as_matrix, operator_norm, svd_thin, sym_eig
from .pipelines import (
    colsample_ell_for_mu,
    fd_ell_for_mu,
    mu_for_average_l,
    mu_for_average_t,
    mu_for_pointwise_l,
    mu_for_pointwise_t,
    rproj_ell_for_mu,
)
from .rng import uniform01
from .scores import score_block
from .sketches import SignProjector, fd_ingest
from .synth import additive_perturbation, separated_matrix

_LANE_VERIFY_COLS = 0x7E57C015

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


# --- measured quantities -------------------------------------------------


def measured_mu_colspace(a: np.ndarray, at: np.ndarray) -> float:
    """||A A^T - At At^T|| / sigma_1(A)^2 (column-space sketch error)."""
    sigma1 = operator_norm(a)
    if sigma1 == 0:
        raise ValueError("zero matrix has no relative covariance error")
    return operator_norm(a @ a.T - at @ at.T) / sigma1**2


def measured_mu_rowspace(a: np.ndarray, at: np.ndarray) -> float:
    """||A^T A - At^T At|| / sigma_1(A)^2 (row-space sketch error)."""
    sigma1 = operator_norm(a)
    if sigma1 == 0:
        raise ValueError("zero matrix has no relative covariance error")
    return operator_norm(a.T @ a - at.T @ at) / sigma1**2


def _spectrum_info(a: np.ndarray, k: int) -> dict:
    sigma = svd_thin(a).values
    if k < 1 or k >= sigma.size:
        raise ValueError(f"k must satisfy 1 <= k < min(n, d), got {k}")
    sq = sigma**2
    top = float(sq[0])
    if top == 0:
        raise ValueError("zero matrix")
    return {
        "sigma": sigma,
        "delta": float((sq[k - 1] - sq[k]) / top),
        "kappa": float(top / sq[k - 1]) if sq[k - 1] > 0 else np.inf,
        "sr": float(sq.sum() / top),
        "tail_sr": float(sq[k:].sum() / top),
        "frob_sq": float(sq.sum()),
        "head_sq": sq[:k].copy(),
    }


def _top_left_block(a: np.ndarray, k: int) -> np.ndarray:
    decomp = svd_thin(a, compute_left=True)
    if decomp.rank_used < k:
        raise RankDeficientError(
            f"matrix rank {decomp.rank_used} below requested k={k}"
        )
    return decomp.left_vectors[:, :k]


# --- individual checkers -------------------------------------------------


def check_weyl(c, noise, seed: int | None = None) -> BoundReport:
    """max_i |sigma_i(C) - sigma_i(C + N)| <= ||N||."""
    c = as_matrix(c, "C")
    noise = as_matrix(noise, "N")
    if c.shape != noise.shape:
        raise ShapeError(f"shape mismatch {c.shape} vs {noise.shape}")
    sc = svd_thin(c).values
    sd = svd_thin(c + noise).values
    lhs = float(np.max(np.abs(sc - sd))) if sc.size else 0.0
    rhs = operator_norm(noise) if np.any(noise) else 0.0
    n, d = c.shape
    return _report("weyl", lhs, rhs, True, n=n, d=d, seed=seed)


def check_projector(a, at, k: int, seed: int | None = None) -> BoundReport:
    """||U_k U_k^T - ~U_k ~U_k^T|| <= 2 sqrt(mu / Delta), needs mu <= Delta/6."""
    a = as_matrix(a, "A")
    at = as_matrix(at, "At")
    if a.shape[0] != at.shape[0]:
        raise ShapeError("A and At must share the row count (column spaces)")
    info = _spectrum_info(a, k)
    mu = measured_mu_colspace(a, at)
    delta = info["delta"]
    applicable = delta > 0 and mu <= delta / 6
    rank_at = svd_thin(at).rank_used
    if rank_at < k:
        applicable = False
        lhs = np.inf
    else:
        u_k = _top_left_block(a, k)
        ut_k = _top_left_block(at, k)
        lhs = operator_norm(u_k @ u_k.T - ut_k @ ut_k.T)
    rhs = 2.0 * np.sqrt(mu / delta) if delta > 0 else np.inf
    n, d = a.shape
    return _report(
        "projector-closeness",
        lhs,
        rhs,
        applicable,
        n=n,
        d=d,
        k=k,
        ell=at.shape[1],
        mu=mu,
        delta=delta,
        kappa_k=info["kappa"],
        sr=info["sr"],
        seed=seed,
    )


def check_sigma_weighted(
    a, at, k: int, mode: str, seed: int | None = None
) -> BoundReport:
    """Perturbation of the sigma^2- or sigma^-2-weighted projector.

    Both terms are weighted by the TRUE top-k spectrum of A:
    ``||U_k W U_k^T - ~U_k W ~U_k^T||`` for W = Sigma_k^2 or Sigma_k^-2.
    """
    if mode not in ("squared", "inverse-squared"):
        raise ValueError(f"mode must be 'squared' or 'inverse-squared', got {mode!r}")
    a = as_matrix(a, "A")
    at = as_matrix(at, "At")
    if a.shape[0] != at.shape[0]:
        raise ShapeError("A and At must share the row count (column spaces)")
    info = _spectrum_info(a, k)
    mu = measured_mu_colspace(a, at)
    delta = info["delta"]
    kappa = info["kappa"]
    sigma1_sq = float(info["sigma"][0] ** 2)
    sigma_k_sq = float(info["sigma"][k - 1] ** 2)

    if mode == "squared":
        precondition = mu <= min(delta**3 * k**2, 1.0 / (20.0 * k))
        weights = info["head_sq"]
        rhs = 8.0 * sigma1_sq * (mu * k) ** (1.0 / 3.0)
    else:
        precondition = mu <= min(
            delta**3 * (k * kappa) ** 2, 1.0 / (20.0 * k * kappa)
        )
        weights = 1.0 / info["head_sq"]
        rhs = 8.0 / sigma_k_sq * (mu * k * kappa) ** (1.0 / 3.0)

    applicable = bool(precondition) and delta > 0
    rank_at = svd_thin(at).rank_used
    if rank_at < k:
        applicable = False
        lhs = np.inf
    else:
        u_k = _top_left_block(a, k)
        ut_k = _top_left_block(at, k)
        lhs = operator_norm((u_k * weights) @ u_k.T - (ut_k * weights) @ ut_k.T)
    n, d = a.shape
    return _report(
        f"sigma-weighted-{mode}",
        lhs,
        rhs,
        applicable,
        n=n,
        d=d,
        k=k,
        ell=at.shape[1],
        mu=mu,
        delta=delta,
        kappa_k=kappa,
        sr=info["sr"],
        seed=seed,
    )


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


# --- column-space sketch builders for the average-case lemmas ------------


def _colsample_weights(a: np.ndarray, ell: int, seed: int) -> np.ndarray:
    """Length-squared column sampling as diagonal Gram weights.

    Samples ell column indices from the exact squared-mass distribution
    (the marginal the streaming reservoir plan realizes) and returns w
    with ``At At^T = A diag(w) A^T``.
    """
    col_mass = np.einsum("ij,ij->j", a, a)
    total = float(col_mass.sum())
    if total <= 0:
        raise ValueError("zero total mass")
    cum = np.cumsum(col_mass / total)
    u = uniform01(seed, _LANE_VERIFY_COLS, np.arange(ell, dtype=np.uint64))
    idx = np.minimum(np.searchsorted(cum, u, side="right"), a.shape[1] - 1)
    counts = np.bincount(idx, minlength=a.shape[1]).astype(np.float64)
    weights = np.zeros_like(col_mass)
    nonzero = col_mass > 0
    weights[nonzero] = counts[nonzero] * total / (ell * col_mass[nonzero])
    return weights


def _colspace_sketch_cov(
    a: np.ndarray, kind: str, ell: int, seed: int, independence_w: int
) -> np.ndarray:
    """Covariance At At^T of a column-space sketch, without forming At."""
    n, d = a.shape
    if kind == "rproj":
        projector = SignProjector(seed, ell, d, independence_w)
        return a @ projector.gram() @ a.T
    if kind == "colsample":
        weights = _colsample_weights(a, ell, seed)
        return (a * weights) @ a.T
    if kind == "exact":
        return a @ a.T
    raise ValueError(f"unknown sketch kind {kind!r}")


def check_average_guarantees(
    a,
    k: int,
    sketch_kind: str,
    eps: float,
    seed: int = 0,
    ell: int | None = None,
    independence_w: int = 8,
    max_doublings: int = 4,
) -> tuple[BoundReport, BoundReport]:
    """Average-case bounds for rank-k leverage and projection distance.

    Builds a column-space sketch with error targeted at the leverage
    lemma's prescription ``mu = eps^2 * Delta / 16`` (doubling ell until
    the measured error meets it), then reports:

    * ``sum_i |L^k - ~L^k| <= eps * k``
    * ``sum_i |T^k - ~T^k| <= eps * ||A||_F^2``

    Each report gates on its own lemma's precondition against the measured
    mu.  Scores are evaluated in column-space form (row norms of the top-k
    left factors), which is algebraically identical to the projected-space
    estimator the streaming pipeline computes.
    """
    # This is the one scorer that does not go through ``score_block``: the
    # projected-space form needs the n x ell sketch At, and ell reaches
    # ~7.5e5 here, so both score sets are read off the n x n covariances.
    a = as_matrix(a, "A")
    info = _spectrum_info(a, k)
    delta, kappa, sr = info["delta"], info["kappa"], info["sr"]
    mu_l_target = mu_for_average_l(eps, delta)
    mu_t_target = mu_for_average_t(eps, sr, k)

    if ell is None:
        if sketch_kind == "rproj":
            ell = rproj_ell_for_mu(mu_l_target, sr)
        elif sketch_kind == "colsample":
            ell = colsample_ell_for_mu(mu_l_target, sr)
        else:
            ell = a.shape[1]

    cov_exact = a @ a.T
    sigma1_sq = float(info["sigma"][0] ** 2)
    cov_sketch = None
    mu = np.inf
    for _ in range(max_doublings + 1):
        cov_sketch = _colspace_sketch_cov(a, sketch_kind, ell, seed, independence_w)
        mu = operator_norm(cov_exact - cov_sketch) / sigma1_sq
        if mu <= mu_l_target or sketch_kind == "exact":
            break
        ell *= 2

    # Exact scores via the left factors of A.
    decomp = svd_thin(a, compute_left=True)
    u_k = decomp.left_vectors[:, :k]
    sigma_k = decomp.values[:k]
    row_sq = np.einsum("ij,ij->i", a, a)
    lev_exact = np.einsum("ij,ij->i", u_k, u_k)
    proj_exact = row_sq - np.einsum("ij,ij->i", u_k * sigma_k, u_k * sigma_k)

    # Sketch scores via the eigensystem of the sketch covariance.
    eig = sym_eig(cov_sketch)
    lam = np.clip(eig.values, 0.0, None)
    usable = int(np.count_nonzero(lam > 0))
    rank_ok = usable >= k
    if rank_ok:
        ut_k = eig.right_vectors[:, :k]
        sig_t = np.sqrt(lam[:k])
        lev_sketch = np.einsum("ij,ij->i", ut_k, ut_k)
        proj_sketch = row_sq - np.einsum(
            "ij,ij->i", ut_k * sig_t, ut_k * sig_t
        )
        lhs_l = float(np.sum(np.abs(lev_exact - lev_sketch)))
        lhs_t = float(np.sum(np.abs(proj_exact - proj_sketch)))
    else:
        lhs_l = np.inf
        lhs_t = np.inf

    common = dict(
        n=a.shape[0],
        d=a.shape[1],
        k=k,
        ell=ell,
        mu=mu,
        delta=delta,
        kappa_k=kappa,
        sr=sr,
        epsilon=eps,
        seed=seed,
        sketch_kind=sketch_kind,
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
        eps * info["frob_sq"],
        applicable_t,
        mu_target=mu_t_target,
        **common,
    )
    return report_l, report_t


# --- pointwise guarantees ------------------------------------------------


def _rowspace_estimates(
    a: np.ndarray, row_sq: np.ndarray, basis: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """(L^k, raw T^k) for every row of a against the row space of basis."""
    decomp = svd_thin(basis)
    if decomp.rank_used < k:
        raise RankDeficientError(
            f"basis rank {decomp.rank_used} below k={k}; "
            "a sketch needs a larger ell"
        )
    columns = score_block(
        a @ decomp.right_vectors[:, :k], row_sq, decomp.values[:k], k
    )
    return columns["rank_k_leverage"], columns["projection_distance_raw"]


def check_pointwise_guarantees(
    a,
    k: int,
    eps: float,
    seed: int = 0,
    ell_t: int | None = None,
    ell_l: int | None = None,
    max_doublings: int = 6,
) -> tuple[BoundReport, BoundReport]:
    """Pointwise bounds from a Frequent Directions row-space sketch.

    * projection distance: with mu <= eps^2 * Delta (eps < 1/3),
      ``|T^k(i) - ~T^k(i)| <= eps * |a_i|^2`` for every row.
    * rank-k leverage: with mu <= eps^3 k^2 / (1000 sr^3 kappa^4) and
      eps within the theorem's parameter window,
      ``|L^k(i) - ~L^k(i)| <= eps k |a_i|^2 / ||A||_F^2``.

    The leverage theorem's proof invokes a lower bound on mu where its
    statement needs an upper bound; the checker follows the statement and
    records ``mu_regime="upper-bound reading"`` in the inputs.
    """
    a = as_matrix(a, "A")
    info = _spectrum_info(a, k)
    delta, kappa, sr = info["delta"], info["kappa"], info["sr"]
    row_sq = np.einsum("ij,ij->i", a, a)
    nonzero = row_sq > 0
    lev_exact, proj_exact = _rowspace_estimates(a, row_sq, a, k)

    def build(mu_target: float, ell0: int | None) -> tuple[np.ndarray, float, int]:
        ell = ell0 or fd_ell_for_mu(mu_target, info["tail_sr"], k)
        ell = max(ell, k + 1)
        sketch, mu = None, np.inf
        for _ in range(max_doublings + 1):
            sketch = fd_ingest(a, ell).sketch()
            mu = measured_mu_rowspace(a, sketch)
            if mu <= mu_target or ell >= a.shape[0]:
                break
            ell *= 2
        return sketch, mu, ell

    common = dict(
        n=a.shape[0],
        d=a.shape[1],
        k=k,
        delta=delta,
        kappa_k=kappa,
        sr=sr,
        epsilon=eps,
        seed=seed,
    )

    mu_t_target = mu_for_pointwise_t(eps, delta)
    sketch_t, mu_t, used_ell_t = build(mu_t_target, ell_t)
    _, proj_t = _rowspace_estimates(a, row_sq, sketch_t, k)
    lhs_t = float(
        np.max(np.abs(proj_exact[nonzero] - proj_t[nonzero]) / row_sq[nonzero])
    )
    report_t = _report(
        "pointwise-projection",
        lhs_t,
        eps,
        delta > 0 and eps < 1.0 / 3.0 and mu_t <= mu_t_target,
        ell=used_ell_t,
        mu=mu_t,
        mu_target=mu_t_target,
        **common,
    )

    mu_l_target = mu_for_pointwise_l(eps, k, sr, kappa)
    sketch_l, mu_l, used_ell_l = build(mu_l_target, ell_l)
    lev_l, _ = _rowspace_estimates(a, row_sq, sketch_l, k)
    scale = info["frob_sq"] / k
    lhs_l = float(
        np.max(np.abs(lev_exact[nonzero] - lev_l[nonzero]) * scale / row_sq[nonzero])
    )
    eps_window = eps <= min(kappa * delta, 1.0 / k) * sr * kappa
    report_l = _report(
        "pointwise-leverage",
        lhs_l,
        eps,
        delta > 0 and eps_window and mu_l <= mu_l_target,
        ell=used_ell_l,
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
    whose residual is recorded in the report inputs.
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

    sigma_sq = svd_thin(a).values ** 2
    head = float(sigma_sq[:p].sum())
    total = float(sigma_sq.sum())
    baseline = max(total - head, 0.0)

    lhs = float(np.sum((a - approx) ** 2))
    rhs = baseline + eps * head
    captured = float(np.sum(aw**2))
    identity_rhs = baseline + (head - captured)
    identity_residual = abs(lhs - identity_rhs) / max(1.0, total)
    numeric_rank_p = p * total / head if head > 0 else np.inf
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
        numeric_rank_p=numeric_rank_p,
    )


# --- seeded sweeps (shared by the CLI `verify` command and tests) --------


def sweep_weyl(num_seeds: int, n: int = 120, d: int = 40, base_seed: int = 0):
    reports = []
    for s in range(num_seeds):
        rng = np.random.default_rng(base_seed + s)
        c = rng.standard_normal((n, d))
        scale = 10.0 ** rng.uniform(-3, 0)
        noise = scale * rng.standard_normal((n, d))
        reports.append(check_weyl(c, noise, seed=base_seed + s))
    return reports


def _perturbed_separated(
    n: int, d: int, k: int, seed: int, mu_fraction_of_max: float, mu_max_fn
):
    """Separated instance plus perturbation with measured mu under a cap.

    ``mu_max_fn(delta, kappa)`` gives the theorem's precondition ceiling;
    the perturbation is retried at half strength until the measured mu
    fits under it, so sweep instances are applicable by construction.
    """
    a = separated_matrix(n, d, k, seed, delta=0.5, kappa=1.3, tail_sr=0.05)
    info = _spectrum_info(a, k)
    cap = mu_max_fn(info["delta"], info["kappa"])
    target = mu_fraction_of_max * cap
    at = additive_perturbation(a, target, seed + 1)
    for _ in range(8):
        if measured_mu_colspace(a, at) <= cap:
            break
        target *= 0.5
        at = additive_perturbation(a, target, seed + 1)
    return a, at


def sweep_projector(
    num_seeds: int,
    n: int = 120,
    d: int = 40,
    k_values: tuple[int, ...] = (2, 5),
    base_seed: int = 0,
):
    reports = []
    for s in range(num_seeds):
        for k in k_values:
            a, at = _perturbed_separated(
                n, d, k, base_seed + 1000 * s + k, 0.6, lambda delta, kappa: delta / 6
            )
            reports.append(check_projector(a, at, k, seed=base_seed + s))
    return reports


def sweep_sigma_weighted(
    num_seeds: int,
    mode: str,
    n: int = 120,
    d: int = 40,
    k_values: tuple[int, ...] = (2, 5),
    base_seed: int = 0,
):
    reports = []
    for s in range(num_seeds):
        for k in k_values:
            if mode == "squared":
                cap_fn = lambda delta, kappa, k=k: min(
                    delta**3 * k**2, 1.0 / (20.0 * k)
                )
            else:
                cap_fn = lambda delta, kappa, k=k: min(
                    delta**3 * (k * kappa) ** 2, 1.0 / (20.0 * k * kappa)
                )
            # Log-spread targets over the sweep, from 1e-6 up to half the cap.
            frac = 10.0 ** (-6.0 + 5.7 * (s / max(num_seeds - 1, 1)))
            a, at = _perturbed_separated(
                n,
                d,
                k,
                base_seed + 2000 * s + k,
                min(frac, 0.5),
                cap_fn,
            )
            reports.append(check_sigma_weighted(a, at, k, mode, seed=base_seed + s))
    return reports


def sweep_diag_dominance(num_seeds: int, n: int = 40, base_seed: int = 0):
    reports = []
    for s in range(num_seeds):
        rng = np.random.default_rng(base_seed + s)
        kind = s % 3
        if kind == 0:
            g = rng.standard_normal((n, n))
            m = g + g.T
        elif kind == 1:
            rank = int(rng.integers(1, 6))
            g = rng.standard_normal((n, rank))
            m = g @ g.T
        else:
            v = rng.standard_normal(n)
            m = np.outer(v, v)
        reports.append(check_diag_dominance(m, seed=base_seed + s))
    return reports


def sweep_pointwise(
    num_seeds: int,
    eps: float = 0.2,
    n: int = 200,
    d: int = 40,
    k: int = 3,
    base_seed: int = 0,
):
    reports = []
    for s in range(num_seeds):
        a = separated_matrix(
            n, d, k, base_seed + s, delta=0.3, kappa=1.15, tail_sr=5e-5
        )
        t_rep, l_rep = check_pointwise_guarantees(a, k, eps, seed=base_seed + s)
        reports.extend([t_rep, l_rep])
    return reports


def sweep_average(
    num_seeds: int,
    eps: float = 0.25,
    kind: str = "rproj",
    n: int = 200,
    d: int = 30,
    k: int = 2,
    base_seed: int = 0,
    independence_w: int = 8,
):
    reports = []
    for s in range(num_seeds):
        a = separated_matrix(
            n, d, k, base_seed + s, delta=0.7, kappa=1.05, tail_sr=0.05
        )
        l_rep, t_rep = check_average_guarantees(
            a, k, kind, eps, seed=base_seed + s, independence_w=independence_w
        )
        reports.extend([l_rep, t_rep])
    return reports


def sweep_low_rank(
    num_seeds: int,
    eps: float = 0.3,
    n: int = 300,
    d: int = 60,
    p: int = 5,
    k_proj: int = 200,
    base_seed: int = 0,
):
    reports = []
    for s in range(num_seeds):
        a = separated_matrix(
            n, d, p, base_seed + s, delta=0.6, kappa=1.2, tail_sr=0.08
        )
        reports.append(check_low_rank_approx(a, p, k_proj, base_seed + s, eps))
    return reports


SUITES = (
    "weyl",
    "projector",
    "sigma-squared",
    "sigma-inverse",
    "diag",
    "pointwise",
    "average",
    "lowrank",
)


def run_suite(
    name: str,
    num_seeds: int,
    base_seed: int = 0,
    eps: float | None = None,
) -> list[BoundReport]:
    """Run one named sweep (or all of them) and return the reports."""
    if name == "all":
        reports = []
        for suite in SUITES:
            reports.extend(run_suite(suite, num_seeds, base_seed, eps))
        return reports
    if name == "weyl":
        return sweep_weyl(num_seeds, base_seed=base_seed)
    if name == "projector":
        return sweep_projector(num_seeds, base_seed=base_seed)
    if name == "sigma-squared":
        return sweep_sigma_weighted(num_seeds, "squared", base_seed=base_seed)
    if name == "sigma-inverse":
        return sweep_sigma_weighted(num_seeds, "inverse-squared", base_seed=base_seed)
    if name == "diag":
        return sweep_diag_dominance(num_seeds, base_seed=base_seed)
    if name == "pointwise":
        return sweep_pointwise(num_seeds, eps=eps or 0.2, base_seed=base_seed)
    if name == "average":
        return sweep_average(num_seeds, eps=eps or 0.25, base_seed=base_seed)
    if name == "lowrank":
        return sweep_low_rank(num_seeds, eps=eps or 0.3, base_seed=base_seed)
    raise ValueError(f"unknown suite {name!r}")

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sketch_anomaly.linalg import operator_norm
from sketch_anomaly.sketches import SignProjector
from sketch_anomaly.synth import additive_perturbation, separated_matrix
from sketch_anomaly.verify import (
    SUITES,
    check_average_guarantees,
    check_diag_dominance,
    check_projector,
    check_sigma_weighted,
    check_weyl,
    measured_mu_rowspace,
    run_suite,
)

EXPECTED_NAMES = {
    "weyl": ["weyl"],
    "projector": ["projector-closeness"] * 2,
    "sigma-squared": ["sigma-weighted-squared"] * 2,
    "sigma-inverse": ["sigma-weighted-inverse-squared"] * 2,
    "diag": ["diagonal-dominance"],
    "pointwise": ["pointwise-projection", "pointwise-leverage"],
    "lowrank": ["low-rank-approx"],
}


def test_suite_table_lists_every_suite_in_order():
    assert SUITES == (
        "weyl",
        "projector",
        "sigma-squared",
        "sigma-inverse",
        "diag",
        "pointwise",
        "average",
        "lowrank",
    )


# ``average`` takes ~7 s per seed (ell ~ 7.5e5); its check is tested on a
# small instance below.
@pytest.mark.parametrize("suite", sorted(EXPECTED_NAMES))
def test_suite_one_seed_names_and_passes(suite):
    reports = run_suite(suite, 1)
    assert [r.bound_name for r in reports] == EXPECTED_NAMES[suite]
    assert all(r.applicable for r in reports)
    assert all(r.passed for r in reports)
    assert run_suite(suite, 1) == reports


@pytest.mark.parametrize("suite", sorted(EXPECTED_NAMES))
def test_run_suite_is_one_loop_over_seeds(suite):
    names = EXPECTED_NAMES[suite]
    reports = run_suite(suite, 3, base_seed=7)
    assert len(reports) == 3 * len(names)
    groups = [reports[i : i + len(names)] for i in range(0, len(reports), len(names))]
    for seed, group in zip((7, 8, 9), groups):
        assert [r.bound_name for r in group] == names
        assert [r.inputs["seed"] for r in group] == [seed] * len(names)


def test_column_space_mu_is_row_space_mu_of_the_transposes():
    rng = np.random.default_rng(21)
    a = rng.standard_normal((30, 9))
    at = a + 0.05 * rng.standard_normal((30, 9))
    # The column-space error ||A A^T - At At^T|| / sigma_1(A)^2, formed as
    # the column-space checkers used to form it.
    colspace = operator_norm(a @ a.T - at @ at.T) / operator_norm(a) ** 2
    assert measured_mu_rowspace(a.T, at.T) == colspace
    reference = np.linalg.norm(a @ a.T - at @ at.T, 2) / np.linalg.norm(a, 2) ** 2
    assert colspace == pytest.approx(reference, rel=1e-10)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps": 0.0},
        {"eps": -0.5},
        {"eps": float("nan")},
        {"eps": float("inf")},
        {"eps": 1.0},
        {"eps": 1e200},
    ],
)
def test_run_suite_rejects_bad_epsilon(kwargs):
    with pytest.raises(ValueError, match="epsilon"):
        run_suite("weyl", 1, **kwargs)


def test_run_suite_rejects_bad_seed_count_and_name():
    with pytest.raises(ValueError, match="seed count"):
        run_suite("weyl", 0)
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus", 1)


# C of any rank up to min(n, d), with noise down to 1e-9 * the scale of C:
# a zero singular value of C must read as zero, not as a rounding floor.
# The pinned example is a rank-2 C with ||N|| = 2.1e-8, below the ~1e-7
# at which a Gram route resolves a zero singular value.
@settings(max_examples=50)
@given(
    n=st.integers(2, 30),
    d=st.integers(2, 30),
    rank=st.integers(1, 30),
    log_scale=st.floats(-9.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=26, d=20, rank=2, log_scale=-8.631238284574248, seed=1000000)
def test_weyl_holds_on_random_inputs(n, d, rank, log_scale, seed):
    rng = np.random.default_rng(seed)
    rank = min(rank, n, d)
    c = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, d))
    noise = 10.0**log_scale * rng.standard_normal((n, d))
    report = check_weyl(c, noise, seed=seed)
    assert report.applicable and report.passed


@settings(max_examples=30)
@given(
    n=st.integers(1, 30),
    kind=st.sampled_from(["indefinite", "low-rank", "rank-one"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_diag_dominance_holds_on_random_inputs(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "indefinite":
        g = rng.standard_normal((n, n))
        m = g + g.T
    elif kind == "low-rank":
        g = rng.standard_normal((n, int(rng.integers(1, n + 1))))
        m = g @ g.T
    else:
        v = rng.standard_normal(n)
        m = np.outer(v, v)
    report = check_diag_dominance(m, seed=seed)
    assert report.applicable and report.passed


def test_projector_of_identical_matrices_is_zero():
    a = separated_matrix(60, 12, 2, 0, delta=0.7, kappa=1.05, tail_sr=0.05)
    report = check_projector(a, a, 2)
    assert report.inputs["mu"] == 0.0
    assert report.lhs == pytest.approx(0.0, abs=1e-12)
    assert report.applicable and report.passed


def test_sigma_weighted_lhs_matches_svd_reference():
    # ||U_k W U_k^T - ~U_k W ~U_k^T||_2, with W from the true top-k spectrum
    # of A in both terms.
    k = 2
    a = separated_matrix(120, 40, k, 5, delta=0.5, kappa=1.3, tail_sr=0.05)
    at = additive_perturbation(a, 1e-3, 6)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    ut = np.linalg.svd(at, full_matrices=False)[0]
    for mode, w in (("squared", s[:k] ** 2), ("inverse-squared", s[:k] ** -2.0)):
        report = check_sigma_weighted(a, at, k, mode, seed=5)
        gap = (u[:, :k] * w) @ u[:, :k].T - (ut[:, :k] * w) @ ut[:, :k].T
        assert report.bound_name == f"sigma-weighted-{mode}"
        assert report.lhs == pytest.approx(np.linalg.norm(gap, 2), rel=1e-9)
        assert report.applicable and report.passed
    with pytest.raises(ValueError, match="mode must be"):
        check_sigma_weighted(a, at, k, "cubed")


def test_average_lhs_matches_column_space_form():
    k, eps, seed = 2, 0.9, 3
    a = separated_matrix(60, 12, k, 0, delta=0.7, kappa=1.05, tail_sr=0.05)
    rep_l, rep_t = check_average_guarantees(a, k, eps, seed=seed)
    assert rep_l.inputs["sketch_kind"] == "rproj"
    assert rep_l.inputs["ell"] == rep_t.inputs["ell"] > 2000

    # Column-space form: row norms of the top-k left factors of A and of
    # the eigenvectors of the sketch covariance A R R^T A^T.
    row_sq = np.einsum("ij,ij->i", a, a)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    lev = (u[:, :k] ** 2).sum(axis=1)
    proj = row_sq - ((u[:, :k] * s[:k]) ** 2).sum(axis=1)
    ell = rep_l.inputs["ell"]
    cov = a @ (SignProjector(seed, ell, a.shape[1]).sign_gram(0, ell) / ell) @ a.T
    lam, vecs = np.linalg.eigh(cov)
    top = np.argsort(lam)[::-1][:k]
    ut, sig = vecs[:, top], np.sqrt(np.clip(lam[top], 0.0, None))
    lev_t = (ut**2).sum(axis=1)
    proj_t = row_sq - ((ut * sig) ** 2).sum(axis=1)

    assert rep_l.lhs == pytest.approx(np.abs(lev - lev_t).sum(), rel=1e-9)
    assert rep_t.lhs == pytest.approx(np.abs(proj - proj_t).sum(), rel=1e-9)
    assert rep_l.applicable and rep_l.passed

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketch_anomaly.synth import (
    additive_perturbation,
    planted_anomaly_dataset,
    separated_matrix,
    separated_spectrum,
    spectral_matrix,
)


def test_generators_are_pure_functions_of_their_seed():
    runs = [
        lambda s: spectral_matrix(9, 5, np.array([3.0, 2.0, 1.0]), s),
        lambda s: separated_matrix(20, 8, 2, s),
        lambda s: additive_perturbation(np.eye(4), 0.1, s),
        lambda s: planted_anomaly_dataset(50, 25, 2, s)[0],
        lambda s: planted_anomaly_dataset(50, 25, 2, s)[1],
    ]
    for make in runs:
        assert make(4).tobytes() == make(4).tobytes()
        assert make(4).tobytes() != make(5).tobytes()


def test_spectral_matrix_has_the_given_singular_values():
    sigma = np.array([5.0, 2.0, 2.0, 0.5])
    a = spectral_matrix(12, 7, sigma, seed=3)
    s = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(s[:4], sigma, rtol=1e-12)
    np.testing.assert_allclose(s[4:], 0.0, atol=1e-12)


def test_spectral_matrix_rejects_bad_spectra():
    with pytest.raises(ValueError):
        spectral_matrix(4, 3, np.array([1.0, 2.0]), 0)
    with pytest.raises(ValueError):
        spectral_matrix(4, 3, np.ones(4), 0)


@settings(max_examples=60)
@given(
    st.integers(3, 60),
    st.data(),
    st.floats(0.05, 0.95),
    st.floats(1.0, 3.0),
    st.floats(1e-6, 5.0),
)
def test_separated_spectrum_gap(m, data, delta_share, kappa, tail_sr):
    k = data.draw(st.integers(1, m - 1))
    delta = delta_share / kappa
    sq = separated_spectrum(m, k, delta=delta, kappa=kappa, tail_sr=tail_sr) ** 2
    assert sq.shape == (m,)
    assert np.all(np.diff(sq) <= 1e-15)
    assert sq[0] == 1.0
    head_floor = 1.0 / kappa if k > 1 else 1.0
    assert sq[k - 1] == pytest.approx(head_floor, rel=1e-15)
    cap = 1.0 / kappa - delta
    weights = 0.6 ** np.arange(m - k)
    first = tail_sr / weights.sum()
    if first > cap:
        # The cap binds: sigma_{k+1}^2 sits on it.
        assert sq[k] == pytest.approx(cap, rel=1e-12)
    else:
        # Unscaled tail: total mass tail_sr.
        assert sq[k:].sum() == pytest.approx(tail_sr, rel=1e-12)
        assert sq[k] == pytest.approx(first, rel=1e-12)
    gap = sq[k - 1] - sq[k]
    assert gap >= delta * (1 - 1e-12)
    # Exactly the requested gap only where the cap binds and k >= 2.
    assert gap == pytest.approx(head_floor - min(first, cap), rel=1e-12, abs=1e-15)


def test_separated_spectrum_validation():
    with pytest.raises(ValueError):
        separated_spectrum(5, 5)
    with pytest.raises(ValueError):
        separated_spectrum(5, 2, delta=0.9, kappa=1.3)


def test_planted_anomaly_dataset_shape_and_mask():
    x, planted = planted_anomaly_dataset(200, 30, 3, seed=2, anomaly_fraction=0.05)
    assert x.shape == (200, 30) and planted.dtype == bool
    assert planted.sum() == 10
    norms = np.linalg.norm(x, axis=1)
    assert norms[planted].min() > np.median(norms[~planted])
    with pytest.raises(ValueError):
        planted_anomaly_dataset(10, 5, 3, seed=0)


@pytest.mark.parametrize(
    "n, k, name", [(50, 0, "k"), (50, -1, "k"), (0, 2, "n"), (-5, 2, "n")]
)
def test_planted_anomaly_dataset_rejects_empty_shapes(n, k, name):
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {min(n, k)}$"):
        planted_anomaly_dataset(n, 30, k, seed=0)


@pytest.mark.parametrize("name", ["noise_scale", "anomaly_scale"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan"), -1.0, -1e-300])
def test_planted_dataset_rejects_non_finite_or_negative_scales(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative"):
        planted_anomaly_dataset(50, 40, 2, 0, **{name: value})


def test_planted_dataset_accepts_zero_scales():
    x, planted = planted_anomaly_dataset(50, 40, 2, 0, noise_scale=0.0, anomaly_scale=0.0)
    assert np.isfinite(x).all() and planted.sum() == 1
    assert np.linalg.matrix_rank(x) == 2

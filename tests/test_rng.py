import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sketch_anomaly import rng
from sketch_anomaly.rng import MERSENNE61, mix64, mod61, mulmod61, seed64, uniform01

P = int(MERSENNE61)
words = st.integers(0, 2**64 - 1)


@settings(max_examples=60, deadline=None)
@given(words, words, st.lists(words, min_size=1, max_size=20))
def test_mix64_is_a_pure_broadcasting_function(seed, lane, positions):
    pos = np.array(positions, dtype=np.uint64)
    batch = mix64(seed, lane, pos)
    assert batch.dtype == np.uint64 and batch.shape == pos.shape
    assert batch.tobytes() == mix64(seed, lane, pos).tobytes()
    single = [int(mix64(seed, lane, np.uint64(p))) for p in positions]
    assert batch.tolist() == single


def test_lanes_and_positions_give_distinct_streams():
    pos = np.arange(1000, dtype=np.uint64)
    a, b, c = mix64(7, 1, pos), mix64(7, 2, pos), mix64(8, 1, pos)
    assert len(set(a.tolist())) == 1000
    assert not np.any(a == b) and not np.any(a == c)


@settings(max_examples=60, deadline=None)
@given(words, words, st.lists(words, min_size=1, max_size=20))
def test_uniform01_in_unit_interval(seed, lane, positions):
    u = uniform01(seed, lane, np.array(positions, dtype=np.uint64))
    assert u.dtype == np.float64
    assert np.all((u >= 0.0) & (u < 1.0))
    assert u.tobytes() == uniform01(seed, lane, np.array(positions, dtype=np.uint64)).tobytes()


def test_uniform01_extremes_stay_below_one(monkeypatch):
    for bits, expected in ((2**64 - 1, 1.0 - 2.0**-53), (0, 0.0), (2**11 - 1, 0.0)):
        monkeypatch.setattr(rng, "mix64", lambda *w, b=bits: np.uint64(b))
        assert uniform01(0) == expected


def test_uniform01_is_roughly_uniform():
    u = uniform01(3, 4, np.arange(20000, dtype=np.uint64))
    counts = np.histogram(u, bins=10, range=(0.0, 1.0))[0]
    assert np.all(np.abs(counts - 2000) < 200)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, P - 1), st.integers(0, P - 1), words)
def test_field_arithmetic_matches_python_ints(a, b, x):
    assert int(mulmod61(np.uint64(a), np.uint64(b))) == a * b % P
    assert int(mod61(np.uint64(x))) == x % P


def test_field_arithmetic_edges():
    edges = np.array([0, 1, P - 1, P, P + 1, 2**61, 2**64 - 1], dtype=np.uint64)
    assert mod61(edges).tolist() == [int(e) % P for e in edges.tolist()]
    top = np.uint64(P - 1)
    assert int(mulmod61(top, top)) == (P - 1) ** 2 % P


def test_seed64_wraps_into_u64():
    assert seed64(-1) == 2**64 - 1
    assert seed64(2**64 + 5) == 5
    assert seed64(np.int64(-2)) == 2**64 - 2
    assert seed64(12) == 12

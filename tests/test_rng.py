import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sketch_anomaly import rng
from sketch_anomaly.rng import MERSENNE61, mix64, polyval61, seed64, uniform01

P = int(MERSENNE61)
words = st.integers(0, 2**64 - 1)
field = st.integers(0, P - 1)
EDGES = [0, 1, P - 1, P, P + 1, 2**61, 2**64 - 1]
CHUNK = rng._POLY_CHUNK


@settings(max_examples=60)
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


@settings(max_examples=60)
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


def horner(coefficients, x: int) -> int:
    acc = 0
    for c in reversed(coefficients):
        acc = (acc * x + c) % P
    return acc


@settings(max_examples=100)
@given(field, field)
def test_field_arithmetic_matches_python_ints(a, b):
    assert int(polyval61([0, a], np.uint64(b))) == a * b % P


def test_field_arithmetic_edges():
    top = np.uint64(P - 1)
    assert int(polyval61([0, P - 1], top)) == (P - 1) ** 2 % P


@settings(max_examples=30)
@given(
    coefficients=st.one_of(
        st.lists(field, min_size=2, max_size=32),
        st.integers(2, 32).map(lambda n: [P - 1] * n),
    ),
    start=words,
    drawn=st.lists(words, max_size=6),
    length=st.sampled_from([1, 2, 9, CHUNK - 1, CHUNK, CHUNK + 1]),
)
def test_polyval61_matches_python_horner(coefficients, start, drawn, length):
    # A run of consecutive u64 positions from a random start, wrapping at
    # 2**64, with the edge cases and drawn words at both ends.
    positions = [(start + i) % 2**64 for i in range(length)]
    special = (EDGES + drawn)[:length]
    positions[: len(special)] = special
    positions[len(positions) - len(special) :] = special
    got = polyval61(np.array(coefficients, dtype=np.uint64),
                    np.array(positions, dtype=np.uint64))
    assert got.dtype == np.uint64 and got.shape == (length,)
    assert got.tolist() == [horner(coefficients, x % P) for x in positions]


def test_polyval61_keeps_the_shape_of_x():
    x = np.arange(3 * (CHUNK // 2 + 1), dtype=np.uint64).reshape(3, -1)
    coefficients = [5, P - 1, 7]
    got = polyval61(coefficients, x)
    assert got.shape == x.shape
    assert got.ravel().tolist() == [horner(coefficients, v) for v in range(x.size)]


def test_seed64_wraps_into_u64():
    assert seed64(-1) == 2**64 - 1
    assert seed64(2**64 + 5) == 5
    assert seed64(np.int64(-2)) == 2**64 - 2
    assert seed64(12) == 12

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sketch_anomaly.errors import DataFormatError
from sketch_anomaly.io import (
    KIND_COLUMN_PLAN,
    KIND_FD_STATE,
    KIND_MATRIX,
    load_csv,
    load_matrix,
    load_snapshot,
    save_csv,
    save_snapshot,
)
from sketch_anomaly.sketches import (
    ColumnSamplePlan,
    FrequentDirections,
    column_sample_plan,
    fd_ingest,
)

HEADER = struct.Struct("<4sHBBQQQ")

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
seeds = st.integers(-(2**63), 2**64 - 1)


def matrices(max_side=6):
    shapes = hnp.array_shapes(min_dims=2, max_dims=2, max_side=max_side)
    return hnp.arrays(np.float64, shapes, elements=finite)


def gaussian(seed: int, n: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, d))


def resave(path, obj) -> bytes:
    """Bytes of ``obj`` saved to a sibling of ``path``."""
    again = path.with_suffix(".again")
    save_snapshot(again, obj)
    return again.read_bytes()


def header_seed(path) -> int:
    return HEADER.unpack_from(path.read_bytes())[-1]


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_matrix_snapshot_round_trip(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("io") / "m.bin"
    save_snapshot(path, matrix)
    assert header_seed(path) == 0
    loaded = load_snapshot(path)
    assert loaded.tobytes() == np.ascontiguousarray(matrix).tobytes()
    assert resave(path, loaded) == path.read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 6),
       st.integers(1, 5))
def test_fd_snapshot_round_trip(tmp_path_factory, data_seed, n, d, ell):
    fd = fd_ingest(gaussian(data_seed, n, d), ell)
    path = tmp_path_factory.mktemp("io") / "fd.bin"
    save_snapshot(path, fd)
    assert header_seed(path) == 0
    loaded = load_snapshot(path)
    assert isinstance(loaded, FrequentDirections)
    assert (loaded.ell, loaded.dim, loaded.fill, loaded.shrink_count) == (
        fd.ell, fd.dim, fd.fill, fd.shrink_count,
    )
    assert loaded.buffer.tobytes() == fd.buffer.tobytes()
    assert resave(path, loaded) == path.read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6),
       st.integers(1, 9), seeds)
def test_column_plan_snapshot_round_trip(tmp_path_factory, data_seed, n, d, ell, seed):
    plan = column_sample_plan(gaussian(data_seed, n, d), ell, seed)
    path = tmp_path_factory.mktemp("io") / "plan.bin"
    save_snapshot(path, plan)
    loaded = load_snapshot(path)
    assert isinstance(loaded, ColumnSamplePlan)
    assert loaded.seed == seed % 2**64 == plan.seed
    assert (loaded.ell, loaded.dim, loaded.entries_seen) == (ell, d, n * d)
    assert loaded.running_mass == plan.running_mass
    assert loaded.indices.tobytes() == plan.indices.tobytes()
    assert loaded.column_masses.tobytes() == plan.column_masses.tobytes()
    assert resave(path, loaded) == path.read_bytes()


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_csv_round_trip(tmp_path_factory, matrix):
    path = tmp_path_factory.mktemp("io") / "m.csv"
    save_csv(path, matrix)
    loaded = load_csv(path)
    assert loaded.tobytes() == np.ascontiguousarray(matrix).tobytes()
    again = path.with_suffix(".again")
    save_csv(again, loaded)
    assert again.read_bytes() == path.read_bytes()


def snapshot_blob(tmp_path, kind: int) -> bytes:
    """A valid snapshot of each kind, as bytes."""
    a = gaussian(3, 12, 4)
    obj = {
        KIND_MATRIX: a,
        KIND_FD_STATE: fd_ingest(a, 3),
        KIND_COLUMN_PLAN: column_sample_plan(a, 5, 8),
    }[kind]
    path = tmp_path / "snap.bin"
    save_snapshot(path, obj)
    return path.read_bytes()


def load_blob(tmp_path, blob: bytes):
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    return load_snapshot(path)


KINDS = [KIND_MATRIX, KIND_FD_STATE, KIND_COLUMN_PLAN]


@pytest.mark.parametrize("kind", KINDS)
def test_every_truncation_is_data_error(tmp_path, kind):
    blob = snapshot_blob(tmp_path, kind)
    for cut in range(len(blob)):
        with pytest.raises(DataFormatError, match="truncated"):
            load_blob(tmp_path, blob[:cut])


@pytest.mark.parametrize("kind", KINDS)
def test_truncated_header_and_payload(tmp_path, kind):
    blob = snapshot_blob(tmp_path, kind)
    with pytest.raises(DataFormatError, match="truncated snapshot header"):
        load_blob(tmp_path, blob[: HEADER.size - 1])
    with pytest.raises(DataFormatError, match="truncated payload"):
        load_blob(tmp_path, blob[:-1])


def patched_header(blob: bytes, **fields) -> bytes:
    names = ("magic", "version", "kind", "flags", "ell", "dim", "seed")
    values = dict(zip(names, HEADER.unpack_from(blob)))
    values.update(fields)
    return HEADER.pack(*(values[n] for n in names)) + blob[HEADER.size:]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"magic": b"NAKS"}, "bad magic"),
        ({"version": 2}, "unsupported snapshot version 2"),
        ({"version": 0}, "unsupported snapshot version 0"),
        ({"kind": 3}, "unknown snapshot kind 3"),
        ({"kind": 255}, "unknown snapshot kind 255"),
    ],
)
@pytest.mark.parametrize("kind", KINDS)
def test_corrupt_header_is_data_error(tmp_path, kind, fields, message):
    blob = patched_header(snapshot_blob(tmp_path, kind), **fields)
    with pytest.raises(DataFormatError, match=message):
        load_blob(tmp_path, blob)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataFormatError):
        load_snapshot(tmp_path / "absent.bin")


@pytest.mark.parametrize("fmt", ["bin", "csv"])
def test_load_matrix_returns_a_fresh_writable_float64_array(tmp_path, fmt):
    a = gaussian(9, 7, 5)
    path = tmp_path / f"m.{fmt}"
    (save_snapshot if fmt == "bin" else save_csv)(path, a)
    loaded = load_matrix(path, fmt=fmt)
    assert loaded.dtype == np.float64
    assert loaded.flags.c_contiguous and loaded.flags.writeable
    assert loaded.tobytes() == a.tobytes()
    loaded[0, 0] = 1.0
    assert load_matrix(path, fmt=fmt)[0, 0] == a[0, 0]


@pytest.mark.parametrize("kind", KINDS)
def test_payload_is_read_in_one_copy(tmp_path, monkeypatch, kind):
    # Every payload array goes from the file into the returned object:
    # neither a bytes object of the whole file nor a second array is made.
    blob = snapshot_blob(tmp_path, kind)
    path = tmp_path / "snap.bin"

    def no_read_bytes(self):
        raise AssertionError("whole file read into bytes")

    monkeypatch.setattr(type(path), "read_bytes", no_read_bytes)
    monkeypatch.setattr(np, "frombuffer", None)
    loaded = load_snapshot(path)
    monkeypatch.undo()
    assert resave(path, loaded) == blob


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_matrix_payload_is_data_error(tmp_path, value):
    blob = bytearray(snapshot_blob(tmp_path, KIND_MATRIX))
    struct.pack_into("<d", blob, HEADER.size + 8 * 29, value)
    path = tmp_path / "nan.bin"
    path.write_bytes(bytes(blob))
    for load in (load_snapshot, lambda p: load_matrix(p, fmt="bin")):
        with pytest.raises(DataFormatError, match="non-finite value in payload"):
            load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_huge_header_is_truncation_not_allocation(tmp_path, kind):
    blob = patched_header(snapshot_blob(tmp_path, kind), ell=2**40, dim=2**20)
    with pytest.raises(DataFormatError, match="truncated payload"):
        load_blob(tmp_path, blob)

"""Matrix loading and the binary snapshot container.

Snapshot format (little-endian):

    magic   4 bytes  b"SKAN"
    version u16      currently 1
    kind    u8       0 = matrix, 1 = frequent-directions state,
                     2 = column-sampling plan
    flags   u8       reserved, 0
    ell     u64      sketch size (= row count for kind 0)
    dim     u64      column count
    seed    u64      sampler seed (0 where not meaningful)

followed by a kind-specific payload of u64 counters and row-major float64
data.  Snapshots let multi-pass CLI runs persist pass-0/pass-1 state and
resume in a separate invocation; byte-for-byte round-trips are part of the
contract.

``load_snapshot`` reads every payload array of every kind through
``_read``: a check that the file holds it, then one read straight from the
file into a new array, then one finiteness check of float data.
"""

from __future__ import annotations

import csv
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError
from .linalg import as_matrix
from .rng import seed64
from .sketches import ColumnSamplePlan, FrequentDirections

SNAPSHOT_MAGIC = b"SKAN"
SNAPSHOT_VERSION = 1

KIND_MATRIX = 0
KIND_FD_STATE = 1
KIND_COLUMN_PLAN = 2

_HEADER = struct.Struct("<4sHBBQQQ")


def _pack_header(kind: int, ell: int, dim: int, seed: int) -> bytes:
    return _HEADER.pack(
        SNAPSHOT_MAGIC, SNAPSHOT_VERSION, kind, 0, ell, dim, seed64(seed)
    )


def _unpack_header(blob: bytes, path: str):
    if len(blob) < _HEADER.size:
        raise DataFormatError(f"{path}: truncated snapshot header")
    magic, version, kind, _flags, ell, dim, seed = _HEADER.unpack_from(blob)
    if magic != SNAPSHOT_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}")
    if version != SNAPSHOT_VERSION:
        raise DataFormatError(f"{path}: unsupported snapshot version {version}")
    return kind, ell, dim, seed


def _read(handle, shape: tuple[int, ...], dtype: str, path: str) -> np.ndarray:
    """The next ``shape`` array of ``dtype`` in the file, read straight from
    the file into one new array; a float array is checked finite."""
    data_type = np.dtype(dtype)
    size = data_type.itemsize * math.prod(shape)
    # Checked against the bytes left in the file before allocating, so a
    # corrupt header reads as truncation rather than as an allocation failure.
    start = handle.tell()
    if handle.seek(0, 2) - start < size:
        raise DataFormatError(f"{path}: truncated payload")
    # With a zero dimension the payload is empty whatever the others say;
    # numpy refuses a dimension whose bytes overflow its index type.  Only
    # a matrix header can give a zero dimension: the sketch kinds reject
    # ell or dim below 1 before reading.
    if data_type.itemsize * max(shape) > np.iinfo(np.intp).max:
        raise DataFormatError(
            f"{path}: matrix header dimension too large "
            f"({' x '.join(map(str, shape))})"
        )
    handle.seek(start)
    data = np.empty(shape, dtype=data_type)
    if handle.readinto(data) != size:
        raise DataFormatError(f"{path}: truncated payload")
    if data_type.kind == "f" and not np.isfinite(data).all():
        raise DataFormatError(f"{path}: non-finite value in payload")
    return data


def save_snapshot(path, obj) -> None:
    """Write a matrix, FD state, or column plan to a snapshot file."""
    path = Path(path)
    if isinstance(obj, FrequentDirections):
        head = _pack_header(KIND_FD_STATE, obj.ell, obj.dim, 0)
        counters = struct.pack("<QQ", obj.fill, obj.shrink_count)
        body = obj.buffer.astype("<f8").tobytes()
        path.write_bytes(head + counters + body)
    elif isinstance(obj, ColumnSamplePlan):
        head = _pack_header(KIND_COLUMN_PLAN, obj.ell, obj.dim, obj.seed)
        counters = struct.pack("<Qd", obj.entries_seen, obj.running_mass)
        body = (
            obj.indices.astype("<u8").tobytes()
            + obj.column_masses.astype("<f8").tobytes()
        )
        path.write_bytes(head + counters + body)
    else:
        mat = as_matrix(obj)
        head = _pack_header(KIND_MATRIX, mat.shape[0], mat.shape[1], 0)
        path.write_bytes(head + mat.astype("<f8").tobytes())


def load_snapshot(path):
    """Read back whatever ``save_snapshot`` wrote."""
    path = Path(path)
    try:
        with path.open("rb") as handle:
            return _read_snapshot(handle, str(path))
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


def _read_snapshot(handle, path: str):
    kind, ell, dim, seed = _unpack_header(handle.read(_HEADER.size), path)
    if kind == KIND_MATRIX:
        return _read(handle, (ell, dim), "<f8", path)
    if kind not in (KIND_FD_STATE, KIND_COLUMN_PLAN):
        raise DataFormatError(f"{path}: unknown snapshot kind {kind}")
    if ell < 1 or dim < 1:
        raise DataFormatError(f"{path}: snapshot has ell {ell} and dim {dim}")
    if kind == KIND_FD_STATE:
        fill, shrink_count = map(int, _read(handle, (2,), "<u8", path))
        if fill > 2 * ell - 1:
            raise DataFormatError(
                f"{path}: fd state fill {fill} exceeds 2*ell-1 = {2 * ell - 1}"
            )
        buffer = _read(handle, (2 * ell, dim), "<f8", path)
        state = FrequentDirections(ell, dim)
        state.buffer = buffer
        state.fill = fill
        state.shrink_count = shrink_count
        return state
    (entries_seen,) = _read(handle, (1,), "<u8", path)
    (running_mass,) = _read(handle, (1,), "<f8", path)
    indices = _read(handle, (ell,), "<u8", path)
    if np.any(indices >= dim):
        raise DataFormatError(
            f"{path}: column plan index {int(indices.max())} "
            f"is not below dim {dim}"
        )
    column_masses = _read(handle, (dim,), "<f8", path)
    if running_mass < 0.0 or np.any(column_masses < 0.0):
        raise DataFormatError(f"{path}: column plan has a negative mass")
    return ColumnSamplePlan(
        ell=ell,
        dim=dim,
        seed=seed,
        indices=indices.astype(np.int64),
        column_masses=column_masses,
        running_mass=float(running_mass),
        entries_seen=int(entries_seen),
    )


def load_csv(path, header: bool = False) -> np.ndarray:
    """Parse a CSV of decimal floats into a matrix.

    Errors carry the 1-based line and column of the first offending cell.
    """
    path = Path(path)
    rows: list[list[float]] = []
    width: int | None = None
    try:
        handle = path.open(newline="")
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        for line_no, cells in enumerate(reader, start=1):
            if header and line_no == 1:
                continue
            if not cells:
                continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataFormatError(
                    f"{path}: ragged row at line {line_no} "
                    f"({len(cells)} cells, expected {width})"
                )
            parsed = []
            for col_no, cell in enumerate(cells, start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataFormatError(
                        f"{path}: non-numeric cell at line {line_no}, "
                        f"column {col_no}: {cell!r}"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def save_csv(path, matrix) -> None:
    mat = as_matrix(matrix)
    lines = [",".join(repr(v) for v in row) for row in mat.tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_matrix(path, fmt: str = "csv", header: bool = False) -> np.ndarray:
    """Load a matrix from CSV or from a binary snapshot.

    The result is a new, writable, C-contiguous float64 array, nonempty and
    finite, so callers can hand it to the pipelines as their row source
    with no further copy.  Each format copies and checks the data once: a
    CSV is parsed into one array that ``as_matrix`` validates, and a
    snapshot's payload is read into one array that ``load_snapshot`` has
    checked finite.
    """
    if fmt == "csv":
        mat = load_csv(path, header=header)
        try:
            return as_matrix(mat)
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    if fmt != "bin":
        raise ValueError(f"unknown format {fmt!r}")
    mat = load_snapshot(path)
    if not isinstance(mat, np.ndarray):
        raise DataFormatError(f"{path}: snapshot is not a matrix")
    if mat.size == 0:
        raise DataFormatError(
            f"{path}: matrix must be nonempty, got shape {mat.shape}"
        )
    return mat

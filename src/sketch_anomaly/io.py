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
"""

from __future__ import annotations

import csv
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


def _check_finite(data: np.ndarray, path: str) -> np.ndarray:
    if not np.isfinite(data).all():
        raise DataFormatError(f"{path}: non-finite value in payload")
    return data


def _f64(blob: bytes, offset: int, count: int, path: str) -> tuple[np.ndarray, int]:
    end = offset + 8 * count
    if end > len(blob):
        raise DataFormatError(f"{path}: truncated payload")
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).copy()
    return _check_finite(data, path), end


def _u64(blob: bytes, offset: int, count: int, path: str) -> tuple[np.ndarray, int]:
    end = offset + 8 * count
    if end > len(blob):
        raise DataFormatError(f"{path}: truncated payload")
    return np.frombuffer(blob, dtype="<u8", count=count, offset=offset).copy(), end


def _read_matrix(handle, rows: int, cols: int, path: str) -> np.ndarray:
    """The rows x cols float64 payload after the header, read straight from
    the file into one new array."""
    size = 8 * rows * cols
    # Checked against the file size before allocating, so a corrupt header
    # reads as truncation rather than as an allocation failure.
    if handle.seek(0, 2) - _HEADER.size < size:
        raise DataFormatError(f"{path}: truncated payload")
    handle.seek(_HEADER.size)
    data = np.empty((rows, cols), dtype="<f8")
    if handle.readinto(data) != size:
        raise DataFormatError(f"{path}: truncated payload")
    return _check_finite(data, path)


def save_snapshot(path, obj, seed: int = 0) -> None:
    """Write a matrix, FD state, or column plan to a snapshot file."""
    path = Path(path)
    if isinstance(obj, FrequentDirections):
        head = _pack_header(KIND_FD_STATE, obj.ell, obj.dim, seed)
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
        head = _pack_header(KIND_MATRIX, mat.shape[0], mat.shape[1], seed)
        path.write_bytes(head + mat.astype("<f8").tobytes())


def load_snapshot(path):
    """Read back whatever ``save_snapshot`` wrote.

    A matrix payload is read from the file into one new writable array,
    which is checked for finiteness once; the smaller sketch kinds are read
    whole and parsed.
    """
    path = Path(path)
    try:
        with path.open("rb") as handle:
            blob = handle.read(_HEADER.size)
            kind, ell, dim, seed = _unpack_header(blob, str(path))
            if kind == KIND_MATRIX:
                return _read_matrix(handle, ell, dim, str(path))
            blob += handle.read()
    except OSError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
    offset = _HEADER.size
    if kind in (KIND_FD_STATE, KIND_COLUMN_PLAN) and (ell < 1 or dim < 1):
        raise DataFormatError(f"{path}: snapshot has ell {ell} and dim {dim}")
    if kind == KIND_FD_STATE:
        if len(blob) < offset + 16:
            raise DataFormatError(f"{path}: truncated payload")
        fill, shrink_count = struct.unpack_from("<QQ", blob, offset)
        if fill > 2 * ell - 1:
            raise DataFormatError(
                f"{path}: fd state fill {fill} exceeds 2*ell-1 = {2 * ell - 1}"
            )
        data, _ = _f64(blob, offset + 16, 2 * ell * dim, str(path))
        state = FrequentDirections(ell, dim)
        state.buffer = data.reshape(2 * ell, dim)
        state.fill = int(fill)
        state.shrink_count = int(shrink_count)
        return state
    if kind == KIND_COLUMN_PLAN:
        if len(blob) < offset + 16:
            raise DataFormatError(f"{path}: truncated payload")
        entries_seen, running_mass = struct.unpack_from("<Qd", blob, offset)
        if not np.isfinite(running_mass):
            raise DataFormatError(f"{path}: non-finite value in payload")
        indices, offset2 = _u64(blob, offset + 16, ell, str(path))
        if np.any(indices >= dim):
            raise DataFormatError(
                f"{path}: column plan index {int(indices.max())} "
                f"is not below dim {dim}"
            )
        masses, _ = _f64(blob, offset2, dim, str(path))
        return ColumnSamplePlan(
            ell=ell,
            dim=dim,
            seed=seed,
            indices=indices.astype(np.int64),
            column_masses=masses,
            running_mass=float(running_mass),
            entries_seen=int(entries_seen),
        )
    raise DataFormatError(f"{path}: unknown snapshot kind {kind}")


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

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sketch_anomaly
from sketch_anomaly import cli, linalg, pipelines, scores, sketches
from sketch_anomaly.cli import run_cli
from sketch_anomaly.io import save_snapshot
from sketch_anomaly.linalg import spectral_stats, svd_thin
from sketch_anomaly.pipelines import PipelineConfig, run_pipeline
from sketch_anomaly.scores import batch_scores
from sketch_anomaly.sketches import row_sample
from sketch_anomaly.synth import planted_anomaly_dataset, separated_matrix
from sketch_anomaly.verify import colsample_ell_for_mu, measured_mu_rowspace

SRC = str(Path(sketch_anomaly.__file__).resolve().parents[1])

# Snapshot header: magic, version, kind, flags, ell, dim, seed.
HEADER_BYTES = struct.calcsize("<4sHBBQQQ")


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    matrix, _ = planted_anomaly_dataset(200, 30, 3, 5)
    path = tmp_path_factory.mktemp("cli") / "in.bin"
    save_snapshot(path, matrix)
    return path, matrix


def score_argv(path, *extra):
    return ["score", "--k", "3", "--input", str(path), "--format", "bin", *extra]


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize(
    "mode", ["exact", "fd", "rproj", "colsample", "rowsample", "online"]
)
@pytest.mark.parametrize("lam", [None, 0.5])
def test_score_json_equals_direct_call(capsys, data_path, table_columns, mode, lam):
    path, matrix = data_path
    flags = ["--mode", mode, "--ell", "8", "--seed", "4"]
    if lam is not None:
        flags += ["--lambda", str(lam)]
    emitted = run_json(capsys, score_argv(path, *flags))
    if mode == "exact":
        table = batch_scores(matrix, 3, lam=lam)
    else:
        cfg = PipelineConfig(
            k=3, ell=8, seed=4, lam=lam, mode="online-fd" if mode == "online" else mode
        )
        table = run_pipeline(lambda: iter(matrix), cfg)
    expected = table_columns(table)
    assert sorted(emitted[0]) == sorted(expected)
    for key, column in expected.items():
        assert [row[key] for row in emitted] == column, key


@pytest.mark.parametrize("mode", ["fd", "colsample"])
def test_sketch_resume_equals_one_shot(capsys, tmp_path, data_path, mode):
    path, _ = data_path
    snap = tmp_path / "snap.bin"
    flags = ["--mode", mode, "--ell", "8", "--seed", "4"]
    assert run_cli(score_argv(path, *flags, "--sketch-out", str(snap))) == 0
    resumed = run_json(capsys, score_argv(path, *flags, "--sketch-in", str(snap)))
    assert resumed == run_json(capsys, score_argv(path, *flags))


def write_snapshot(tmp_path, data_path, mode):
    path, _ = data_path
    snap = tmp_path / "snap.bin"
    flags = ["--mode", mode, "--ell", "8", "--seed", "7"]
    assert run_cli(score_argv(path, *flags, "--sketch-out", str(snap))) == 0
    return snap


def test_column_plan_index_out_of_range_is_data_error(capsys, tmp_path, data_path):
    snap = write_snapshot(tmp_path, data_path, "colsample")
    blob = bytearray(snap.read_bytes())
    # The plan's first sampled index follows the two 8-byte counters.
    struct.pack_into("<Q", blob, HEADER_BYTES + 16, 30 + 5)
    snap.write_bytes(bytes(blob))
    argv = score_argv(
        data_path[0], "--mode", "colsample", "--ell", "8", "--seed", "7",
        "--sketch-in", str(snap),
    )
    assert run_cli(argv) == 2
    assert "index 35" in capsys.readouterr().err


def test_fd_fill_beyond_buffer_is_data_error(capsys, tmp_path, data_path):
    snap = write_snapshot(tmp_path, data_path, "fd")
    blob = bytearray(snap.read_bytes())
    struct.pack_into("<Q", blob, HEADER_BYTES, 2 * 8 + 7)
    snap.write_bytes(bytes(blob))
    argv = score_argv(
        data_path[0], "--mode", "fd", "--ell", "8", "--sketch-in", str(snap)
    )
    assert run_cli(argv) == 2
    assert "fill 23" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["fd", "colsample"])
def test_non_finite_snapshot_payload_is_data_error(capsys, tmp_path, data_path, mode):
    snap = write_snapshot(tmp_path, data_path, mode)
    blob = bytearray(snap.read_bytes())
    # First float of the payload: the fd buffer's [0, 0] or the plan's
    # running mass.
    offset = HEADER_BYTES + (16 if mode == "fd" else 8)
    struct.pack_into("<d", blob, offset, float("nan"))
    snap.write_bytes(bytes(blob))
    argv = score_argv(
        data_path[0], "--mode", mode, "--ell", "8", "--seed", "7",
        "--sketch-in", str(snap),
    )
    assert run_cli(argv) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["running mass", "unsampled column mass"])
def test_negative_column_plan_mass_is_data_error(capsys, tmp_path, data_path, where):
    snap = write_snapshot(tmp_path, data_path, "colsample")
    blob = bytearray(snap.read_bytes())
    # Plan payload: entries seen (u64), running mass (f64), 8 indices (u64),
    # then the 30 column masses (f64).
    if where == "running mass":
        struct.pack_into("<d", blob, HEADER_BYTES + 8, -5.0)
    else:
        indices = struct.unpack_from("<8Q", blob, HEADER_BYTES + 16)
        column = min(set(range(30)) - set(indices))
        struct.pack_into("<d", blob, HEADER_BYTES + 16 + 8 * 8 + 8 * column, -1.0)
    snap.write_bytes(bytes(blob))
    argv = score_argv(
        data_path[0], "--mode", "colsample", "--ell", "8", "--seed", "7",
        "--sketch-in", str(snap),
    )
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert str(snap) in err and "negative mass" in err


@pytest.mark.parametrize(
    "mode, flag, value",
    [
        ("fd", "--ell", "10"),
        ("colsample", "--ell", "10"),
        ("colsample", "--seed", "99"),
    ],
)
def test_sketch_in_flag_mismatch_is_data_error(
    capsys, tmp_path, data_path, mode, flag, value
):
    snap = write_snapshot(tmp_path, data_path, mode)
    flags = {"--ell": "8", "--seed": "7", flag: value}
    argv = score_argv(
        data_path[0], "--mode", mode, "--ell", flags["--ell"], "--seed",
        flags["--seed"], "--sketch-in", str(snap),
    )
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    stored = "8" if flag == "--ell" else "7"
    assert f"{flag[2:]} {stored}" in err and f"{flag} is {value}" in err


def test_verify_has_no_mu_flag():
    assert run_cli(["verify", "--suite", "diag", "--seeds", "1", "--mu", "0.1"]) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_pointwise_reports_on_the_score_outputs(capsys, tmp_path, seed):
    # Each pointwise lhs, recomputed from the JSON that ``score --mode exact``
    # and ``score --mode fd --ell <report ell>`` write for the suite's
    # instance, is the reported lhs to the bit.
    argv = ["verify", "--suite", "pointwise", "--seeds", "1", "--seed", str(seed)]
    assert run_cli(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    reports = {r["bound_name"]: r for r in map(json.loads, lines)}
    a = separated_matrix(200, 40, 3, seed, delta=0.3, kappa=1.15, tail_sr=5e-5)
    path = tmp_path / "a.bin"
    save_snapshot(path, a)

    def column(key, *flags):
        rows = run_json(capsys, score_argv(path, *flags))
        return np.array([row[key] for row in rows])

    def fd_column(key, report):
        return column(key, "--mode", "fd", "--ell", str(report["inputs"]["ell"]))

    row_sq = np.einsum("ij,ij->i", a, a)
    nonzero = row_sq > 0
    proj = reports["pointwise-projection"]
    gap = np.abs(
        column("projection_distance", "--mode", "exact")
        - fd_column("projection_distance_raw", proj)
    )
    assert float(np.max(gap[nonzero] / row_sq[nonzero])) == proj["lhs"]
    lev = reports["pointwise-leverage"]
    scale = float(spectral_stats(svd_thin(a).values, 3).sigma_sq.sum()) / 3
    gap = np.abs(
        column("rank_k_leverage", "--mode", "exact")
        - fd_column("rank_k_leverage", lev)
    )
    assert float(np.max(gap[nonzero] * scale / row_sq[nonzero])) == lev["lhs"]


@pytest.mark.parametrize("module", ["sketch_anomaly", "sketch_anomaly.cli"])
def test_module_entry_points(data_path, module):
    path, matrix = data_path
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", module, *score_argv(path, "--mode", "exact")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    records = json.loads(proc.stdout)
    assert [r["row_index"] for r in records] == list(range(matrix.shape[0]))


@pytest.mark.parametrize("value", ["0", "-0.5", "nan", "inf", "1", "1e200"])
def test_verify_rejects_non_positive_or_non_finite_epsilon(capsys, value):
    # 1e200 once overflowed in the pointwise and average suites' eps**2.
    for suite in ("all", "pointwise", "average"):
        argv = ["verify", "--suite", suite, "--seeds", "1", "--epsilon", value]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "epsilon" in captured.err
        if value in ("1", "1e200"):
            assert f"epsilon must be below 1, got {float(value)}" in captured.err


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_seed_count_below_one_is_usage_error(capsys, data_path, seeds):
    assert run_cli(["verify", "--suite", "diag", "--seeds", seeds]) == 1
    argv = [
        "eval", "--mode", "rproj", "--k", "3", "--ell", "8", "--eta", "0.05",
        "--seeds", seeds, "--input", str(data_path[0]), "--format", "bin",
    ]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("seed") == 2


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["score", "eval"])
def test_non_finite_lambda_is_usage_error(capsys, data_path, command, value):
    argv = [
        command, "--k", "3", "--input", str(data_path[0]), "--format", "bin",
        "--lambda", value,
    ]
    if command == "eval":
        argv += ["--mode", "exact", "--eta", "0.05", "--score", "ridge"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lambda" in captured.err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("mode", ["fd", "rproj", "colsample"])
@pytest.mark.parametrize("command", ["score", "eval"])
def test_non_finite_mu_is_usage_error(
    capsys, recwarn, data_path, command, mode, value
):
    argv = [
        command, "--mode", mode, "--k", "3", "--mu", value,
        "--input", str(data_path[0]), "--format", "bin",
    ]
    if command == "eval":
        argv += ["--eta", "0.05"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    message = f"mu must be positive and finite, got {value}"
    assert captured.err == f"sketch-anomaly: {message}\n"
    assert not recwarn.list


@pytest.mark.parametrize("value", ["1", "10", "1e200"])
@pytest.mark.parametrize("mode", ["fd", "rproj", "colsample", "rowsample", "online"])
@pytest.mark.parametrize("command", ["score", "eval"])
def test_mu_of_one_or_more_is_usage_error(capsys, data_path, command, mode, value):
    # A relative covariance error of 1 or more asks for no sketch; the
    # sketch-size formulas are never reached (mu**2 overflows at 1e200).
    argv = [
        command, "--mode", mode, "--k", "3", "--mu", value,
        "--input", str(data_path[0]), "--format", "bin",
    ]
    if command == "eval":
        argv += ["--eta", "0.05"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sketch-anomaly: mu must be below 1, got {float(value)}\n"


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "50", "--k", "0"], "k must be >= 1, got 0"),
        (["--n", "50", "--k", "-1"], "k must be >= 1, got -1"),
        (["--n", "0", "--k", "2"], "n must be >= 1, got 0"),
        (["--n", "-5", "--k", "2"], "n must be >= 1, got -5"),
    ],
)
def test_synth_rejects_empty_shapes(capsys, tmp_path, flags, message):
    out = tmp_path / "x.csv"
    assert run_cli(["synth", *flags, "--d", "30", "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"sketch-anomaly: {message}\n"
    assert not out.exists()


def test_negative_seed_colsample_resume_equals_one_shot(capsys, tmp_path, data_path):
    # Seeds key the sampler as u64, so -1 and 2**64 - 1 are one seed.
    path, _ = data_path
    snap = tmp_path / "snap.bin"
    flags = ["--mode", "colsample", "--ell", "8", "--seed", "-1"]
    assert run_cli(score_argv(path, *flags, "--sketch-out", str(snap))) == 0
    resumed = run_json(capsys, score_argv(path, *flags, "--sketch-in", str(snap)))
    one_shot = run_json(capsys, score_argv(path, *flags))
    assert resumed == one_shot
    flags[-1] = str(2**64 - 1)
    assert run_json(capsys, score_argv(path, *flags)) == one_shot


def test_rowsample_mu_sizes_ell_by_the_sampling_law():
    # Length-squared row sampling is colsample's law on A^T; the Frequent
    # Directions formula (ell 33 here) misses mu = 0.1 on most seeds.
    argv = ["score", "--mode", "rowsample", "--k", "3", "--mu", "0.1", "--input", "-"]
    ell = cli._resolve_ell(cli.build_parser().parse_args(argv), "rowsample")
    assert ell == colsample_ell_for_mu(0.1, 3.0) == 1712
    a, _ = planted_anomaly_dataset(4000, 60, 3, 0)
    for seed in range(10):
        assert measured_mu_rowspace(a, row_sample(a, ell, seed)) <= 0.1


def test_unallocatable_sketch_is_one_line_error(capsys, data_path):
    # --mu 0.001 sizes ell near 6e6: the ell x ell covariance would take
    # ~262 TiB, so the allocation fails before touching memory.
    argv = score_argv(data_path[0], "--mode", "rproj", "--mu", "0.001")
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "memory" in captured.err


@pytest.mark.parametrize("mode", ["rproj", "colsample"])
def test_covariance_larger_than_memory_is_one_line_error(
    capsys, monkeypatch, data_path, mode
):
    # Physical memory reads as 8 KiB, so the 12.8 kB covariance of ell 40
    # is refused before it is allocated.
    pages = {"SC_PHYS_PAGES": 2, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    argv = score_argv(data_path[0], "--mode", mode, "--ell", "40")
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "ell=40 needs 12800 bytes" in captured.err
    assert "8192 bytes of physical memory" in captured.err


@pytest.mark.parametrize(
    "mode, sketch_flag",
    [(mode, None) for mode in ("exact", "fd", "rproj", "colsample", "rowsample")]
    + [(mode, flag) for mode in ("fd", "colsample")
       for flag in ("--sketch-out", "--sketch-in")],
)
def test_batch_score_of_a_loaded_matrix_validates_no_row(
    capsys, monkeypatch, tmp_path, data_path, mode, sketch_flag
):
    flags = ["--mode", mode, "--ell", "8", "--seed", "7"]
    if sketch_flag == "--sketch-in":
        flags += [sketch_flag, str(write_snapshot(tmp_path, data_path, mode))]
    elif sketch_flag == "--sketch-out":
        flags += [sketch_flag, str(tmp_path / "out.bin")]
    calls = []

    def counting(original):
        def as_row(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        return as_row

    for module in (linalg, pipelines, scores, sketches):
        monkeypatch.setattr(module, "as_row", counting(module.as_row))
    assert run_cli(score_argv(data_path[0], *flags)) == 0
    assert calls == []
    # The counter is live: the online mode validates each row once.
    assert run_cli(score_argv(data_path[0], "--mode", "online", "--ell", "8")) == 0
    assert len(calls) == data_path[1].shape[0]
    capsys.readouterr()


@pytest.mark.parametrize(
    "payload, message",
    [
        (lambda m: m.at_nan(), "non-finite value in payload"),
        (lambda m: m.at_inf(), "non-finite value in payload"),
        (lambda m: m.cut(), "truncated payload"),
        (lambda m: m.header_only(), "matrix must be nonempty, got shape (0, 3)"),
        (lambda m: m.blob(rows=0, cols=2**63, values=[]),
         f"matrix header dimension too large (0 x {2**63})"),
    ],
)
@pytest.mark.parametrize("mode", ["exact", "fd", "online"])
def test_bad_matrix_file_is_one_line_data_error(capsys, tmp_path, payload, message, mode):
    path = tmp_path / "bad.bin"
    path.write_bytes(payload(HandMadeMatrix(rows=6, cols=3)))
    argv = score_argv(path, "--mode", mode, "--ell", "4")
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sketch-anomaly: {path}: {message}\n"


class HandMadeMatrix:
    """Matrix snapshot bytes written field by field, not by save_snapshot."""

    def __init__(self, rows: int, cols: int):
        self.rows, self.cols = rows, cols
        self.values = [float(i % 5) - 1.5 for i in range(rows * cols)]

    def blob(self, rows=None, values=None, cols=None) -> bytes:
        rows = self.rows if rows is None else rows
        cols = self.cols if cols is None else cols
        values = self.values if values is None else values
        head = struct.pack("<4sHBBQQQ", b"SKAN", 1, 0, 0, rows, cols, 0)
        return head + struct.pack(f"<{len(values)}d", *values)

    def at_nan(self) -> bytes:
        return self.blob(values=self.values[:7] + [float("nan")] + self.values[8:])

    def at_inf(self) -> bytes:
        return self.blob(values=self.values[:-1] + [float("-inf")])

    def cut(self) -> bytes:
        return self.blob()[:-1]

    def header_only(self) -> bytes:
        return self.blob(rows=0, values=[])

import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sketch_anomaly
from sketch_anomaly import cli, evaluate, linalg, pipelines, scores, sketches, verify
from sketch_anomaly.cli import run_cli
from sketch_anomaly.io import save_csv, save_snapshot
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
    flags = ["--mode", mode, "--seed", "4"]
    flags += [] if mode == "exact" else ["--ell", "8"]
    if lam is not None:
        flags += ["--lambda", str(lam)]
    if lam is not None and mode in pipelines.PROJECTED_MODES:
        # A projected sketch fills no ridge column, so it reads no lambda.
        assert run_cli(score_argv(path, *flags)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"score: --lambda is not read in mode {mode}\n"
        return
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


@pytest.mark.parametrize("mass", [1e308, 0.0])
def test_column_plan_running_mass_off_its_column_sum_is_data_error(
    capsys, tmp_path, data_path, mass
):
    # Resumed, a running mass of 1e308 scored every projection distance 0
    # with exit 0, and a running mass of 0 advised raising ell.
    snap = write_snapshot(tmp_path, data_path, "colsample")
    blob = bytearray(snap.read_bytes())
    struct.pack_into("<d", blob, HEADER_BYTES + 8, mass)
    snap.write_bytes(bytes(blob))
    argv = score_argv(
        data_path[0], "--mode", "colsample", "--ell", "8", "--seed", "7",
        "--sketch-in", str(snap),
    )
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert str(snap) in err and "disagrees with the sum of its column masses" in err


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


def run_captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=None)
@given(
    mode=st.sampled_from(["fd", "colsample"]),
    lam=st.sampled_from([None, "0.5"]),
    n=st.integers(1, 40),
    d=st.integers(1, 16),
    k=st.integers(1, 4),
    extra_ell=st.integers(1, 6),
    seed=st.integers(-(2**63), 2**64 - 1),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_sketch_out_then_sketch_in_writes_the_plain_run_bytes(
    mode, lam, n, d, k, extra_ell, seed, data_seed
):
    matrix = np.random.default_rng(data_seed).standard_normal((n, d))
    with tempfile.TemporaryDirectory() as tmp:
        path, snap = Path(tmp) / "in.bin", str(Path(tmp) / "snap.bin")
        save_snapshot(path, matrix)
        argv = [
            "score", "--mode", mode, "--k", str(k), "--ell", str(k + extra_ell),
            "--seed", str(seed), "--input", str(path), "--format", "bin",
        ]
        # A --sketch-out job reads no lambda, and colsample reads none at all.
        scored = argv + (["--lambda", lam] if lam and mode == "fd" else [])
        plain = run_captured(scored)
        saved = run_captured([*argv, "--sketch-out", snap])
        if saved[0] != 0:
            # Pass zero itself failed, as the plain run did.
            assert saved == plain and not os.path.exists(snap)
            return
        assert saved == (0, "", "")
        assert run_captured([*scored, "--sketch-in", snap]) == plain


@pytest.mark.parametrize("mode", ["fd", "colsample"])
def test_sketch_in_on_an_input_of_another_width_names_the_snapshot(
    capsys, tmp_path, data_path, mode
):
    snap = write_snapshot(tmp_path, data_path, mode)
    wider = tmp_path / "wider.bin"
    save_snapshot(wider, np.hstack([data_path[1], data_path[1][:, :10]]))
    argv = score_argv(
        wider, "--mode", mode, "--ell", "8", "--seed", "7", "--sketch-in", str(snap)
    )
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"sketch-anomaly: {snap}: snapshot was built on 30 columns, "
        "but the input has 40\n"
    )


def test_column_plan_resumed_on_another_input_of_its_width_is_data_error(
    capsys, tmp_path
):
    # The plan's masses would scale the other input's scores: exit 0 before.
    first, second, snap = (str(tmp_path / name) for name in ("a.csv", "b.csv", "p.bin"))
    synth = ["synth", "--d", "30", "--k", "2"]
    assert run_cli([*synth, "--n", "60", "--output", first]) == 0
    assert run_cli([*synth, "--n", "90", "--seed", "4", "--output", second]) == 0
    score = ["score", "--mode", "colsample", "--k", "2", "--ell", "6"]
    assert run_cli([*score, "--input", first, "--sketch-out", snap]) == 0
    assert run_cli([*score, "--input", second, "--sketch-in", snap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"sketch-anomaly: {snap}: snapshot saw 1800 entries, but the input has 2700\n"
    )


@pytest.mark.parametrize("mode", ["fd", "rproj", "colsample", "rowsample", "online"])
def test_invalid_eval_config_is_rejected_before_the_ground_truth(
    capsys, monkeypatch, data_path, mode
):
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return batch_scores(*args, **kwargs)

    monkeypatch.setattr(evaluate, "batch_scores", counting)
    argv = [
        "eval", "--mode", mode, "--k", "5", "--ell", "4", "--eta", "0.05",
        "--input", str(data_path[0]), "--format", "bin",
    ]
    assert run_cli(argv) == 1
    assert calls == []
    assert capsys.readouterr().err == "sketch-anomaly: need k < ell, got k=5, ell=4\n"


@pytest.mark.parametrize(
    "mode", ["exact", "fd", "rproj", "colsample", "rowsample", "online"]
)
def test_underflowing_input_is_one_line_data_error(capsys, tmp_path, mode):
    # Full rank, but every entry is near 1e-170, so every Gram underflows
    # to zero; online scored it as 60 undefined rows with exit 0.
    path = tmp_path / "tiny.csv"
    save_csv(path, np.random.default_rng(0).standard_normal((60, 8)) * 1e-170)
    argv = ["score", "--mode", mode, "--k", "2", "--input", str(path)]
    argv += [] if mode == "exact" else ["--ell", "4"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("sketch-anomaly: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err and "Warning" not in captured.err


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


@pytest.mark.parametrize("suite", ["projector", "weyl"])
def test_verify_rejects_a_negative_seed(capsys, suite):
    argv = ["verify", "--suite", suite, "--seeds", "1", "--seed", "-1"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "sketch-anomaly: seed must be >= 0, got -1\n"


def test_verify_json_lines_hold_the_report_fields_in_order(capsys):
    assert run_cli(["verify", "--suite", "all", "--seeds", "1"]) == 0
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {r["applicable"] for r in reports} == {True, False}
    for r in reports:
        assert list(r) == [
            "bound_name", "lhs", "rhs", "slack", "inputs", "applicable", "pass",
        ]
        keys = tuple(r["inputs"])
        assert keys[: len(verify._INPUT_KEYS)] == verify._INPUT_KEYS
        assert r["slack"] == r["rhs"] - r["lhs"]
        within = r["lhs"] <= r["rhs"] + verify.PASS_SLACK * max(1.0, r["rhs"])
        assert r["pass"] == (not r["applicable"] or within)


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


SKETCHED_MODES = ("fd", "rowsample", "colsample", "rproj", "online")


# At 1e-20 and below, every mode's ell overflows np.intp, so each draw is
# refused before any allocation is sized.
@settings(max_examples=40)
@given(
    value=st.floats(-300.0, -20.0).map(lambda e: 10.0**e),
    command=st.sampled_from(
        [("score", mode) for mode in SKETCHED_MODES]
        + [("eval", mode) for mode in SKETCHED_MODES]
        + [("verify", suite) for suite in ("pointwise", "average")]
    ),
)
def test_tiny_mu_or_epsilon_is_one_line_error(data_path, value, command):
    name, choice = command
    if name == "verify":
        argv = [name, "--suite", choice, "--seeds", "1", "--epsilon", repr(value)]
    else:
        argv = [
            name, "--mode", choice, "--k", "3", "--mu", repr(value),
            "--input", str(data_path[0]), "--format", "bin",
        ]
        if name == "eval":
            argv += ["--eta", "0.05"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()
    assert "mu" in err.getvalue()


@pytest.mark.parametrize(
    "suite, epsilon, reason",
    [
        ("pointwise", "1e-40", "mu 8.6954521739118e-81 needs a sketch size of"),
        ("average", "1e-200", "mu must be positive and finite, got 0.0"),
    ],
)
def test_verify_tiny_epsilon_names_epsilon_and_suite(capsys, suite, epsilon, reason):
    # The mu target is derived from eps; at 1e-200 it underflows to 0.
    argv = ["verify", "--suite", suite, "--seeds", "1", "--epsilon", epsilon]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    prefix = (
        f"sketch-anomaly: epsilon {float(epsilon)!r} gives the {suite} suite "
        f"a mu target with no sketch size: {reason}"
    )
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "suite", ["weyl", "projector", "sigma-squared", "sigma-inverse", "diag"]
)
def test_verify_epsilon_on_a_suite_without_one_is_usage_error(capsys, suite):
    argv = ["verify", "--suite", suite, "--seeds", "1", "--epsilon", "0.1"]
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sketch-anomaly: suite {suite!r} takes no epsilon\n"


def test_verify_all_passes_epsilon_to_the_suites_that_take_one(capsys, monkeypatch):
    seen = {}

    def recorder(suite):
        def instance(base_seed, s, num_seeds, eps):
            seen[suite] = eps
            return []

        return instance

    sweeps = {name: (recorder(name), eps) for name, (_, eps) in verify._SWEEPS.items()}
    monkeypatch.setattr(verify, "_SWEEPS", sweeps)
    argv = ["verify", "--suite", "all", "--seeds", "1", "--epsilon", "0.1"]
    assert run_cli(argv) == 0
    capsys.readouterr()
    assert set(seen) == set(verify.SUITES)
    assert [seen[name] for name in ("pointwise", "average", "lowrank")] == [0.1] * 3


# A 4x2 input whose Gram is finite (largest entry 9.2e307) while
# ||A||_F^2 = 1.07e308: the squares of the Gram's entries overflow.
HUGE = np.array([[7e153, 1e153], [-5.5e153, 2e153], [3e153, 3e153], [2e153, -1e153]])


@pytest.mark.parametrize(
    "mode", ["exact", "fd", "rowsample", "colsample", "rproj", "online"]
)
def test_scores_near_the_top_of_the_range_match_a_scaled_copy(capsys, tmp_path, mode):
    # Under A -> c A the leverages are unchanged and T^k scales by c^2.
    runs = []
    for name, matrix in (("huge", HUGE), ("scaled", np.ldexp(HUGE, -512))):
        path = tmp_path / f"{name}.csv"
        save_csv(path, matrix)
        argv = ["score", "--mode", mode, "--k", "1", "--input", str(path)]
        argv += [] if mode == "exact" else ["--ell", "2"]
        code = run_cli(argv)
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "Warning" not in captured.err
        runs.append(json.loads(captured.out))
    huge, scaled = runs
    assert [r["defined"] for r in huge] == [r["defined"] for r in scaled]
    for field in scores.ROWSPACE_FIELDS:
        got = [r[field] for r in huge]
        want = [r[field] for r in scaled]
        assert [v is None for v in got] == [v is None for v in want], field
        got, want = (np.array([v for v in vs if v is not None]) for vs in (got, want))
        if field.startswith("projection_distance"):
            want = np.ldexp(want, 1024)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=field)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "50", "--k", "0"], "k must be >= 1, got 0"),
        (["--n", "50", "--k", "-1"], "k must be >= 1, got -1"),
        (["--n", "0", "--k", "2"], "n must be >= 1, got 0"),
        (["--n", "-5", "--k", "2"], "n must be >= 1, got -5"),
        (["--n", "50", "--k", "2", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
)
def test_synth_rejects_empty_shapes(capsys, tmp_path, flags, message):
    out = tmp_path / "x.csv"
    assert run_cli(["synth", *flags, "--d", "30", "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"sketch-anomaly: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--anomaly-scale", "inf"),
        ("--anomaly-scale", "-2"),
        ("--noise-scale", "nan"),
        ("--noise-scale", "inf"),
        ("--noise-scale", "-0.1"),
    ],
)
def test_synth_rejects_non_finite_or_negative_scales(capsys, tmp_path, flag, value):
    out = tmp_path / "x.csv"
    argv = ["synth", "--n", "50", "--d", "40", "--k", "2", flag, value]
    assert run_cli([*argv, "--output", str(out)]) == 1
    name = flag[2:].replace("-", "_")
    err = capsys.readouterr().err
    assert err.startswith(f"sketch-anomaly: {name} must be finite and non-negative")
    assert err.count("\n") == 1
    assert "Warning" not in err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["fd", "colsample"])
def test_sketch_in_with_sketch_out_is_usage_error(capsys, tmp_path, data_path, mode):
    snap = write_snapshot(tmp_path, data_path, mode)
    before = snap.read_bytes()
    fresh = tmp_path / "fresh.bin"
    flags = ["--mode", mode, "--ell", "8", "--seed", "7"]
    argv = score_argv(data_path[0], *flags, "--sketch-in", str(snap), "--sketch-out", str(fresh))
    capsys.readouterr()
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "score: --sketch-in is not read with --sketch-out\n"
    assert not fresh.exists()
    assert snap.read_bytes() == before


@pytest.mark.parametrize(
    "argv, message",
    [
        (["score", "--ell", "8"], "score: --ell is not read in mode exact"),
        (["score", "--mu", "0.1"], "score: --mu is not read in mode exact"),
        (["eval", "--mode", "exact", "--ell", "8"],
         "eval: --ell is not read in mode exact"),
        (["score", "--mode", "fd", "--ell", "8", "--mu", "0.1"],
         "score: --mu is not read with --ell"),
        (["eval", "--ell", "8", "--mu", "0.1"], "eval: --mu is not read with --ell"),
        (["score", "--mode", "rproj", "--ell", "8", "--lambda", "0.5"],
         "score: --lambda is not read in mode rproj"),
        (["score", "--mode", "colsample", "--ell", "8", "--lambda", "0.5"],
         "score: --lambda is not read in mode colsample"),
        (["eval", "--ell", "8", "--lambda", "0.5"],
         "eval: --lambda is not read with --score projk"),
        (["eval", "--mode", "exact", "--score", "tail", "--lambda", "0.5"],
         "eval: --lambda is not read with --score tail"),
        (["score", "--header"], "score: --header is not read with --format bin"),
        (["score", "--mode", "rowsample", "--ell", "8", "--sketch-out", "{dir}/s.bin"],
         "score: --sketch-out is not read in mode rowsample"),
        (["score", "--mode", "online", "--ell", "8", "--sketch-in", "{dir}/s.bin"],
         "score: --sketch-in is not read in mode online"),
        (["score", "--mode", "fd", "--ell", "8", "--sketch-out", "{dir}/s.bin",
          "--output", "{dir}/o.json"], "score: --output is not read with --sketch-out"),
        (["score", "--mode", "fd", "--ell", "8", "--sketch-out", "{dir}/s.bin",
          "--lambda", "0.5"], "score: --lambda is not read with --sketch-out"),
        (["score", "--mode", "fd"],
         "score: --ell (or --mu) is required for sketched modes"),
    ],
)
def test_flag_the_job_does_not_read_is_a_usage_error(
    tmp_path, data_path, argv, message
):
    argv = [arg.format(dir=tmp_path) for arg in argv]
    argv += ["--k", "3", "--input", str(data_path[0]), "--format", "bin"]
    if argv[0] == "eval":
        argv += ["--eta", "0.05"]
    assert run_captured(argv) == (1, "", message + "\n")
    assert list(tmp_path.iterdir()) == []


# Values the flag property gives each flag of the rule: "{dir}" is the run's
# own directory, "{snap}" a snapshot of another input of the same shape, and
# None marks a flag that takes no value.
RULE_FLAGS = {
    "score": {
        "--ell": ["6", "11"], "--mu": ["0.5"], "--lambda": ["0.5", "3"],
        "--seed": ["9", "-1"], "--header": [None], "--output": ["{dir}/out.json"],
        "--sketch-out": ["{dir}/snap.bin"], "--sketch-in": ["{snap}"],
    },
    "eval": {
        "--ell": ["6", "11"], "--mu": ["0.5"], "--lambda": ["0.5", "3"],
        "--seed": ["9", "-1"], "--seeds": ["2", "7"], "--header": [None],
        "--output": ["{dir}/out.json"],
    },
}


@pytest.fixture(scope="module")
def rule_inputs(tmp_path_factory):
    """An 80 x 16 noise input, on which a sketch's ell and seed move eval's
    F1, and per persisted mode a pass-zero snapshot of another such input."""
    root = tmp_path_factory.mktemp("rule")
    rng = np.random.default_rng(3)
    path, other = root / "in.bin", root / "other.bin"
    save_snapshot(path, rng.standard_normal((80, 16)))
    save_snapshot(other, rng.standard_normal((80, 16)))
    snaps = {}
    for mode in pipelines.FIRST_PASSES:
        snaps[mode] = str(root / f"{mode}.snap")
        argv = ["score", "--mode", mode, "--k", "3", "--ell", "8", "--input",
                str(other), "--format", "bin", "--sketch-out", snaps[mode]]
        assert run_cli(argv) == 0
    return path, snaps


def run_in_fresh_dir(argv):
    """``run_captured`` of argv with "{dir}" set to a fresh directory, and
    the bytes of each file the run wrote there."""
    with tempfile.TemporaryDirectory() as tmp:
        result = run_captured([arg.replace("{dir}", tmp) for arg in argv])
        written = {path.name: path.read_bytes() for path in Path(tmp).iterdir()}
    return (*result, written)


@settings(max_examples=120)
@given(
    command=st.sampled_from(sorted(RULE_FLAGS)),
    mode=st.sampled_from(cli._CLI_MODES),
    data=st.data(),
)
def test_every_flag_changes_the_output_or_is_a_usage_error(
    rule_inputs, command, mode, data
):
    flag = data.draw(st.sampled_from(sorted(RULE_FLAGS[command])), label="flag")
    value = data.draw(st.sampled_from(RULE_FLAGS[command][flag]), label="value")
    path, snaps = rule_inputs
    argv = [command, "--mode", mode, "--k", "3", "--input", str(path)]
    argv += ["--format", "bin"] + ([] if mode == "exact" else ["--ell", "8"])
    argv += ["--eta", "0.25"] if command == "eval" else []
    plain = run_in_fresh_dir(argv)
    assert plain[0] == 0
    tail = [] if value is None else [value.replace("{snap}", snaps.get(mode, ""))]
    code, out, err, written = flagged = run_in_fresh_dir([*argv, flag, *tail])
    if code == 1:
        # A flag the job does not read: one line naming it, and nothing else.
        # --seed and --seeds are accepted in every mode.
        assert flag not in ("--seed", "--seeds")
        assert (out, written) == ("", {})
        assert err.count("\n") == 1 and f"{flag} is not read" in err
    elif flag in ("--seed", "--seeds") and mode not in pipelines.RANDOMIZED_MODES:
        assert flagged == plain
    else:
        assert code == 0 and flagged != plain


def test_parser_is_built_once_and_reused_with_the_same_results(tmp_path, data_path):
    path = str(data_path[0])
    common = ["--k", "3", "--input", path, "--format", "bin"]
    argvs = [
        ["score", "--mode", "nope", *common],
        ["--help"],
        ["score", "--mode", "rowsample", "--ell", "8", "--seed", "2", *common],
        ["eval", "--mode", "rproj", "--ell", "8", "--eta", "0.05", "--seeds", "2", *common],
        ["score", "--mode", "online", "--ell", "5", "--lambda", "0.5", *common],
    ]

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        return code, out.getvalue(), err.getvalue()

    cli.build_parser.cache_clear()
    shared = [run(argv) for argv in argvs]
    assert cli.build_parser.cache_info().misses == 1
    parser = cli.build_parser()
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert cli.build_parser() is not parser
    assert [code for code, _, _ in shared] == [1, 0, 0, 0, 0]
    assert shared == fresh
    assert "invalid choice: 'nope'" in shared[0][2]
    assert shared[1][1].startswith("usage: sketch-anomaly")
    assert json.loads(shared[4][1])[0]["defined"] is False


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
    _, ell = cli._pipeline_job(cli.build_parser().parse_args(argv))
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
    flags = ["--mode", mode, "--seed", "7"]
    flags += [] if mode == "exact" else ["--ell", "8"]
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
    argv = score_argv(path, "--mode", mode)
    argv += [] if mode == "exact" else ["--ell", "4"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sketch-anomaly: {path}: {message}\n"


@pytest.mark.parametrize(
    "data, flags, message",
    [
        (b"1,2\n3,\x834\n", [], "not UTF-8 text (invalid start byte)"),
        # A bad byte beyond the first block the text layer decodes.
        (
            b"1,2\n" * 5000 + b"3,\xc3(\n", [],
            "not UTF-8 text (invalid continuation byte)",
        ),
        (b"1_0,2\n3,4\n5,6\n", [], "non-numeric cell at line 1, column 1: '1_0'"),
        (b"1,2\n3\n", [], "ragged row at line 2 (1 cells, expected 2)"),
        (b"1,2\n3,x\n", [], "non-numeric cell at line 2, column 2: 'x'"),
        (b"", [], "no data rows"),
        (b"a,b\n", ["--header"], "no data rows"),
        # float reads any Unicode digit or space; a cell must be ASCII.
        ("1,\uff11\n".encode(), [], "non-numeric cell at line 1, column 2: '\uff11'"),
        ("1,2\n\u0663,4\n".encode(), [], "non-numeric cell at line 2, column 1: '\u0663'"),
        ("1,\u20036\n".encode(), [], "non-numeric cell at line 1, column 2: '\\u20036'"),
    ],
)
def test_bad_csv_is_one_line_data_error(capsys, tmp_path, data, flags, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    assert run_cli(["score", "--k", "1", "--input", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sketch-anomaly: {path}: {message}\n"


def test_snapshot_read_as_csv_is_one_line_data_error(capsys, data_path):
    path = data_path[0]
    assert run_cli(["score", "--k", "3", "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"sketch-anomaly: {path}: not UTF-8 text (")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("header", [False, True])
def test_csv_byte_order_mark_is_skipped(capsys, tmp_path, data_path, header):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    save_csv(plain, data_path[1])
    text = plain.read_bytes()
    if header:
        text = b"c" + b",c" * (data_path[1].shape[1] - 1) + b"\n" + text
    plain.write_bytes(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    flags = ["--header"] if header else []
    outputs = []
    for path in (plain, marked):
        assert run_cli(["score", "--k", "3", "--input", str(path), *flags]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == outputs[1].err == ""
    assert outputs[0].out == outputs[1].out


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

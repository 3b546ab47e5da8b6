"""The package surface that the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` swaps package attributes for timing wrappers and
counts score rows through ``len`` of what the scorers return, and
``perfbench/bench.py`` reads online rows by attribute while iterating a
``ScoreTable``.  These tests fail when a change to the package would break
``perfbench/run.py --trace 1`` or its online correctness check.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sketch_anomaly import cli
from sketch_anomaly.cli import run_cli
from sketch_anomaly.io import save_snapshot
from sketch_anomaly.pipelines import PipelineConfig, run_online_pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench
        import tracing
    finally:
        sys.path.remove(str(PERFBENCH))
    return bench, tracing


def test_every_traced_attribute_resolves(perfbench):
    _, tracing = perfbench
    plan = tracing._patch_plan(tracing.Tracer(detail=True))
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in plan
        if not hasattr(owner, attr)
    ]
    assert missing == []
    originals = [getattr(owner, attr) for owner, attr, _ in plan]
    with tracing.Tracer(detail=True):
        pass
    assert [getattr(owner, attr) for owner, attr, _ in plan] == originals


def test_online_records_expose_the_fields_the_benchmark_reads(perfbench):
    bench, _ = perfbench
    rows, k = 40, 3
    a = np.random.default_rng(5).standard_normal((rows, 10))
    cfg = PipelineConfig(k=k, ell=6, mode="online-fd")
    records = run_online_pipeline(lambda: iter(a), cfg)
    assert bench.online_row_failures(records, rows, k) == 0
    # The check is live: a wrong record count fails every row.
    assert bench.online_row_failures(list(records)[1:], rows, k) == rows


@pytest.mark.parametrize("mode", ["exact", "fd", "online"])
def test_traced_score_job_counts_every_row(perfbench, tmp_path, mode):
    _, tracing = perfbench
    rows = 60
    path = tmp_path / "in.bin"
    save_snapshot(path, np.random.default_rng(6).standard_normal((rows, 10)))
    argv = [
        "score", "--mode", mode, "--k", "3", "--input", str(path),
        "--format", "bin", "--output", str(tmp_path / "out.json"),
    ] + ([] if mode == "exact" else ["--ell", "6"])
    with tracing.Tracer(detail=True) as tracer:
        assert run_cli(argv) == 0
    assert tracer.counts["scores.records"] == rows
    if mode == "online":
        # One pass, and each row validated once (by the pipeline's as_row).
        assert tracer.counts["pipelines.passes"] == 1
        assert tracer.counts["linalg.as_row_calls"] == rows


def test_score_output_can_be_corrupted_through_dump_json(monkeypatch, tmp_path):
    # perfbench/selftest.py wraps cli._dump_json like this to check that the
    # benchmark counts a corrupted score output as failed.
    original = cli._dump_json

    def corrupting(obj):
        if isinstance(obj, list):
            obj[0]["projection_distance"] = -1.0
        return original(obj)

    path, out = tmp_path / "in.bin", tmp_path / "out.json"
    save_snapshot(path, np.random.default_rng(7).standard_normal((20, 6)))
    monkeypatch.setattr(cli, "_dump_json", corrupting)
    argv = ["score", "--mode", "fd", "--k", "2", "--ell", "4", "--input", str(path),
            "--format", "bin", "--output", str(out)]
    assert run_cli(argv) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 20
    assert rows[0]["projection_distance"] == -1.0
    assert all(row["projection_distance"] >= 0.0 for row in rows[1:])


def test_every_benchmark_argv_passes_the_flag_rule(perfbench):
    # The benchmark passes --seed to fd, which reads none: the rule must go
    # on accepting it, and every other flag the six jobs pass.
    bench, _ = perfbench
    jobs = bench.SCORE_MODES + ("eval",)
    assert set(jobs) == set(bench.JOBS) - {"online"}
    for workload in bench.WORKLOADS.values():
        runner = SimpleNamespace(w=workload, input_path=Path("input.bin"))
        for job in jobs:
            argv = bench.Runner.argv(runner, job, 7) + ["--output", "out.json"]
            cli._check_flags(cli.build_parser().parse_args(argv))

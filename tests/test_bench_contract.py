"""The package surface that the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` swaps package attributes for timing wrappers, and
``perfbench/bench.py`` reads online records by attribute.  These tests
fail when a change to the package would break ``perfbench/run.py
--trace 1`` or its online correctness check.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

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
    assert bench.online_row_failures(records[1:], rows, k) == rows

"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload shrunk to a few hundred rows and checks that:

* each run emits exactly the metrics ``BENCHMARK.json`` names, end-to-end
  ones untraced and per-layer ones traced, each with its unit;
* a correct run counts no failed operation;
* the exact counts (draws, shrinks, passes, rows consumed) repeat across
  seeds;
* a deliberately corrupted ``score`` output is counted as failed;
* the benchmark exits non-zero, printing no result, when the package
  sources are missing.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

run.pin_environment()

import bench  # noqa: E402  (needs the pinned environment)
from sketch_anomaly import cli  # noqa: E402

ROOT = run.HERE.parent
TINY = {
    "tall": dict(n=600, d=30, k=3, ell=8, online_rows=60),
    "wide": dict(n=150, d=60, k=4, ell=10, online_rows=30),
}
EXACT_COUNTS = ("rng.draws", "sketches.shrinks", "pipelines.passes",
                "pipelines.rows_consumed")

problems: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAIL {message}")


def tiny_run(name: str, seed: int, trace: bool, work: Path):
    w = dataclasses.replace(bench.WORKLOADS[name], **TINY[name])
    return bench.run_workload(w, seed, 0.2, trace, work, run.SRC)


def check_metrics(label: str, result, expected: dict) -> None:
    names = set(result.metrics)
    check(names == set(expected),
          f"{label}: metrics differ from BENCHMARK.json: "
          f"missing {sorted(set(expected) - names)}, "
          f"extra {sorted(names - set(expected))}")
    for metric, unit in expected.items():
        got = result.metrics.get(metric)
        if got is None:
            continue
        check(got["unit"] == unit, f"{label}: {metric} has unit {got['unit']}")
        value = got["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{label}: {metric} = {value!r} is not a finite number")


def corrupting(dump):
    """``cli._dump_json`` that makes the first record's T negative."""

    def wrapper(obj):
        if isinstance(obj, list):
            obj[0]["projection_distance"] = -1.0
        return dump(obj)

    return wrapper


def bare_checkout_exits_nonzero(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    check(proc.returncode != 0, "run.py exits 0 without the package sources")
    check('"correct"' not in proc.stdout,
          "run.py prints a result without the package sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check({m["name"]: (m["unit"], m["better"], m["bound"])
           for m in spec["end_to_end"]} == bench.END_TO_END,
          "BENCHMARK.json end_to_end differs from bench.END_TO_END")
    check({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
          == {k: (u, bench.layer_better(k)) for k, u in bench.PER_LAYER.items()},
          "BENCHMARK.json per_layer differs from bench.PER_LAYER")
    check({w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS),
          "BENCHMARK.json workloads differ from bench.WORKLOADS")

    with run.work_dir(f"selftest-{os.getpid()}") as work:
        for name in TINY:
            plain = tiny_run(name, 1, False, work)
            check_metrics(f"{name} untraced", plain, end_to_end)
            check(plain.correct and plain.failed == 0,
                  f"{name}: {plain.failed} failed ops: {plain.report['failures']}")

            traced = [tiny_run(name, seed, True, work) for seed in (1, 2)]
            check_metrics(f"{name} traced", traced[0], per_layer)
            for metric in per_layer:
                if metric.endswith(EXACT_COUNTS):
                    values = [t.metrics[metric]["value"] for t in traced]
                    check(values[0] == values[1],
                          f"{name}: {metric} differs across seeds: {values}")

            original = cli._dump_json
            cli._dump_json = corrupting(original)
            try:
                bad = tiny_run(name, 1, False, work)
            finally:
                cli._dump_json = original
            scored = len(bench.SCORE_MODES) * bad.report["rounds"]
            check(not bad.correct and bad.failed == scored,
                  f"{name}: corrupted outputs gave {bad.failed} failed ops, "
                  f"expected {scored}")
        bare_checkout_exits_nonzero(work)

    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

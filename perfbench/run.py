"""Benchmark of the sketch_anomaly package: CLI jobs timed end to end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tall --seed 1 --seconds 40 --trace 0

Builds the workload's input from ``--seed``, then repeats rounds of jobs
(one ``score`` per mode, one ``eval``, one online stream) for about
``--seconds``, checking every output.  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` each job also runs traced and the object holds the
per-layer metrics.  Earlier lines give a table of the metrics and a JSON
report with the environment, input digest, quartiles and sample counts.

Times are wall-clock medians over a run's rounds; per-layer times are
span durations.

BLAS/OpenMP thread counts and SKETCH_ANOMALY_THREADS are set to the
number of usable CPUs before numpy is imported.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "SKETCH_ANOMALY_THREADS",
)


def pin_environment() -> None:
    """Fix thread counts and make the package in ``src/`` importable."""
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = nproc
    sys.path.insert(0, str(SRC))


@contextlib.contextmanager
def work_dir(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    work = HERE.parent / ".perfbench_work" / name
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sketch_anomaly" / "__init__.py").is_file():
        print(f"perfbench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    with work_dir(str(os.getpid())) as work:
        result = bench.run_workload(
            workload, args.seed, args.seconds, bool(args.trace), work, SRC
        )

    report = result.report
    print(json.dumps(report))
    for job, st in report["job_s"].items():
        print(f"job_s.{job:<42s} {_fmt(st['median']):>14s} s  "
              f"[q1 {_fmt(st['q1'])}, q3 {_fmt(st['q3'])}, n={st['n']}]")
    lat = report["online_row_ms"]
    print(f"{'online_row_ms':48s} {_fmt(lat['median']):>14s} ms "
          f"[q1 {_fmt(lat['q1'])}, q3 {_fmt(lat['q3'])}, p99 {_fmt(lat['p99'])}, "
          f"n={lat['n']}]")
    for name, m in result.metrics.items():
        print(f"{name:48s} {_fmt(m['value']):>14s} {m['unit']}")
    print(f"{'ops_failed_frac':48s} {_fmt(report['ops_failed_frac']):>14s} "
          f"({result.failed}/{result.attempted})")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }))
    return 0


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


if __name__ == "__main__":
    sys.exit(main())

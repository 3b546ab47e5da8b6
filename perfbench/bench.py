"""Workloads, jobs, correctness checks and metrics of the benchmark.

One single-threaded benchmark process calls the package in a closed loop:
each job starts only after the previous one has returned.  A *job* is one
``score`` or ``eval`` invocation through ``cli.run_cli`` on a ``--format
bin`` input, or one ``pipelines.run_online_pipeline`` stream fed row by
row from a generator the benchmark owns.  A *round* runs every job once;
rounds repeat, each with the next sketch seed, until the run's time is
spent, and every timing is reported as the median wall time over rounds.

The inputs are planted data made here from the workload seed (not by
``sketch_anomaly.synth``, so a change there cannot change a workload): a
rank-k signal, white noise, and 2 % of rows carrying an off-subspace
anomaly.  Exact scores are checked against an independent
``np.linalg.svd`` reference, and F1 labels are the top 2 % of rows by
that reference's projection distance.  Input and reference are built in
a child process, so the benchmark's own arrays do not set ``peak_rss_mb``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import sketch_anomaly
from sketch_anomaly import cli, evaluate, io, pipelines
from tracing import Tracer

now = time.perf_counter

ETA = 0.02
NOISE_SCALE = 0.02
ANOMALY_SCALE = 4.0
ANOMALY_DIMS = 20
SETUP_REPEATS = 15
EVAL_SEEDS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    n: int
    d: int
    k: int
    ell: int
    online_rows: int
    why: str


# Every workload runs every job, because each run reports every end-to-end
# metric.  The online stream reads the first ``online_rows`` rows of the
# input, and each single-row FD write is followed by an svd_thin read of
# the sketch.  Shapes are sized so that one round of jobs takes 2-3 s: a
# 50 s run then holds 18-24 samples of each job.  Both shapes keep a large
# share of the work in BLAS.  Python-bound rounds (d=100, as in 5000x100)
# moved 15-25 % between runs with the host's speed, which no median removes.
WORKLOADS = {
    w.name: w
    for w in (
        # Per-row costs weigh most here: row validation, FD shrinks of an
        # 80x400 buffer, n*d*ell = 3.2e7 hash draws for the column plan,
        # 2000 records and their JSON per score job.
        Workload(
            "tall", 2000, 400, 8, 40, 200,
            "2000x400, k=8, ell=40: per-row layers (validation, FD shrinks, "
            "sampler draws, records, JSON) weigh most",
        ),
        # BLAS and decompositions dominate: an 800x800 eigh for exact,
        # shrinks of an 80x800 buffer, fewer rows and records than tall; an
        # online row costs ~2x a tall one because every row's read is an
        # SVD of a <=80x800 sketch.  n stays 1.5x d: at n = d the noise's
        # smallest singular values make exact full leverage too
        # ill-conditioned to match the reference to 1e-6.  200 online rows
        # make 3 shrinks (1.5 %), so p99 falls among the shrink rows.
        Workload(
            "wide", 1200, 800, 10, 40, 200,
            "1200x800, k=10, ell=40: decompositions and BLAS dominate; "
            "fewer rows and records than tall",
        ),
    )
}

SCORE_MODES = ("exact", "fd", "rowsample", "colsample", "rproj")
JOBS = SCORE_MODES + ("eval", "online")
SKETCH_MODES = SCORE_MODES[1:]

# Passes each job must make over its row source.
EXPECTED_PASSES = {
    "exact": 0,
    "fd": 2,
    "rowsample": 2,
    "colsample": 3,
    "rproj": 2,
    "eval": 2 * EVAL_SEEDS,
    "online": 1,
}

ROW_SPACE_FIELDS = (
    "full_leverage",
    "rank_k_leverage",
    "projection_distance",
    "tail_leverage",
)
PROJECTED_FIELDS = ("rank_k_leverage", "projection_distance")

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    **{f"score_s.{m}": ("s", "lower", 0.25) for m in SCORE_MODES},
    "eval_s": ("s", "lower", 0.25),
    # fd and rowsample rank the planted rows perfectly, which caps best F1
    # at the nearest grid point (e.g. 97 of 100 rows); any loss shows.
    "f1.fd": ("ratio", "higher", 0.05),
    "f1.rowsample": ("ratio", "higher", 0.05),
    "f1.colsample": ("ratio", "higher", 0.15),
    "f1.rproj": ("ratio", "higher", 0.15),
    "online_row_ms.p50": ("ms", "lower", 0.25),
    "online_row_ms.p99": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

_COMMON = (
    "cli.self_s",
    "cli.output_bytes",
    "io.load_s",
    "scores.records",
    "util.cpu_per_wall",
    "mem.peak_mb",
    "trace.overhead_s",
)
_PASS = ("pipelines.passes", "pipelines.rows_consumed", "linalg.as_row_calls")
_SVD = ("linalg.svd_thin_calls", "linalg.svd_thin_s")
_EIG = ("linalg.sym_eig_calls", "linalg.sym_eig_s")
_FD = ("sketches.fd_update_calls", "sketches.shrinks", "sketches.shrink_s")

# Per-layer metrics emitted for each job by the traced run.
JOB_LAYERS = {
    "exact": _COMMON + ("scores.batch_scores_s",) + _SVD + _EIG,
    "fd": _COMMON + _PASS + ("pipelines.pass0_s", "pipelines.pass1_s")
    + _FD + _SVD + _EIG,
    "rowsample": _COMMON + _PASS + ("pipelines.pass0_s", "pipelines.pass1_s")
    + ("rng.draws", "sketches.row_sample_s") + _SVD + _EIG,
    "colsample": _COMMON + _PASS
    + ("pipelines.pass0_s", "pipelines.pass1_s", "pipelines.pass2_s")
    + ("rng.draws", "sketches.column_sample_plan_s") + _EIG,
    "rproj": _COMMON + _PASS + ("pipelines.pass0_s", "pipelines.pass1_s")
    + ("sketches.sign_matrix_s",) + _EIG,
    "eval": _COMMON + ("pipelines.passes", "pipelines.rows_consumed")
    + ("evaluate.ground_truth_s", "evaluate.f1_sweep_s", "evaluate.seed_busy_s")
    + ("scores.batch_scores_s",) + _SVD + _EIG,
    "online": ("scores.records", "util.cpu_per_wall", "mem.peak_mb",
               "trace.overhead_s") + _PASS + ("pipelines.pass0_s",)
    + _FD + _SVD + _EIG,
}


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("cpu_per_wall"):
        return "cpu_s/s"
    return "count"


PER_LAYER = {
    f"{job}.{metric}": layer_unit(metric)
    for job in JOBS
    for metric in JOB_LAYERS[job]
}


def layer_better(metric: str) -> str:
    """More CPU per wall second means more work overlapped; all else costs."""
    return "higher" if metric.endswith("cpu_per_wall") else "lower"


# --- inputs -------------------------------------------------------------


def make_input(w: Workload, seed: int) -> np.ndarray:
    """Rank-k signal + white noise + off-subspace anomalies on 2 % of rows."""
    rng = np.random.default_rng([seed, w.n, w.d, w.k])
    q, r = np.linalg.qr(rng.standard_normal((w.d, w.k + ANOMALY_DIMS)))
    q *= np.where(np.diag(r) < 0, -1.0, 1.0)
    signal_dirs, anomaly_dirs = q[:, : w.k], q[:, w.k:]
    z = rng.standard_normal((w.n, w.k)) * np.linspace(1.3, 1.0, w.k)
    x = z @ signal_dirs.T + NOISE_SCALE * rng.standard_normal((w.n, w.d))
    count = round(ETA * w.n)
    rows = rng.choice(w.n, size=count, replace=False)
    push = rng.standard_normal((count, ANOMALY_DIMS))
    push *= ANOMALY_SCALE / np.linalg.norm(push, axis=1, keepdims=True)
    x[rows] += push @ anomaly_dirs.T
    return x


@dataclasses.dataclass(frozen=True)
class Reference:
    """Exact scores from QR then ``np.linalg.svd`` of the R factor."""

    full: np.ndarray
    rank_k: np.ndarray
    proj: np.ndarray
    labels: np.ndarray


def reference_scores(x: np.ndarray, k: int) -> Reference:
    r = np.linalg.qr(x, mode="r")
    _, sigma, vt = np.linalg.svd(r)
    alpha_sq = (x @ vt.T) ** 2
    row_sq = np.einsum("ij,ij->i", x, x)
    full = alpha_sq @ (1.0 / sigma**2)
    rank_k = alpha_sq[:, :k] @ (1.0 / sigma[:k] ** 2)
    proj = np.maximum(row_sq - alpha_sq[:, :k].sum(axis=1), 0.0)
    n = x.shape[0]
    order = np.lexsort((np.arange(n), -proj))
    labels = np.zeros(n, dtype=bool)
    labels[order[: math.ceil(ETA * n)]] = True
    return Reference(full, rank_k, proj, labels)


def prepare(w: Workload, seed: int, work: Path) -> None:
    """Write the input, and its reference and online rows, into ``work``.

    Runs in a child process (see ``prepared``): the input, the QR copy and
    ``x @ V`` are each n*d doubles and would otherwise set the benchmark
    process's peak RSS.
    """
    x = make_input(w, seed)
    input_path = work / "input.bin"
    io.save_snapshot(input_path, x)
    ref = reference_scores(x, w.k)
    np.savez(
        work / "reference.npz",
        digest=hashlib.sha256(input_path.read_bytes()).hexdigest(),
        online_rows=x[: w.online_rows],
        **dataclasses.asdict(ref),
    )


def prepared(w: Workload, seed: int, work: Path, src: Path):
    """Run ``prepare`` in a fresh interpreter; return (digest, rows, Reference)."""
    subprocess.run(
        [sys.executable, __file__, "prepare", json.dumps(dataclasses.asdict(w)),
         str(seed), str(work)],
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=120, check=True,
    )
    with np.load(work / "reference.npz") as z:
        ref = Reference(*(z[f.name] for f in dataclasses.fields(Reference)))
        return str(z["digest"]), z["online_rows"], ref


# --- correctness checks ---------------------------------------------------


def _column(records, name: str) -> np.ndarray:
    return np.array(
        [np.nan if r[name] is None else r[name] for r in records], dtype=float
    )


def check_score_output(records, mode: str, ref: Reference, k: int) -> str | None:
    """None if the ``score`` output is correct, else the reason."""
    n = ref.proj.shape[0]
    if not isinstance(records, list) or len(records) != n:
        return f"expected {n} records"
    if [r["row_index"] for r in records] != list(range(n)):
        return "row_index is not 0..n-1"
    if not all(r["defined"] for r in records):
        return "undefined record in a batch mode"
    fields = PROJECTED_FIELDS if mode in ("rproj", "colsample") else ROW_SPACE_FIELDS
    cols = {f: _column(records, f) for f in fields}
    if not all(np.all(np.isfinite(c)) for c in cols.values()):
        return "non-finite score"
    if np.any(cols["projection_distance"] < 0.0):
        return "negative projection distance"
    if mode == "exact":
        for name, want in (
            ("full_leverage", ref.full),
            ("rank_k_leverage", ref.rank_k),
            ("projection_distance", ref.proj),
        ):
            got = cols[name]
            tol = 1e-6 * np.abs(want) + 1e-9 * np.abs(want).max()
            if np.any(np.abs(got - want) > tol):
                return f"{name} differs from the SVD reference"
        if abs(cols["rank_k_leverage"].sum() - k) > 1e-6 * k:
            return "rank-k leverages do not sum to k"
    return None


def check_eval_output(report, seed: int) -> str | None:
    if not isinstance(report, dict):
        return "eval output is not an object"
    per_seed = report.get("per_seed") or []
    if [p["seed"] for p in per_seed] != list(range(seed, seed + EVAL_SEEDS)):
        return "per-seed entries do not match the requested seeds"
    for entry in per_seed + [report]:
        f1, p, r = entry["f1"], entry["precision"], entry["recall"]
        if not all(0.0 <= v <= 1.0 for v in (f1, p, r)):
            return "F1, precision or recall outside [0, 1]"
    for entry in per_seed:
        f1, p, r = entry["f1"], entry["precision"], entry["recall"]
        want = 2 * p * r / (p + r) if p + r > 0 else 0.0
        if abs(f1 - want) > 1e-12:
            return "per-seed F1 is not the harmonic mean of precision and recall"
    return None


def online_row_failures(records, rows: int, k: int) -> int:
    """Rows whose online record is wrong.

    The first k rows see a sketch of rank < k and must be undefined; every
    later row must be defined, finite, and have T >= 0.
    """
    if len(records) != rows:
        return rows
    bad = 0
    for i, rec in enumerate(records):
        if rec.row_index != i or rec.defined != (i >= k):
            bad += 1
        elif rec.defined and not (
            all(
                math.isfinite(v)
                for v in (rec.full_leverage, rec.rank_k_leverage,
                          rec.projection_distance, rec.tail_leverage)
            )
            and rec.projection_distance >= 0.0
        ):
            bad += 1
    return bad


# --- jobs ---------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    job: str
    wall: float
    cpu: float
    attempted: int
    failed: int
    reason: str | None = None
    f1: float | None = None
    latencies: list = dataclasses.field(default_factory=list)
    tracer: Tracer | None = None
    output_bytes: int = 0
    mem_peak: int = 0


def _timed_rows(rows: np.ndarray, latencies: list):
    """Yield rows; each row's latency runs from hand-over to the next request."""
    for row in rows:
        t0 = now()
        yield row
        latencies.append(now() - t0)


class Runner:
    def __init__(self, w: Workload, seed: int, work: Path, src: Path):
        self.w = w
        self.work = work
        self.input_path = work / "input.bin"
        self.digest, self.online_rows, self.ref = prepared(w, seed, work, src)
        self.grid = evaluate.default_sweep_grid(ETA)

    def argv(self, job: str, sketch_seed: int) -> list[str]:
        w = self.w
        common = ["--k", str(w.k), "--format", "bin", "--input", str(self.input_path)]
        if job == "exact":
            return ["score", "--mode", "exact"] + common
        if job == "eval":
            return ["eval", "--mode", "rproj", "--ell", str(w.ell),
                    "--eta", str(ETA), "--seed", str(sketch_seed),
                    "--seeds", str(EVAL_SEEDS)] + common
        return ["score", "--mode", job, "--ell", str(w.ell),
                "--seed", str(sketch_seed)] + common

    def run(self, job: str, sketch_seed: int, detail: bool = False,
            memory: bool = False) -> Outcome:
        gc.collect()
        if job == "online":
            return self._run_online(sketch_seed, detail, memory)
        return self._run_cli(job, sketch_seed, detail, memory)

    def _timed(self, call, tracer: Tracer, memory: bool):
        """Run ``call()`` once under the tracer; an exception is reported.

        Returns (result or None, wall s, process CPU s, tracemalloc peak).
        """
        with tracer:
            if memory:
                tracemalloc.start()
            root = tracer.open("job")
            cpu0, t0 = time.process_time(), now()
            try:
                result = call()
            except Exception:
                traceback.print_exc()
                result = None
            wall, cpu = now() - t0, time.process_time() - cpu0
            tracer.close(root)
            mem_peak = tracemalloc.get_traced_memory()[1] if memory else 0
            if memory:
                tracemalloc.stop()
        return result, wall, cpu, mem_peak

    def _run_cli(self, job, sketch_seed, detail, memory) -> Outcome:
        out = self.work / f"{job}.json"
        argv = self.argv(job, sketch_seed) + ["--output", str(out)]
        tracer = Tracer(detail)
        rc, wall, cpu, mem_peak = self._timed(
            lambda: cli.run_cli(argv), tracer, memory
        )
        outcome = Outcome(job, wall, cpu, attempted=1, failed=0, tracer=tracer,
                          mem_peak=mem_peak)
        if rc != 0:
            outcome.reason = f"exit code {rc}"
        else:
            outcome.reason = self._check_cli(outcome, out, sketch_seed)
        outcome.failed = int(outcome.reason is not None)
        return outcome

    def _check_cli(self, outcome: Outcome, out: Path, sketch_seed: int) -> str | None:
        """Check one job's output; also sets its output size and F1."""
        job = outcome.job
        passes = outcome.tracer.counts["pipelines.passes"]
        if passes != EXPECTED_PASSES[job]:
            return f"{passes} passes, expected {EXPECTED_PASSES[job]}"
        try:
            text = out.read_bytes()
            data = json.loads(text)
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}"
        outcome.output_bytes = len(text)
        try:
            if job == "eval":
                return check_eval_output(data, sketch_seed)
            reason = check_score_output(data, job, self.ref, self.w.k)
        except (KeyError, TypeError) as exc:
            return f"malformed record: {exc!r}"
        if reason is None and job != "exact":
            scores = _column(data, "projection_distance")
            outcome.f1 = evaluate.f1_sweep(scores, self.ref.labels, self.grid).f1
        return reason

    def _run_online(self, sketch_seed, detail, memory) -> Outcome:
        w = self.w
        rows = self.online_rows
        latencies: list[float] = []
        cfg = pipelines.PipelineConfig(
            k=w.k, ell=w.ell, seed=sketch_seed, mode="online-fd"
        )
        tracer = Tracer(detail)
        run = tracer.pipeline(pipelines.run_online_pipeline, "pipelines.run")
        records, wall, cpu, mem_peak = self._timed(
            lambda: run(lambda: _timed_rows(rows, latencies), cfg), tracer, memory
        )
        outcome = Outcome("online", wall, cpu, attempted=len(rows), failed=0,
                          latencies=latencies, tracer=tracer, mem_peak=mem_peak)
        if records is None:
            outcome.failed, outcome.reason = len(rows), "raised"
        elif tracer.counts["pipelines.passes"] != 1:
            outcome.failed, outcome.reason = len(rows), "more than one pass"
        else:
            outcome.failed = online_row_failures(records, len(rows), w.k)
            if outcome.failed:
                outcome.reason = f"{outcome.failed} bad rows"
        return outcome


# --- set-up time ----------------------------------------------------------

_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import sketch_anomaly
from sketch_anomaly import io
io.load_matrix(sys.argv[1], fmt="bin")
print(time.perf_counter() - t0)
"""


def setup_time(input_path: Path, src: Path) -> float:
    """Wall time to import the package and load the input in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(input_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


# --- statistics -----------------------------------------------------------


def summary(values) -> dict:
    values = list(values)
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "sketch_anomaly": sketch_anomaly.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {
            k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "SKETCH_ANOMALY_THREADS"
        },
        "machine": platform.machine(),
    }


def layer_values(outcome: Outcome) -> dict:
    """Per-layer numbers of one traced job."""
    t = outcome.tracer
    c = t.counts
    root = next(s for s in t.spans if s.name == "job")
    values = {
        "cli.self_s": t.self_time(root),
        "cli.output_bytes": outcome.output_bytes,
        "io.load_s": t.total("io.load_matrix"),
        "scores.records": c["scores.records"],
        "pipelines.passes": c["pipelines.passes"],
        "pipelines.rows_consumed": c["pipelines.rows_consumed"],
        "linalg.as_row_calls": c["linalg.as_row_calls"],
        "linalg.svd_thin_calls": t.calls("linalg.svd_thin") + t.calls("sketches.shrink"),
        "linalg.svd_thin_s": t.total("linalg.svd_thin") + t.total("sketches.shrink"),
        "linalg.sym_eig_calls": t.calls("linalg.sym_eig"),
        "linalg.sym_eig_s": t.total("linalg.sym_eig"),
        "sketches.fd_update_calls": c["sketches.fd_update_calls"],
        "sketches.shrinks": t.calls("sketches.shrink"),
        "sketches.shrink_s": t.total("sketches.shrink"),
        "rng.draws": c["rng.draws"],
        "sketches.row_sample_s": t.total("sketches.row_sample"),
        "sketches.column_sample_plan_s": t.total("sketches.column_sample_plan"),
        "sketches.sign_matrix_s": t.total("sketches.sign_matrix"),
        "scores.batch_scores_s": t.total("scores.batch_scores"),
        "evaluate.ground_truth_s": t.total("evaluate.ground_truth"),
        "evaluate.f1_sweep_s": t.total("evaluate.f1_sweep"),
        "evaluate.seed_busy_s": t.total("evaluate.seed"),
    }
    for i in range(3):
        values[f"pipelines.pass{i}_s"] = t.total(f"pipelines.pass{i}")
    return values


# --- a run ----------------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    report: dict


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, src: Path) -> RunResult:
    runner = Runner(w, seed, work, src)
    rss_before_jobs = _max_rss_mb()
    setups = [setup_time(runner.input_path, src) for _ in range(SETUP_REPEATS)]

    plain: dict[str, list[Outcome]] = {j: [] for j in JOBS}
    traced: dict[str, list[Outcome]] = {j: [] for j in JOBS}
    # One untimed round first, so lazy imports and first-call set-up in the
    # package and numpy are not timed; the first timed round repeats it.
    for job in JOBS:
        runner.run(job, 100 * seed)
    start = now()
    rounds = 0
    while True:
        sketch_seed = 100 * seed + rounds
        for job in JOBS:
            plain[job].append(runner.run(job, sketch_seed))
            if trace:
                traced[job].append(runner.run(job, sketch_seed, detail=True))
        rounds += 1
        # Stop at the round whose end lands nearest the deadline.
        elapsed = now() - start
        if elapsed + 0.5 * elapsed / rounds >= seconds:
            break
    memory: dict[str, Outcome] = {}
    if trace:
        # tracemalloc slows Python allocation several-fold, so memory gets
        # its own pass after the timed rounds and no timing comes from it.
        memory = {job: runner.run(job, 100 * seed, memory=True) for job in JOBS}

    everything = [o for runs in (*plain.values(), *traced.values()) for o in runs]
    everything += memory.values()
    attempted = sum(o.attempted for o in everything)
    failed = sum(o.failed for o in everything)
    failures = [f"{o.job}: {o.reason}" for o in everything if o.reason]

    wall = {j: summary(o.wall for o in plain[j]) for j in JOBS}
    latencies_ms = [1e3 * v for o in plain["online"] for v in o.latencies]
    e2e = {
        "setup_s": statistics.median(setups),
        **{f"score_s.{m}": wall[m]["median"] for m in SCORE_MODES},
        "eval_s": wall["eval"]["median"],
        **{
            f"f1.{m}": _mean([o.f1 for o in plain[m] if o.f1 is not None])
            for m in SKETCH_MODES
        },
        "online_row_ms.p50": _percentile(latencies_ms, 50),
        "online_row_ms.p99": _percentile(latencies_ms, 99),
        "peak_rss_mb": _max_rss_mb(),
    }

    layers = {}
    overhead = {}
    if trace:
        for job in JOBS:
            runs = [layer_values(o) for o in traced[job]]
            # Each traced call runs right after its untraced twin, so the
            # pair shares the machine's state; the median pair difference
            # is steadier than a difference of medians.
            overhead[job] = statistics.median(
                t.wall - p.wall for t, p in zip(traced[job], plain[job])
            )
            extra = {
                "util.cpu_per_wall": statistics.median(
                    o.cpu / o.wall for o in plain[job]
                ),
                "mem.peak_mb": memory[job].mem_peak / 2**20,
                "trace.overhead_s": overhead[job],
            }
            for metric in JOB_LAYERS[job]:
                value = extra.get(metric)
                if value is None:
                    value = statistics.median(r[metric] for r in runs)
                layers[f"{job}.{metric}"] = value

    report = {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "shape": {"n": w.n, "d": w.d, "k": w.k, "ell": w.ell,
                  "online_rows": w.online_rows, "eval_seeds": EVAL_SEEDS,
                  "eta": ETA},
        "sketch_seeds": [100 * seed + r for r in range(rounds)],
        "input_sha256": runner.digest,
        "environment": environment(),
        "rounds": rounds,
        "setup_s": summary(setups),
        "job_s": wall,
        "online_row_ms": {**summary(latencies_ms),
                          "p99": e2e["online_row_ms.p99"]},
        # peak_rss_mb comes from the jobs only if it exceeds this.
        "rss_before_jobs_mb": rss_before_jobs,
        "ops_failed_frac": failed / attempted,
        "failures": failures[:20],
    }
    if trace:
        report["trace_overhead_s"] = overhead
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": spec[0]}
                   for name, spec in END_TO_END.items()}
    report["metrics"] = metrics
    return RunResult(failed == 0, attempted, failed, metrics, report)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _mean(values):
    return statistics.fmean(values) if values else None


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else None


if __name__ == "__main__" and sys.argv[1:2] == ["prepare"]:
    prepare(Workload(**json.loads(sys.argv[2])), int(sys.argv[3]), Path(sys.argv[4]))

"""Command-line interface.

Subcommands:

* ``score``  - compute anomaly scores (exact or sketched) for a matrix.
* ``verify`` - run bound-checking sweeps, emit JSON-lines reports.
* ``eval``   - F1 of a sketched scorer against exact-SVD ground truth.
* ``synth``  - generate a seeded synthetic dataset with planted anomalies.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification suite
had an applicable bound that failed.  Output is byte-deterministic for
fixed inputs, flags, and seeds.

A ``score`` or ``eval`` job accepts only the flags it reads: ``--ell``
and ``--mu`` outside mode exact, ``--mu`` only without ``--ell``;
``--lambda`` where a ridge column is read, in ``score`` outside
``pipelines.PROJECTED_MODES`` or in ``eval --score ridge``; ``--header``
with ``--format csv``; ``--sketch-out`` or ``--sketch-in``, not both, in the
modes of ``pipelines.FIRST_PASSES``, and ``--sketch-out`` with neither
``--output`` nor ``--lambda``.  ``--seed`` and ``--seeds`` pass in every
mode.  ``run_cli`` checks this rule, ``_check_flags``, before the job runs.
A flag given against it, like any usage error argparse cannot see, raises
``_UsageError``: one stderr line, exit 1, nothing written.

``score --sketch-out`` saves the state of the mode's
``pipelines.FIRST_PASSES`` entry; ``--sketch-in`` checks a saved state
against the job and its input and resumes it through ``run_pipeline``.

``score`` writes the ``ScoreTable`` its scorer returns with
``ScoreTable.to_json``, which documents the bytes.

The argparse parser is built once per process, on the first ``run_cli``
call, not at import.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .errors import (
    ConvergenceError,
    DataFormatError,
    DegenerateSpectrumError,
    RankDeficientError,
    ShapeError,
    ZeroMassError,
)
from .evaluate import EvalConfig, evaluate_pipeline
from .io import load_matrix, load_snapshot, save_csv, save_snapshot
from .pipelines import FIRST_PASSES, PROJECTED_MODES, RANDOMIZED_MODES
from .pipelines import PipelineConfig, run_pipeline
from .rng import seed64
from .scores import ScoreTable, batch_scores
from .sketches import ColumnSamplePlan, FrequentDirections
from .synth import planted_anomaly_dataset
from .verify import (
    SUITES,
    colsample_ell_for_mu,
    fd_ell_for_mu,
    rproj_ell_for_mu,
    run_suite,
)

_SCORE_FLAG_TO_KIND = {
    "levk": "leverage-k",
    "projk": "projection-k",
    "ridge": "ridge",
    "tail": "tail",
    "full": "full",
}

_CLI_MODES = ("exact", "fd", "rproj", "colsample", "rowsample", "online")
_NO_SEED = "unread by " + ", ".join(m for m in _CLI_MODES if m not in RANDOMIZED_MODES)

_DATA_ERRORS = (
    DataFormatError,
    ShapeError,
    ZeroMassError,
    RankDeficientError,
    DegenerateSpectrumError,
    ConvergenceError,
    OSError,
)


class _UsageError(Exception):
    """A usage error argparse cannot see; its message is printed whole."""


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


class _ScoreRows(list):
    """A ``ScoreTable`` passed to ``_dump_json`` as the list of rows it
    writes, with no per-row object built.

    ``_dump_json`` stays the one hook on every JSON document the CLI
    writes: perfbench/selftest.py wraps it and sets
    ``rows[0]["projection_distance"]`` to check that the benchmark flags
    a corrupted ``score`` output.  Item i is a view of row i whose writes
    go to the table's columns.
    """

    def __init__(self, table: ScoreTable):
        super().__init__()
        self.table = table

    def __getitem__(self, i: int) -> "_RowCells":
        return _RowCells(self.table, i)


class _RowCells:
    def __init__(self, table: ScoreTable, i: int):
        self.table, self.i = table, i

    def __setitem__(self, field: str, value: float) -> None:
        getattr(self.table, field)[self.i] = value


def _dump_json(obj) -> str:
    if isinstance(obj, _ScoreRows):
        return obj.table.to_json()
    return json.dumps(obj, indent=2) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later ``run_cli`` call in the process: ``parse_args`` keeps no state
    between calls."""
    parser = argparse.ArgumentParser(
        prog="sketch-anomaly",
        description="Streaming subspace anomaly scores and bound verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p, input_required=True):
        p.add_argument("--input", required=input_required, help="input matrix path")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument(
            "--format", choices=("csv", "bin"), default="csv", help="input format"
        )
        p.add_argument(
            "--header", action="store_true", help="CSV input has a header line"
        )

    score = sub.add_parser("score", help="compute anomaly scores")
    score.add_argument("--mode", choices=_CLI_MODES, default="exact")
    score.add_argument("--k", type=int, required=True)
    score.add_argument("--ell", type=int)
    score.add_argument(
        "--mu",
        type=float,
        help="target covariance error; sets --ell via the sketch-size "
        "formulas assuming stable rank ~ k",
    )
    score.add_argument("--lambda", dest="lam", type=float)
    score.add_argument("--seed", type=int, default=0, help=f"sketch seed, {_NO_SEED}")
    score.add_argument("--sketch-out", help="persist pass-0/1 sketch state and stop")
    score.add_argument("--sketch-in", help="resume from persisted sketch state")
    add_io_flags(score)
    score.set_defaults(func=cmd_score, parser=score)

    verify = sub.add_parser("verify", help="run bound-check sweeps")
    verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    verify.add_argument("--seeds", type=int, default=20)
    verify.add_argument("--seed", type=int, default=0, help="base seed")
    verify.add_argument("--epsilon", type=float)
    verify.add_argument("--out", "--output", dest="output")
    verify.set_defaults(func=cmd_verify)

    evalp = sub.add_parser("eval", help="F1 against exact ground truth")
    evalp.add_argument("--mode", choices=_CLI_MODES, default="fd")
    evalp.add_argument("--k", type=int, required=True)
    evalp.add_argument("--ell", type=int)
    evalp.add_argument("--mu", type=float)
    evalp.add_argument("--eta", type=float, required=True)
    evalp.add_argument(
        "--score", choices=tuple(_SCORE_FLAG_TO_KIND), default="projk"
    )
    evalp.add_argument("--lambda", dest="lam", type=float)
    evalp.add_argument("--seed", type=int, default=0, help=f"first seed, {_NO_SEED}")
    evalp.add_argument("--seeds", type=int, default=5, help=f"seed count, {_NO_SEED}")
    add_io_flags(evalp)
    evalp.set_defaults(func=cmd_eval, parser=evalp)

    synth = sub.add_parser("synth", help="generate planted-anomaly data")
    synth.add_argument("--n", type=int, required=True)
    synth.add_argument("--d", type=int, required=True)
    synth.add_argument("--k", type=int, required=True)
    synth.add_argument("--eta", type=float, default=0.02, help="anomaly fraction")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--anomaly-scale", type=float, default=4.0)
    synth.add_argument("--noise-scale", type=float, default=0.02)
    synth.add_argument("--output", required=True)
    synth.add_argument("--format", choices=("csv", "bin"), default="csv")
    synth.set_defaults(func=cmd_synth)

    return parser


def _pipeline_job(args) -> tuple[str, int]:
    """A ``score`` or ``eval`` job's pipeline mode and ell: ``--ell``, or
    the size ``--mu`` sets.  An exact job reads neither; 0 stands in."""
    mode = "online-fd" if args.mode == "online" else args.mode
    if args.mu is None:
        return mode, args.ell or 0
    # A relative covariance error of 1 or more asks for no sketch; NaN and
    # inf are left to the helpers' own check.
    if 1.0 <= args.mu < math.inf:
        raise ValueError(f"mu must be below 1, got {args.mu}")
    # Stable-rank proxy sr ~ k, per the approximate low-rank assumption.
    if mode == "rproj":
        return mode, rproj_ell_for_mu(args.mu, float(args.k))
    # Length-squared sampling, of columns or of rows, follows one law.
    if mode in ("colsample", "rowsample"):
        return mode, colsample_ell_for_mu(args.mu, float(args.k))
    return mode, fd_ell_for_mu(args.mu, float(args.k), args.k)


def _check_flags(args) -> None:
    """Raise ``_UsageError`` if a ``score`` or ``eval`` job breaks the flag rule."""
    job, mode, unread = args.command, args.mode, {}
    if mode == "exact":
        unread = dict.fromkeys(("ell", "mu"), "in mode exact")
    elif args.ell is not None:
        unread["mu"] = "with --ell"
    elif args.mu is None:
        raise _UsageError(f"{job}: --ell (or --mu) is required for sketched modes")
    if job == "eval" and args.score != "ridge":
        unread["lam"] = f"with --score {args.score}"
    elif job == "score" and mode in PROJECTED_MODES:
        unread["lam"] = f"in mode {mode}"
    if args.format != "csv":
        unread["header"] = f"with --format {args.format}"
    if job == "score" and mode not in FIRST_PASSES:
        unread |= dict.fromkeys(("sketch_out", "sketch_in"), f"in mode {mode}")
    elif job == "score" and args.sketch_out:
        unread |= dict.fromkeys(("sketch_in", "output", "lam"), "with --sketch-out")
    for dest, where in unread.items():
        if getattr(args, dest) != args.parser.get_default(dest):
            flag = "--lambda" if dest == "lam" else "--" + dest.replace("_", "-")
            raise _UsageError(f"{job}: {flag} is not read {where}")


def _resumed_state(path: str, cfg: PipelineConfig, matrix):
    """The pass-zero state saved at ``path``, checked to be ``cfg.mode``'s,
    built with the job's flags, on an input of ``matrix``'s shape.  An fd
    snapshot stores no row count, so only a column plan's is checked."""
    state = load_snapshot(path)
    plan = cfg.mode == "colsample"
    n, d = matrix.shape
    if not isinstance(state, ColumnSamplePlan if plan else FrequentDirections):
        error = "not a column-plan snapshot" if plan else "not an fd snapshot"
    elif state.ell != cfg.ell:
        error = f"snapshot was built with ell {state.ell}, but --ell is {cfg.ell}"
    elif plan and state.seed != seed64(cfg.seed):
        error = f"snapshot was built with seed {state.seed}, but --seed is {cfg.seed}"
    elif state.dim != d:
        error = f"snapshot was built on {state.dim} columns, but the input has {d}"
    elif plan and state.entries_seen != n * d:
        error = f"snapshot saw {state.entries_seen} entries, but the input has {n * d}"
    else:
        return state
    raise DataFormatError(f"{path}: {error}")


def cmd_score(args) -> int:
    mode, ell = _pipeline_job(args)
    matrix = load_matrix(args.input, fmt=args.format, header=args.header)

    if mode == "exact":
        table = batch_scores(matrix, args.k, lam=args.lam)
    else:
        cfg = PipelineConfig(k=args.k, ell=ell, seed=args.seed, lam=args.lam, mode=mode)
        if args.sketch_out:
            save_snapshot(args.sketch_out, FIRST_PASSES[mode](matrix, cfg))
            return 0
        state = _resumed_state(args.sketch_in, cfg, matrix) if args.sketch_in else None
        table = run_pipeline(lambda: matrix, cfg, state)

    _emit(_dump_json(_ScoreRows(table)), args.output)
    return 0


def cmd_verify(args) -> int:
    reports = run_suite(args.suite, args.seeds, base_seed=args.seed, eps=args.epsilon)
    lines = [json.dumps(r.to_dict()) for r in reports]
    _emit("\n".join(lines) + "\n", args.output)
    failed = [r for r in reports if r.applicable and not r.passed]
    if failed:
        print(
            f"verify: {len(failed)} applicable bound(s) FAILED "
            f"(of {len(reports)} reports)",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_eval(args) -> int:
    mode, ell = _pipeline_job(args)
    matrix = load_matrix(args.input, fmt=args.format, header=args.header)
    cfg = EvalConfig(
        k=args.k,
        eta=args.eta,
        score_kind=_SCORE_FLAG_TO_KIND[args.score],
        lam=args.lam,
    )
    seeds = tuple(range(args.seed, args.seed + args.seeds))
    report = evaluate_pipeline(matrix, mode, ell, cfg, seeds)
    _emit(_dump_json(report.to_dict()), args.output)
    return 0


def cmd_synth(args) -> int:
    matrix, _planted = planted_anomaly_dataset(
        args.n,
        args.d,
        args.k,
        args.seed,
        anomaly_fraction=args.eta,
        anomaly_scale=args.anomaly_scale,
        noise_scale=args.noise_scale,
    )
    if args.format == "csv":
        save_csv(args.output, matrix)
    else:
        save_snapshot(args.output, matrix)
    return 0


def run_cli(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command in ("score", "eval"):
            _check_flags(args)
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except _DATA_ERRORS as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"{parser.prog}: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()

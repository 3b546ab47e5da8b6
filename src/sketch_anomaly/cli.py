"""Command-line interface.

Subcommands:

* ``score``  - compute anomaly scores (exact or sketched) for a matrix.
* ``verify`` - run bound-checking sweeps, emit JSON-lines reports.
* ``eval``   - F1 of a sketched scorer against exact-SVD ground truth.
* ``synth``  - generate a seeded synthetic dataset with planted anomalies.

Exit codes: 0 success, 1 usage error, 2 data error, 3 verification suite
had an applicable bound that failed.  Output is byte-deterministic for
fixed inputs, flags, and seeds.

``score`` writes the ``ScoreTable`` its scorer returns, straight from the
score columns (``ScoreTable.to_json``): the bytes are exactly those of
``json.dumps(rows, indent=2) + "\n"``, where ``rows`` holds one dict per
row with the keys row_index, full_leverage, rank_k_leverage,
projection_distance, tail_leverage, ridge_leverage, mode, defined and
projection_distance_raw, in that order, and null for a score the mode does
not fill or an undefined online row.
"""

from __future__ import annotations

import argparse
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
from .pipelines import (
    PipelineConfig,
    run_colsample_pipeline,
    run_fd_pipeline,
    run_pipeline,
)
from .rng import seed64
from .scores import ScoreTable, batch_scores
from .sketches import (
    ColumnSamplePlan,
    FrequentDirections,
    column_sample_plan,
    fd_ingest,
)
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

_DATA_ERRORS = (
    DataFormatError,
    ShapeError,
    ZeroMassError,
    RankDeficientError,
    DegenerateSpectrumError,
    ConvergenceError,
    OSError,
)


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


def build_parser() -> argparse.ArgumentParser:
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
    score.add_argument("--seed", type=int, default=0)
    score.add_argument("--sketch-out", help="persist pass-0/1 sketch state and stop")
    score.add_argument("--sketch-in", help="resume from persisted sketch state")
    add_io_flags(score)
    score.set_defaults(func=cmd_score)

    verify = sub.add_parser("verify", help="run bound-check sweeps")
    verify.add_argument("--suite", default="all", help=f"one of: all, {', '.join(SUITES)}")
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
    evalp.add_argument("--seed", type=int, default=0)
    evalp.add_argument("--seeds", type=int, default=5, help="seed count for randomized modes")
    add_io_flags(evalp)
    evalp.set_defaults(func=cmd_eval)

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


def _resolve_ell(args, mode: str) -> int | None:
    if args.ell is not None:
        return args.ell
    if args.mu is None or mode == "exact":
        return None
    # A relative covariance error of 1 or more asks for no sketch; NaN and
    # inf are left to the helpers' own check.
    if 1.0 <= args.mu < math.inf:
        raise ValueError(f"mu must be below 1, got {args.mu}")
    # Stable-rank proxy sr ~ k, per the approximate low-rank assumption.
    if mode == "rproj":
        return rproj_ell_for_mu(args.mu, float(args.k))
    # Length-squared sampling, of columns or of rows, follows one law.
    if mode in ("colsample", "rowsample"):
        return colsample_ell_for_mu(args.mu, float(args.k))
    return fd_ell_for_mu(args.mu, float(args.k), args.k)


def cmd_score(args) -> int:
    mode = args.mode
    ell = _resolve_ell(args, mode)
    if mode != "exact" and ell is None:
        print("score: --ell (or --mu) is required for sketched modes", file=sys.stderr)
        return 1
    if (args.sketch_out or args.sketch_in) and mode not in ("fd", "colsample"):
        print("score: sketch persistence is supported for fd and colsample", file=sys.stderr)
        return 1

    matrix = load_matrix(args.input, fmt=args.format, header=args.header)
    row_source = lambda: matrix

    if mode == "exact":
        table = batch_scores(matrix, args.k, lam=args.lam)
    else:
        cfg = PipelineConfig(
            k=args.k,
            ell=ell,
            seed=args.seed,
            lam=args.lam,
            mode="online-fd" if mode == "online" else mode,
        )
        if args.sketch_out:
            if mode == "fd":
                save_snapshot(args.sketch_out, fd_ingest(row_source(), ell))
            else:
                plan = column_sample_plan(row_source(), ell, args.seed)
                save_snapshot(args.sketch_out, plan)
            return 0
        if args.sketch_in:
            state = load_snapshot(args.sketch_in)
            if mode == "fd":
                if not isinstance(state, FrequentDirections):
                    raise DataFormatError(f"{args.sketch_in}: not an fd snapshot")
                _check_snapshot_flag(args.sketch_in, "ell", state.ell, ell)
                table = run_fd_pipeline(row_source, cfg, state=state)
            else:
                if not isinstance(state, ColumnSamplePlan):
                    raise DataFormatError(
                        f"{args.sketch_in}: not a column-plan snapshot"
                    )
                _check_snapshot_flag(args.sketch_in, "ell", state.ell, ell)
                _check_snapshot_flag(
                    args.sketch_in, "seed", state.seed, args.seed, seed64
                )
                table = run_colsample_pipeline(row_source, cfg, plan=state)
        else:
            table = run_pipeline(row_source, cfg)

    _emit(_dump_json(_ScoreRows(table)), args.output)
    return 0


def _check_snapshot_flag(
    path: str, name: str, stored: int, flag: int, key=int
) -> None:
    """Reject a snapshot whose stored value is not ``key(flag)``."""
    if stored != key(flag):
        raise DataFormatError(
            f"{path}: snapshot was built with {name} {stored}, but --{name} is {flag}"
        )


def cmd_verify(args) -> int:
    suite = args.suite
    known = ("all",) + SUITES
    if suite not in known:
        print(f"verify: unknown suite {suite!r}; choose from {known}", file=sys.stderr)
        return 1
    reports = run_suite(suite, args.seeds, base_seed=args.seed, eps=args.epsilon)
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
    ell = _resolve_ell(args, args.mode)
    if args.mode != "exact" and ell is None:
        print("eval: --ell (or --mu) is required for sketched modes", file=sys.stderr)
        return 1
    matrix = load_matrix(args.input, fmt=args.format, header=args.header)
    cfg = EvalConfig(
        k=args.k,
        eta=args.eta,
        score_kind=_SCORE_FLAG_TO_KIND[args.score],
        lam=args.lam,
    )
    seeds = tuple(range(args.seed, args.seed + args.seeds))
    mode = "online-fd" if args.mode == "online" else args.mode
    report = evaluate_pipeline(matrix, mode, ell or 0, cfg, seeds)
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
        return args.func(args)
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

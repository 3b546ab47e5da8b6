"""Spans and counters recorded from outside the package.

Nothing here edits ``sketch_anomaly``: a ``Tracer`` temporarily replaces
module attributes with wrappers while a job runs, and puts the originals
back afterwards.  Because the package binds names at import time
(``from .linalg import svd_thin``), each wrapper is installed in the
namespace of the module that makes the call, which also tells us the
call site (an ``svd_thin`` called from ``sketches`` is an FD shrink).

Two levels:

* ``detail=False`` only wraps the row sources handed to the pipelines, so
  the untimed correctness check can count passes; it costs one Python call
  per pass.
* ``detail=True`` records a span (name, start, end, parent) at every layer
  boundary listed in ``_patch_plan`` plus per-row counters.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass

import sketch_anomaly.cli as cli_mod
import sketch_anomaly.evaluate as evaluate_mod
import sketch_anomaly.linalg as linalg_mod
import sketch_anomaly.pipelines as pipelines_mod
import sketch_anomaly.scores as scores_mod
import sketch_anomaly.sketches as sketches_mod

now = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None


class Tracer:
    """Spans and counts of one job, safe to record from pool threads."""

    def __init__(self, detail: bool):
        self.detail = detail
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's first span belongs to whatever the main thread
            # is inside (the call that submitted the work).
            parent = self._main_stack[-1] if self._main_stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        stack.append(span_id)
        return name, now(), span_id, parent, stack

    def close(self, token) -> None:
        name, start, span_id, parent, stack = token
        end = now()
        # Not always the innermost: a pass span ends when its iterator is
        # exhausted, which can happen inside a span opened after it.
        stack.remove(span_id)
        with self._lock:
            self.spans.append(Span(name, start, end, span_id, parent))

    def timed(self, fn, name: str, count_len: str | None = None):
        """Wrapper recording a span around each call of ``fn``."""

        def wrapper(*args, **kwargs):
            token = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(token)
            if count_len is not None:
                self.count(count_len, len(result))
            return result

        return wrapper

    def counted(self, fn, name: str, size: bool = False):
        """Wrapper counting calls of ``fn`` (or elements it returns)."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.count(name, result.size if size else 1)
            return result

        return wrapper

    def pipeline(self, fn, name: str):
        """Wrap a ``run_*pipeline(row_source, cfg, ...)`` entry point.

        The row source is replaced by one that counts passes and, in detail
        mode, records one span per pass from the call that opens it to the
        exhaustion of its iterator, and counts the rows it yields.
        """
        tracer = self

        def wrapper(row_source, *args, **kwargs):
            passes = [0]

            def source():
                index = passes[0]
                passes[0] += 1
                tracer.count("pipelines.passes")
                if not tracer.detail:
                    return row_source()
                token = tracer.open(f"pipelines.pass{index}")
                return _spanned_rows(tracer, row_source(), token)

            if not tracer.detail:
                return fn(source, *args, **kwargs)
            token = tracer.open(name)
            try:
                result = fn(source, *args, **kwargs)
            finally:
                tracer.close(token)
            tracer.count("scores.records", len(result))
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for owner, attr, make in _patch_plan(self):
            self._replace(owner, attr, make(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ---------------------------------------------------------

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_time(self, span: Span) -> float:
        """Span duration minus the part of it covered by its child spans."""
        children = sorted(
            (max(c.start, span.start), min(c.end, span.end))
            for c in self.spans
            if c.parent == span.span_id
        )
        covered = 0.0
        cur_start = cur_end = None
        for start, end in children:
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        return (span.end - span.start) - covered


def _spanned_rows(tracer: Tracer, rows, token):
    n = 0
    try:
        for row in rows:
            n += 1
            yield row
    finally:
        tracer.close(token)
        tracer.count("pipelines.rows_consumed", n)


def _patch_plan(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every traced boundary."""
    t = tracer
    plan = [
        (cli_mod, "run_pipeline", lambda f: t.pipeline(f, "pipelines.run")),
        (evaluate_mod, "run_pipeline", lambda f: t.pipeline(f, "evaluate.seed")),
    ]
    if not t.detail:
        return plan
    plan += [
        (cli_mod, "load_matrix", lambda f: t.timed(f, "io.load_matrix")),
        (cli_mod, "batch_scores",
         lambda f: t.timed(f, "scores.batch_scores", "scores.records")),
        (evaluate_mod, "batch_scores",
         lambda f: t.timed(f, "scores.batch_scores", "scores.records")),
        (cli_mod, "evaluate_pipeline", lambda f: t.timed(f, "evaluate.pipeline")),
        (evaluate_mod, "ground_truth", lambda f: t.timed(f, "evaluate.ground_truth")),
        (evaluate_mod, "f1_sweep", lambda f: t.timed(f, "evaluate.f1_sweep")),
        (pipelines_mod, "row_sample", lambda f: t.timed(f, "sketches.row_sample")),
        (pipelines_mod, "column_sample_plan",
         lambda f: t.timed(f, "sketches.column_sample_plan")),
        (sketches_mod.SignProjector, "matrix",
         lambda f: t.timed(f, "sketches.sign_matrix")),
        (sketches_mod.FrequentDirections, "update",
         lambda f: t.counted(f, "sketches.fd_update_calls")),
        (sketches_mod, "uniform01", lambda f: t.counted(f, "rng.draws", size=True)),
        (sketches_mod, "svd_thin", lambda f: t.timed(f, "sketches.shrink")),
        (linalg_mod, "sym_eig", lambda f: t.timed(f, "linalg.sym_eig")),
    ]
    for mod in (pipelines_mod, scores_mod):
        plan.append((mod, "svd_thin", lambda f: t.timed(f, "linalg.svd_thin")))
        plan.append((mod, "sym_eig", lambda f: t.timed(f, "linalg.sym_eig")))
    for mod in (pipelines_mod, sketches_mod, scores_mod):
        plan.append((mod, "as_row", lambda f: t.counted(f, "linalg.as_row_calls")))
    return plan

"""Ground-truth labeling and F1 evaluation of approximate anomaly scores.

Methodology: exact scores define the ground truth by labeling the top eta
fraction of rows anomalous.  The ground truth forms only its score kind's
coordinates, block by block.  Leverage-k and projection-k read the top-k
coordinates X V_k, with V_k from ``linalg.sym_eig_top`` of the Gram:
certified top-k eigenpairs, or the full decomposition where no
certificate holds.  The other kinds read all of X V, from the full SVD.
An approximate scorer is then judged by thresholding its scores at the
top eta' fraction, sweeping eta' over a grid and reporting the best F1
(harmonic mean of precision and recall).  Randomized sketches are averaged
over several seeds.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

import numpy as np

from .linalg import as_matrix
from .pipelines import PROJECTED_MODES, RANDOMIZED_MODES, PipelineConfig, run_pipeline
from .scores import (
    EXACT_FIELDS,
    PROJECTED_FIELDS,
    ScoreTable,
    batch_scores,
    check_lambda,
)

_KIND_TO_FIELD = {
    "leverage-k": "rank_k_leverage",
    "projection-k": "projection_distance",
    "ridge": "ridge_leverage",
    "tail": "tail_leverage",
    "full": "full_leverage",
}

SCORE_KINDS = tuple(_KIND_TO_FIELD)

# Candidate thresholds per F1 sweep.
SWEEP_POINTS = 40


def default_sweep_grid(eta: float) -> tuple[float, ...]:
    """Log-spaced fractions in [eta/4, min(4*eta, 0.999)], all in (0, 1)."""
    lo, hi = eta / 4.0, min(4.0 * eta, 0.999)
    return tuple(float(g) for g in np.geomspace(lo, hi, SWEEP_POINTS))


@dataclass(frozen=True)
class EvalConfig:
    """Parameters of one evaluation run."""

    k: int
    eta: float
    score_kind: str = "projection-k"
    lam: float | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must be in (0, 1), got {self.eta}")
        if self.score_kind not in SCORE_KINDS:
            raise ValueError(f"unknown score kind {self.score_kind!r}")
        check_lambda(self.lam)
        if self.score_kind == "ridge" and self.lam is None:
            raise ValueError("ridge scoring needs a positive lambda")


@dataclass(frozen=True)
class EvalReport:
    """Best-threshold F1 result.  The fields without a default are one
    run's measures; the harmonic-mean identity between f1, precision, and
    recall holds per individual run.  A randomized scorer's report averages
    each measure over its seeds, by the mean or by the statistic the field's
    ``average`` metadata names, and per_seed lists each seed followed by
    that run's measures."""

    f1: float
    best_eta_prime: float = field(metadata={"average": np.median})
    precision: float
    recall: float
    per_seed: list | None = None

    def to_dict(self) -> dict:
        return asdict(self)


_MEASURES = tuple(f for f in fields(EvalReport) if f.default is MISSING)


def _kind_column(table: ScoreTable, kind: str) -> np.ndarray:
    """One score kind's column; undefined rows rank lowest (-inf)."""
    return np.where(table.defined, getattr(table, _KIND_TO_FIELD[kind]), -np.inf)


def _top_count(fraction: float, n: int) -> int:
    m = math.ceil(fraction * n)
    if m <= 0:
        raise ValueError(
            f"fraction {fraction} selects an empty positive class (n={n})"
        )
    return m


def _rank_order(scores: np.ndarray) -> np.ndarray:
    """Row indices by descending score, ties toward the lower row index."""
    return np.lexsort((np.arange(scores.shape[0]), -scores))


def top_fraction_mask(scores: np.ndarray, fraction: float) -> np.ndarray:
    """Boolean mask of the top ceil(fraction * n) scores.

    Ties broken toward the lower row index, so the selection is a pure
    function of the score vector.
    """
    n = scores.shape[0]
    m = _top_count(fraction, n)
    mask = np.zeros(n, dtype=bool)
    mask[_rank_order(scores)[:m]] = True
    return mask


def _exact_scores(matrix, cfg: EvalConfig) -> np.ndarray:
    """Exact scores of the configured kind, one per row."""
    projected = _KIND_TO_FIELD[cfg.score_kind] in PROJECTED_FIELDS
    table = batch_scores(
        matrix, cfg.k, lam=cfg.lam,
        fields=PROJECTED_FIELDS if projected else EXACT_FIELDS,
    )
    return _kind_column(table, cfg.score_kind)


def ground_truth(matrix, cfg: EvalConfig) -> np.ndarray:
    """Label the top eta fraction of rows by exact score as anomalous."""
    return top_fraction_mask(_exact_scores(matrix, cfg), cfg.eta)


def f1_sweep(approx_scores, labels, sweep_grid) -> EvalReport:
    """Best F1 over the threshold grid.

    The scores are ranked once; the top ceil(eta' * n) rows of that order
    are exactly ``top_fraction_mask(scores, eta')``, so each grid point
    reads its true-positive count from a running sum along the order.
    Each point predicts at least one row and the labels hold at least one
    positive, so precision and recall are always defined.
    """
    scores = np.asarray(approx_scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape[0] != labels.shape[0]:
        raise ValueError("scores and labels length mismatch")
    if not np.any(labels):
        raise ValueError("label vector has no positives")
    n = scores.shape[0]
    true_pos = np.cumsum(labels[_rank_order(scores)])
    actual_pos = int(true_pos[-1])
    best = None
    for eta_prime in sweep_grid:
        m = _top_count(eta_prime, n)
        tp = int(true_pos[m - 1])
        precision = tp / m
        recall = tp / actual_pos
        f1 = 2.0 * precision * recall / (precision + recall) if tp else 0.0
        if best is None or f1 > best[0]:
            best = (f1, float(eta_prime), precision, recall)
    return EvalReport(*best)


def evaluate_pipeline(
    matrix,
    mode: str,
    ell: int,
    cfg: EvalConfig,
    seeds: tuple[int, ...] = (0,),
) -> EvalReport:
    """Score with one sketch pipeline and report F1 against exact labels.

    Randomized modes are averaged over the given seeds (one full pipeline
    run per seed, one after another), as ``EvalReport`` describes.  The
    pipeline's config is checked before the ground truth is computed.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    column = _KIND_TO_FIELD[cfg.score_kind]
    if mode in PROJECTED_MODES and column not in PROJECTED_FIELDS:
        raise ValueError(
            f"score kind {cfg.score_kind!r} is not available in mode {mode!r}; "
            "it estimates only leverage-k and projection-k"
        )
    a = as_matrix(matrix)
    grid = default_sweep_grid(cfg.eta)
    if mode == "exact":
        exact = _exact_scores(a, cfg)
        labels = top_fraction_mask(exact, cfg.eta)
        return f1_sweep(exact, labels, grid)
    base = PipelineConfig(k=cfg.k, ell=ell, seed=seeds[0], lam=cfg.lam, mode=mode)
    labels = ground_truth(a, cfg)

    def run_one(pipe_cfg: PipelineConfig) -> EvalReport:
        table = run_pipeline(lambda: a, pipe_cfg)
        return f1_sweep(_kind_column(table, cfg.score_kind), labels, grid)

    if mode not in RANDOMIZED_MODES:
        return run_one(base)
    reports = [run_one(replace(base, seed=s)) for s in seeds]
    per_seed = [
        {"seed": int(s), **{f.name: getattr(rep, f.name) for f in _MEASURES}}
        for s, rep in zip(seeds, reports)
    ]
    averages = (
        float(f.metadata.get("average", np.mean)([getattr(r, f.name) for r in reports]))
        for f in _MEASURES
    )
    return EvalReport(*averages, per_seed)

"""Ground-truth labeling and F1 evaluation of approximate anomaly scores.

Methodology: exact scores (full SVD) define the ground truth by labeling
the top eta fraction of rows anomalous.  An approximate scorer is then
judged by thresholding its scores at the top eta' fraction, sweeping eta'
over a grid and reporting the best F1 (harmonic mean of precision and
recall).  Randomized sketches are averaged over several seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix
from .pipelines import PipelineConfig, run_pipeline
from .scores import PROJECTED_FIELDS, ScoreTable, batch_scores, check_lambda

SCORE_KINDS = ("leverage-k", "projection-k", "ridge", "tail", "full")

_KIND_TO_FIELD = {
    "leverage-k": "rank_k_leverage",
    "projection-k": "projection_distance",
    "ridge": "ridge_leverage",
    "tail": "tail_leverage",
    "full": "full_leverage",
}

RANDOMIZED_MODES = ("rproj", "colsample", "rowsample")

# Modes that score in projected coordinates, filling only PROJECTED_FIELDS.
PROJECTED_MODES = ("rproj", "colsample")

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
    """Best-threshold F1 result; per_seed carries one entry per seed when
    a randomized scorer was averaged.  The harmonic-mean identity between
    f1, precision, and recall holds per individual run."""

    f1: float
    best_eta_prime: float
    precision: float
    recall: float
    per_seed: list | None = None

    def to_dict(self) -> dict:
        return {
            "f1": self.f1,
            "best_eta_prime": self.best_eta_prime,
            "precision": self.precision,
            "recall": self.recall,
            "per_seed": self.per_seed,
        }


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
    return _kind_column(batch_scores(matrix, cfg.k, lam=cfg.lam), cfg.score_kind)


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
    return EvalReport(
        f1=best[0], best_eta_prime=best[1], precision=best[2], recall=best[3]
    )


def evaluate_pipeline(
    matrix,
    mode: str,
    ell: int,
    cfg: EvalConfig,
    seeds: tuple[int, ...] = (0,),
) -> EvalReport:
    """Score with one sketch pipeline and report F1 against exact labels.

    Randomized modes are averaged over the given seeds (one full pipeline
    run per seed, one after another); top-level fields are the per-seed
    means with the median best threshold.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    field = _KIND_TO_FIELD[cfg.score_kind]
    if mode in PROJECTED_MODES and field not in PROJECTED_FIELDS:
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
    labels = ground_truth(a, cfg)

    def run_one(seed: int) -> EvalReport:
        pipe_cfg = PipelineConfig(
            k=cfg.k, ell=ell, seed=seed, lam=cfg.lam, mode=mode
        )
        table = run_pipeline(lambda: a, pipe_cfg)
        return f1_sweep(_kind_column(table, cfg.score_kind), labels, grid)

    if mode not in RANDOMIZED_MODES:
        return run_one(seeds[0])
    reports = [run_one(s) for s in seeds]

    per_seed = [
        {
            "seed": int(s),
            "f1": rep.f1,
            "best_eta_prime": rep.best_eta_prime,
            "precision": rep.precision,
            "recall": rep.recall,
        }
        for s, rep in zip(seeds, reports)
    ]
    return EvalReport(
        f1=float(np.mean([r.f1 for r in reports])),
        best_eta_prime=float(np.median([r.best_eta_prime for r in reports])),
        precision=float(np.mean([r.precision for r in reports])),
        recall=float(np.mean([r.recall for r in reports])),
        per_seed=per_seed,
    )

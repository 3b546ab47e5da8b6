import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sketch_anomaly import evaluate, linalg
from sketch_anomaly.cli import run_cli
from sketch_anomaly.evaluate import (
    EvalConfig,
    EvalReport,
    evaluate_pipeline,
    f1_sweep,
    ground_truth,
    top_fraction_mask,
)
from sketch_anomaly.io import save_snapshot
from sketch_anomaly.scores import PROJECTED_FIELDS, batch_scores
from sketch_anomaly.synth import planted_anomaly_dataset, separated_matrix


def f1_at_mask(labels, predicted) -> tuple[float, float, float]:
    """(f1, precision, recall) of a predicted set; an empty set scores 0."""
    true_pos = int(np.count_nonzero(labels & predicted))
    pred_pos = int(np.count_nonzero(predicted))
    precision = true_pos / pred_pos if pred_pos else 0.0
    if true_pos == 0:
        return 0.0, precision, 0.0
    recall = true_pos / int(np.count_nonzero(labels))
    return 2.0 * precision * recall / (precision + recall), precision, recall


def per_fraction_sweep(scores, labels, grid) -> EvalReport:
    """Best F1 with one ``top_fraction_mask`` per grid fraction."""
    best = None
    for eta_prime in grid:
        f1, precision, recall = f1_at_mask(labels, top_fraction_mask(scores, eta_prime))
        if best is None or f1 > best[0]:
            best = (f1, float(eta_prime), precision, recall)
    return EvalReport(*best)


@st.composite
def scored_rows(draw):
    n = draw(st.integers(1, 60))
    # Few distinct values, so ties are common; -inf marks undefined rows.
    values = st.sampled_from([-math.inf, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0])
    scores = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    labels[draw(st.integers(0, n - 1))] = True
    grid = draw(
        st.lists(st.floats(0.001, 0.999), min_size=1, max_size=12)
    )
    return scores, labels, tuple(grid)


@settings(max_examples=200)
@given(scored_rows())
def test_f1_sweep_matches_per_fraction_masks(case):
    scores, labels, grid = case
    assert f1_sweep(scores, labels, grid) == per_fraction_sweep(scores, labels, grid)


def test_exact_eval_scores_once(monkeypatch):
    calls = []
    batch_scores = evaluate.batch_scores

    def counting(*args, **kwargs):
        calls.append(1)
        return batch_scores(*args, **kwargs)

    monkeypatch.setattr(evaluate, "batch_scores", counting)
    matrix, _ = planted_anomaly_dataset(300, 30, 3, seed=5)
    cfg = EvalConfig(k=3, eta=0.05)
    report = evaluate_pipeline(matrix, "exact", 0, cfg)
    assert len(calls) == 1
    assert report.f1 == 1.0


@pytest.mark.parametrize("mode", ["exact", "fd", "rproj"])
def test_empty_seed_tuple_is_rejected(mode):
    matrix, _ = planted_anomaly_dataset(100, 30, 2, seed=5)
    with pytest.raises(ValueError, match="seed"):
        evaluate_pipeline(matrix, mode, 6, EvalConfig(k=2, eta=0.05), ())


@pytest.mark.parametrize("mode", ["rproj", "colsample"])
@pytest.mark.parametrize("kind", ["full", "tail", "ridge"])
def test_projected_modes_reject_rowspace_kinds_up_front(monkeypatch, mode, kind):
    def never(*args, **kwargs):
        raise AssertionError("scored before the kind was checked")

    monkeypatch.setattr(evaluate, "run_pipeline", never)
    monkeypatch.setattr(evaluate, "batch_scores", never)
    matrix, _ = planted_anomaly_dataset(100, 30, 2, seed=5)
    cfg = EvalConfig(k=2, eta=0.05, score_kind=kind, lam=0.5)
    message = f"score kind '{kind}' is not available in mode '{mode}'"
    with pytest.raises(ValueError, match=message):
        evaluate_pipeline(matrix, mode, 6, cfg)


@pytest.mark.parametrize("kind", ["leverage-k", "projection-k"])
def test_projected_kinds_label_from_k_coordinates_as_from_the_full_table(kind):
    matrix, _ = planted_anomaly_dataset(1100, 60, 3, seed=5)
    cfg = EvalConfig(k=3, eta=0.05, score_kind=kind)
    projected = batch_scores(matrix, 3, fields=PROJECTED_FIELDS)
    assert projected.full_leverage is None and projected.ridge_leverage is None
    full = evaluate._kind_column(batch_scores(matrix, 3), kind)
    expected = top_fraction_mask(full, cfg.eta)
    assert np.array_equal(
        top_fraction_mask(evaluate._kind_column(projected, kind), cfg.eta), expected
    )
    assert np.array_equal(ground_truth(matrix, cfg), expected)


def test_ground_truth_decomposes_only_iteration_blocks(sym_eig_shapes, tmp_path):
    # The projection-k ground truth takes the top-k route: sym_eig sees only
    # the k + 6 wide Rayleigh-Ritz matrices.  score --mode exact fills every
    # column and decomposes the d x d Gram, once.
    k = 4
    a = separated_matrix(600, 200, k, seed=12)
    ground_truth(a, EvalConfig(k=k, eta=0.05))
    width = k + linalg._TOP_EXTRA
    assert sym_eig_shapes and set(sym_eig_shapes) == {(width, width)}
    sym_eig_shapes.clear()
    path = tmp_path / "in.bin"
    save_snapshot(path, a)
    argv = ["score", "--mode", "exact", "--k", str(k), "--input", str(path),
            "--format", "bin", "--output", str(tmp_path / "out.json")]
    assert run_cli(argv) == 0
    assert sym_eig_shapes == [(200, 200)]


@pytest.fixture(scope="module")
def eval_input(tmp_path_factory):
    matrix, _ = planted_anomaly_dataset(200, 30, 3, 5)
    path = tmp_path_factory.mktemp("eval") / "in.bin"
    save_snapshot(path, matrix)
    return path


def run_eval_json(capsys, path, mode):
    argv = ["eval", "--mode", mode, "--k", "3", "--eta", "0.05", "--seed", "5",
            "--seeds", "3", "--input", str(path), "--format", "bin"]
    argv += [] if mode == "exact" else ["--ell", "8"]
    assert run_cli(argv) == 0
    return json.loads(capsys.readouterr().out)


MEASURES = ["f1", "best_eta_prime", "precision", "recall"]


@pytest.mark.parametrize("mode", ["rproj", "colsample", "rowsample"])
def test_randomized_eval_json_averages_its_per_seed_entries(capsys, eval_input, mode):
    report = run_eval_json(capsys, eval_input, mode)
    assert list(report) == [*MEASURES, "per_seed"]
    per_seed = report["per_seed"]
    assert [entry["seed"] for entry in per_seed] == [5, 6, 7]
    for entry in per_seed:
        assert list(entry) == ["seed", *MEASURES]
    for key in MEASURES:
        values = [entry[key] for entry in per_seed]
        average = np.median if key == "best_eta_prime" else np.mean
        assert report[key] == float(average(values))


@pytest.mark.parametrize("mode", ["fd", "exact"])
def test_deterministic_eval_json_has_no_per_seed_entries(capsys, eval_input, mode):
    report = run_eval_json(capsys, eval_input, mode)
    assert list(report) == [*MEASURES, "per_seed"]
    assert report["per_seed"] is None

"""Streaming subspace anomaly scores with verified approximation bounds.

Exact rank-k leverage and projection-distance scores, four streaming
sketch pipelines (Frequent Directions, pseudorandom sign projection,
length-squared row/column sampling), and executable checkers for the
matrix perturbation inequalities the approximations rest on.
"""

from .errors import (
    ConvergenceError,
    DataFormatError,
    DegenerateSpectrumError,
    RankDeficientError,
    ShapeError,
    SketchSizeError,
    ZeroMassError,
)
from .evaluate import (
    EvalConfig,
    EvalReport,
    default_sweep_grid,
    evaluate_pipeline,
    f1_sweep,
    ground_truth,
)
from .io import load_matrix, load_snapshot, save_csv, save_snapshot
from .linalg import (
    SpectralDecomposition,
    SpectralStats,
    operator_norm,
    spectral_stats,
    svd_thin,
    sym_eig,
)
from .pipelines import (
    PipelineConfig,
    run_colsample_pipeline,
    run_fd_pipeline,
    run_online_pipeline,
    run_pipeline,
    run_rowsample_pipeline,
    run_rproj_pipeline,
)
from .scores import ScoreTable, batch_scores, score_block
from .sketches import (
    ColumnSamplePlan,
    FrequentDirections,
    SignProjector,
    column_sample_plan,
    fd_ingest,
    row_sample,
)
from .verify import (
    BoundReport,
    check_average_guarantees,
    check_diag_dominance,
    check_low_rank_approx,
    check_pointwise_guarantees,
    check_projector,
    check_sigma_weighted,
    check_weyl,
    run_suite,
)

__version__ = "0.1.0"

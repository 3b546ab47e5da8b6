"""Reference scorers the tests compare the package against."""

import numpy as np

from sketch_anomaly.linalg import as_row, gram_basis, sym_eig
from sketch_anomaly.scores import EXACT_FIELDS, OnlineRows, check_lambda, score_block

MODE_EXACT_ONLINE = "exact-online"


def online_scores(row_stream, k: int, lam: float | None = None):
    """Score each row against the exact SVD of the rows before it.

    The prefix is kept as a d x d covariance and eigendecomposed for every
    row.  Rows arriving while the prefix rank is still below k are
    undefined (``defined`` False); there is no principal subspace to
    measure against yet.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    check_lambda(lam)
    rows = OnlineRows()
    cov: np.ndarray | None = None
    width: int | None = None
    for row in row_stream:
        a = as_row(row, width)
        if cov is None:
            width = a.shape[0]
            cov = np.zeros((width, width))
        basis = gram_basis(sym_eig(cov))
        if basis.rank_used < k:
            rows.add(None)
        else:
            rows.add(score_block(
                (basis.right_vectors.T @ a)[None, :],
                np.array([a @ a]),
                basis.values[: basis.rank_used],
                k,
                lam,
            ))
        cov += np.outer(a, a)
    return rows.table(MODE_EXACT_ONLINE, EXACT_FIELDS)

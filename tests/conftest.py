import numpy as np
import pytest
from hypothesis import settings

from sketch_anomaly import linalg
from sketch_anomaly.scores import ROWSPACE_FIELDS

# Every property test draws the same examples on every run, with no
# per-example time limit: a tier-1 failure reproduces, and a slow runner
# does not fail a test.
settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")


class CountingSource:
    """Replayable row source that counts how many passes consume it."""

    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.passes = 0

    def __call__(self):
        self.passes += 1
        return iter(self.matrix)


@pytest.fixture
def counting_source():
    return CountingSource


@pytest.fixture
def sym_eig_shapes(monkeypatch):
    """The shapes of the matrices ``linalg.sym_eig`` decomposes from here on
    in the test, in call order."""
    shapes = []
    sym_eig = linalg.sym_eig

    def recording(matrix):
        shapes.append(np.shape(matrix))
        return sym_eig(matrix)

    monkeypatch.setattr(linalg, "sym_eig", recording)
    return shapes


def columns_of(table) -> dict:
    """A score table column by column, as plain lists: what the ``score``
    JSON holds under each key, with None for an absent column and for
    every score of an undefined row."""
    n = len(table)
    defined = table.defined.tolist()
    columns = {
        "row_index": list(range(n)),
        "mode": [table.mode] * n,
        "defined": defined,
    }
    for name in ROWSPACE_FIELDS:
        column = getattr(table, name)
        columns[name] = (
            [None] * n
            if column is None
            else [v if d else None for v, d in zip(column.tolist(), defined)]
        )
    return columns


@pytest.fixture
def table_columns():
    return columns_of

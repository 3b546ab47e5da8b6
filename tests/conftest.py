import numpy as np
import pytest

from sketch_anomaly.scores import ROWSPACE_FIELDS


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

"""Shared test oracles."""

import numpy as np
import pytest

from xyzscar import scars


def row_wise_write_csv(path, header, columns) -> None:
    """The row-by-row CSV writer that scars.write_csv replaced: str() of every
    Python scalar, joined one row at a time, in chunks of _CSV_CHUNK_ROWS."""
    columns = [np.asarray(col) for col in columns]
    n_rows = len(columns[0])
    chunk_rows = scars._CSV_CHUNK_ROWS
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, chunk_rows):
            chunk = [col[start : start + chunk_rows].tolist() for col in columns]
            fh.writelines(",".join(map(str, row)) + "\n" for row in zip(*chunk))


@pytest.fixture
def csv_oracle():
    """The row-wise oracle of scars.write_csv."""
    return row_wise_write_csv

"""Every bounded row of the work ledger (work_ledger.py) keeps its bounds."""

import pytest

from work_ledger import ROWS, broken


@pytest.mark.parametrize("row", [row for row in ROWS if row.bounds], ids=lambda row: row.name)
def test_work_is_within_its_bounds(row):
    counts = row.work()
    assert not broken(row, counts), counts

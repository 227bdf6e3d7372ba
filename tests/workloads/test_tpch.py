"""Lineitem generator tests."""

import pytest

from repro.common.errors import WorkloadError
from repro.workloads.tpch import (
    LINEITEM_COLUMNS,
    LineitemGenerator,
    quantity_threshold_for_selectivity,
)


def test_schema_has_16_columns():
    assert len(LINEITEM_COLUMNS) == 16


def test_rows_have_all_columns():
    for row in LineitemGenerator(seed=1).rows(50):
        assert len(row.split("|")) == 16


def test_rows_reproducible():
    a = list(LineitemGenerator(seed=2).rows(20))
    b = list(LineitemGenerator(seed=2).rows(20))
    assert a == b


def test_parse_row_round_trip():
    row = next(iter(LineitemGenerator(seed=3).rows(1)))
    parsed = dict(zip(LINEITEM_COLUMNS, row.split("|")))
    assert set(parsed) == set(LINEITEM_COLUMNS)
    assert 1 <= int(parsed["l_quantity"]) <= 50
    assert float(parsed["l_extendedprice"]) > 0
    assert parsed["l_returnflag"] in {"R", "A", "N"}


def test_orderkeys_monotone_nondecreasing():
    keys = [int(row.split("|")[0])
            for row in LineitemGenerator(seed=4).rows(100)]
    assert keys == sorted(keys)


def test_linenumbers_restart_per_order():
    rows = [row.split("|") for row in LineitemGenerator(seed=5).rows(200)]
    for (ok1, ln1), (ok2, ln2) in zip(
            [(r[0], int(r[3])) for r in rows],
            [(r[0], int(r[3])) for r in rows[1:]]):
        if ok1 == ok2:
            assert ln2 == ln1 + 1
        else:
            assert ln2 == 1


def test_quantity_threshold_for_selectivity():
    assert quantity_threshold_for_selectivity(0.10) == 6
    assert quantity_threshold_for_selectivity(0.50) == 26
    with pytest.raises(WorkloadError):
        quantity_threshold_for_selectivity(0.0)


def test_threshold_achieves_selectivity():
    threshold = quantity_threshold_for_selectivity(0.10)
    rows = list(LineitemGenerator(seed=6).rows(5000))
    quantity_index = LINEITEM_COLUMNS.index("l_quantity")
    selected = sum(1 for r in rows
                   if float(r.split("|")[quantity_index]) < threshold)
    assert selected / len(rows) == pytest.approx(0.10, abs=0.02)


def test_rows_for_bytes_volume():
    total = sum(len(r) + 1 for r in
                LineitemGenerator(seed=7).rows_for_bytes(30_000))
    assert 30_000 <= total <= 33_000


def test_write(tmp_path):
    path = tmp_path / "lineitem.tbl"
    written = LineitemGenerator(seed=8).write(path, 10_000)
    assert path.stat().st_size == written


def test_row_count_validation():
    with pytest.raises(WorkloadError):
        list(LineitemGenerator().rows(0))
    with pytest.raises(WorkloadError):
        list(LineitemGenerator().rows_for_bytes(0))

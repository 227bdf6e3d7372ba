"""TPC-H ``lineitem`` table generator (a miniature ``dbgen``).

Produces '|'-delimited rows with the 16 columns of the TPC-H lineitem
schema, value distributions close enough to dbgen's for a selection
workload: ``l_quantity`` is uniform over 1..50, so a predicate
``quantity < 6`` selects ~10 % of rows — the paper's target selectivity.
"""

from __future__ import annotations

import datetime
from typing import Iterator

from ..common.errors import WorkloadError
from ..common.rng import RngLike, make_rng

#: Column names, in file order (TPC-H 2.x lineitem schema).
LINEITEM_COLUMNS = (
    "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
    "l_quantity", "l_extendedprice", "l_discount", "l_tax",
    "l_returnflag", "l_linestatus", "l_shipdate", "l_commitdate",
    "l_receiptdate", "l_shipinstruct", "l_shipmode", "l_comment",
)

_RETURN_FLAGS = ("R", "A", "N")
_LINE_STATUS = ("O", "F")
_SHIP_INSTRUCT = ("DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN")
_SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
_COMMENT_WORDS = ("carefully", "quickly", "furiously", "packages", "deposits",
                  "accounts", "requests", "ideas", "pending", "final")

_BASE_DATE = datetime.date(1992, 1, 1)
_DATE_RANGE_DAYS = 2526  # through 1998-11-30, as in dbgen


def quantity_threshold_for_selectivity(selectivity: float) -> int:
    """Predicate value VAL so ``l_quantity < VAL`` selects ~``selectivity``.

    ``l_quantity`` is uniform on the integers 1..50, so VAL = 50*s + 1.
    """
    if not 0.0 < selectivity <= 1.0:
        raise WorkloadError("selectivity must be in (0, 1]")
    return int(round(50 * selectivity)) + 1


class LineitemGenerator:
    """Streams lineitem rows, reproducibly."""

    def __init__(self, seed: RngLike = None) -> None:
        self._rng = make_rng(seed)
        self._orderkey = 0
        self._linenumber = 0

    def rows(self, count: int) -> Iterator[str]:
        """Yield ``count`` '|'-delimited rows (no trailing newline)."""
        if count <= 0:
            raise WorkloadError("row count must be positive")
        rng = self._rng
        for _ in range(count):
            if self._linenumber == 0 or rng.random() < 0.3:
                self._orderkey += int(rng.integers(1, 4))
                self._linenumber = 1
            else:
                self._linenumber += 1
            partkey = int(rng.integers(1, 200_001))
            suppkey = int(rng.integers(1, 10_001))
            quantity = int(rng.integers(1, 51))
            extendedprice = round(quantity * float(rng.uniform(900, 11000)), 2)
            discount = round(float(rng.uniform(0.0, 0.10)), 2)
            tax = round(float(rng.uniform(0.0, 0.08)), 2)
            shipdate = _BASE_DATE + datetime.timedelta(
                days=int(rng.integers(0, _DATE_RANGE_DAYS)))
            commitdate = shipdate + datetime.timedelta(days=int(rng.integers(-30, 31)))
            receiptdate = shipdate + datetime.timedelta(days=int(rng.integers(1, 31)))
            comment = " ".join(
                rng.choice(_COMMENT_WORDS)
                for _ in range(int(rng.integers(2, 6))))
            yield "|".join((
                str(self._orderkey),
                str(partkey),
                str(suppkey),
                str(self._linenumber),
                str(quantity),
                f"{extendedprice:.2f}",
                f"{discount:.2f}",
                f"{tax:.2f}",
                rng.choice(_RETURN_FLAGS),
                rng.choice(_LINE_STATUS),
                shipdate.isoformat(),
                commitdate.isoformat(),
                receiptdate.isoformat(),
                rng.choice(_SHIP_INSTRUCT),
                rng.choice(_SHIP_MODES),
                comment,
            ))

    def rows_for_bytes(self, approx_bytes: int) -> Iterator[str]:
        """Yield rows until ~``approx_bytes`` emitted."""
        if approx_bytes <= 0:
            raise WorkloadError("approx_bytes must be positive")
        emitted = 0
        while emitted < approx_bytes:
            for row in self.rows(64):
                emitted += len(row) + 1
                yield row
                if emitted >= approx_bytes:
                    break

    def write(self, path, approx_bytes: int) -> int:
        """Write ~``approx_bytes`` of lineitem rows to ``path``."""
        written = 0
        with open(path, "w", encoding="ascii") as handle:
            for row in self.rows_for_bytes(approx_bytes):
                handle.write(row)
                handle.write("\n")
                written += len(row) + 1
        return written

"""Job-output materialisation: Hadoop-style part files.

Hadoop reducers write ``part-00000 ... part-NNNNN`` plus a ``_SUCCESS``
marker into the job's output directory.  The local runtime mirrors that
layout so downstream tooling (and the Section V.G pipeline idea of feeding
earlier sub-job outputs into later phases) has real files to consume.
"""

from __future__ import annotations

import pathlib
from typing import Any, Hashable

from ..common.errors import ExecutionError
from .api import JobResult, default_partitioner

#: Marker file Hadoop writes on successful job completion.
SUCCESS_MARKER = "_SUCCESS"


def write_output(result: JobResult, directory: pathlib.Path | str, *,
                 num_partitions: int = 4,
                 separator: str = "\t") -> list[pathlib.Path]:
    """Write ``result.output`` as partitioned part files.

    Records are routed to partitions with the same hash partitioner the
    engine uses, one ``part-NNNNN`` file per partition (written even when
    empty, as Hadoop does), plus ``_SUCCESS``.  Returns the part paths.
    """
    if num_partitions <= 0:
        raise ExecutionError("num_partitions must be positive")
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if (directory / SUCCESS_MARKER).exists():
        raise ExecutionError(
            f"{directory} already holds a completed job's output")
    buckets: dict[int, list[tuple[Hashable, Any]]] = {
        p: [] for p in range(num_partitions)}
    for key, value in result.output:
        buckets[default_partitioner(key, num_partitions)].append((key, value))
    paths: list[pathlib.Path] = []
    for partition in range(num_partitions):
        path = directory / f"part-{partition:05d}"
        with open(path, "w", encoding="utf-8") as handle:
            for key, value in buckets[partition]:
                handle.write(f"{key}{separator}{value}\n")
        paths.append(path)
    (directory / SUCCESS_MARKER).touch()
    return paths

"""Typed identifier helpers.

The simulator juggles jobs, sub-jobs, tasks, task attempts, nodes, blocks and
segments.  Using plain strings with a structured format keeps traces readable
(``job_0003.map_0120.attempt_0``) while the factory functions below keep the
formats consistent across the code base.
"""

from __future__ import annotations


def job_id(index: int) -> str:
    """Identifier for the ``index``-th submitted job.

    >>> job_id(3)
    'job_0003'
    """
    return f"job_{index:04d}"


def map_task_id(owner: str, block_index: int) -> str:
    """Identifier for a map task of ``owner`` (a job or batch) on a block."""
    return f"{owner}.map_{block_index:05d}"


def reduce_task_id(owner: str, partition: int) -> str:
    """Identifier for a reduce task of ``owner`` on ``partition``."""
    return f"{owner}.red_{partition:04d}"


def attempt_id(task: str, attempt: int) -> str:
    """Identifier for the ``attempt``-th attempt of ``task``."""
    return f"{task}.attempt_{attempt}"


def node_id(index: int) -> str:
    """Identifier for the ``index``-th slave node."""
    return f"node_{index:03d}"


def rack_id(index: int) -> str:
    """Identifier for the ``index``-th rack."""
    return f"rack_{index}"


def block_id(file_name: str, index: int) -> str:
    """Identifier for the ``index``-th block of ``file_name``."""
    return f"{file_name}#blk_{index:05d}"

"""Simulated distributed file system: blocks, files, placement."""

from .block import Block, DfsFile
from .namenode import NameNode
from .placement import (
    PlacementPolicy,
    RackAwarePlacement,
    RoundRobinPlacement,
    replica_shards,
)

__all__ = [
    "Block", "DfsFile", "NameNode",
    "PlacementPolicy", "RackAwarePlacement", "RoundRobinPlacement",
    "replica_shards",
]

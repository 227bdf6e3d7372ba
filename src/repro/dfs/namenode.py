"""NameNode: the file-system namespace of the simulated DFS.

Maps file names to block chains and answers the two questions schedulers
ask: "how many blocks does this file have?" and "where does block *i* live?".
"""

from __future__ import annotations

import math

from ..common import ids
from ..common.config import DfsConfig
from ..common.errors import DfsError
from .block import Block, DfsFile
from .placement import PlacementPolicy


class NameNode:
    """Namespace of the simulated distributed file system."""

    def __init__(self, config: DfsConfig, placement: PlacementPolicy) -> None:
        self.config = config
        self._placement = placement
        self._files: dict[str, DfsFile] = {}

    def create_file(self, name: str, size_mb: float) -> DfsFile:
        """Create ``name`` of ``size_mb`` MB split into config-sized blocks.

        The final block may be short, as in HDFS.
        """
        if name in self._files:
            raise DfsError(f"file {name!r} already exists")
        if size_mb <= 0:
            raise DfsError(f"file size must be positive, got {size_mb}")
        block_size = self.config.block_size_mb
        num_blocks = max(1, math.ceil(size_mb / block_size - 1e-9))
        blocks: list[Block] = []
        remaining = size_mb
        for index in range(num_blocks):
            this_size = min(block_size, remaining)
            remaining -= this_size
            blocks.append(Block(
                block_id=ids.block_id(name, index),
                file_name=name,
                index=index,
                size_mb=this_size,
                locations=self._placement.place(index, self.config.replication),
            ))
        dfs_file = DfsFile(name=name, blocks=tuple(blocks))
        self._files[name] = dfs_file
        return dfs_file

    def get_file(self, name: str) -> DfsFile:
        try:
            return self._files[name]
        except KeyError:
            raise DfsError(f"no such file {name!r}") from None

    def exists(self, name: str) -> bool:
        return name in self._files

    def block_locations(self, name: str, index: int) -> tuple[str, ...]:
        """Replica holders of block ``index`` of file ``name``."""
        return self.get_file(name).block(index).locations

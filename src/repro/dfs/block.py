"""Block and file records for the simulated distributed file system.

As in HDFS/GFS, a file is a chain of fixed-size blocks; each block is
replicated on one or more nodes.  The S3 scheduler never moves data — it only
needs to *know where blocks live* so map tasks can be placed data-locally
(Section IV-B: "As a segment is a collection of data blocks, we do not need
to change the data storage in the file system").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import DfsError


@dataclass(frozen=True)
class Block:
    """One fixed-size block of a file.

    Attributes
    ----------
    block_id:
        Stable identifier, e.g. ``corpus.txt#blk_00042``.
    file_name:
        Owning file.
    index:
        Position within the file (0-based).
    size_mb:
        Block payload size in MB.  All blocks except possibly the last have
        the configured block size.
    locations:
        Nodes holding a replica, in placement order.
    """

    block_id: str
    file_name: str
    index: int
    size_mb: float
    locations: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.size_mb <= 0:
            raise DfsError(f"{self.block_id}: non-positive size {self.size_mb}")
        if self.index < 0:
            raise DfsError(f"{self.block_id}: negative index")
        if not self.locations:
            raise DfsError(f"{self.block_id}: block has no replica")


@dataclass(frozen=True)
class DfsFile:
    """A file as a chain of blocks."""

    name: str
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise DfsError(f"file {self.name!r} has no blocks")
        for expected_index, block in enumerate(self.blocks):
            if block.index != expected_index:
                raise DfsError(
                    f"file {self.name!r}: block index {block.index} at "
                    f"position {expected_index}")
            if block.file_name != self.name:
                raise DfsError(
                    f"file {self.name!r}: block {block.block_id} belongs to "
                    f"{block.file_name!r}")

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def size_mb(self) -> float:
        return sum(b.size_mb for b in self.blocks)

    def block(self, index: int) -> Block:
        try:
            return self.blocks[index]
        except IndexError:
            raise DfsError(
                f"file {self.name!r} has {self.num_blocks} blocks, "
                f"no index {index}") from None

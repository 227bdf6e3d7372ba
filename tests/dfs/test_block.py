"""Block and DfsFile invariant tests."""

import pytest

from repro.common.errors import DfsError
from repro.dfs.block import Block, DfsFile


def make_block(index=0, size=64.0, file_name="f", locations=("n0",)):
    return Block(block_id=f"f#blk_{index:05d}", file_name=file_name,
                 index=index, size_mb=size, locations=tuple(locations))


def test_block_validates_size():
    with pytest.raises(DfsError):
        make_block(size=0)


def test_block_requires_replica():
    with pytest.raises(DfsError):
        make_block(locations=())


def test_block_negative_index():
    with pytest.raises(DfsError):
        make_block(index=-1)


def test_file_aggregates():
    blocks = tuple(make_block(i) for i in range(3))
    f = DfsFile(name="f", blocks=blocks)
    assert f.num_blocks == 3
    assert f.size_mb == 192.0
    assert f.block(1).index == 1


def test_file_block_out_of_range():
    f = DfsFile(name="f", blocks=(make_block(0),))
    with pytest.raises(DfsError, match="no index"):
        f.block(5)


def test_file_rejects_gapped_indices():
    blocks = (make_block(0), make_block(2))
    with pytest.raises(DfsError, match="block index"):
        DfsFile(name="f", blocks=blocks)


def test_file_rejects_foreign_blocks():
    blocks = (make_block(0, file_name="other"),)
    with pytest.raises(DfsError, match="belongs to"):
        DfsFile(name="f", blocks=blocks)


def test_empty_file_rejected():
    with pytest.raises(DfsError):
        DfsFile(name="f", blocks=())

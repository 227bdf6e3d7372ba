"""NameNode namespace tests."""

import pytest

from repro.common.config import DfsConfig
from repro.common.errors import DfsError
from repro.dfs.namenode import NameNode
from repro.dfs.placement import RoundRobinPlacement

NODES = [f"n{i}" for i in range(4)]


@pytest.fixture
def namenode() -> NameNode:
    return NameNode(DfsConfig(block_size_mb=64.0, replication=1),
                    RoundRobinPlacement(NODES))


def test_create_splits_into_blocks(namenode):
    f = namenode.create_file("f", 256.0)
    assert f.num_blocks == 4
    assert all(b.size_mb == 64.0 for b in f.blocks)


def test_final_block_ragged(namenode):
    f = namenode.create_file("f", 100.0)
    assert f.num_blocks == 2
    assert f.blocks[0].size_mb == 64.0
    assert f.blocks[1].size_mb == pytest.approx(36.0)
    assert f.size_mb == pytest.approx(100.0)


def test_small_file_single_block(namenode):
    f = namenode.create_file("tiny", 1.0)
    assert f.num_blocks == 1
    assert f.blocks[0].size_mb == 1.0


def test_exact_multiple_has_no_empty_block(namenode):
    f = namenode.create_file("f", 128.0)
    assert f.num_blocks == 2


def test_duplicate_create_rejected(namenode):
    namenode.create_file("f", 64.0)
    with pytest.raises(DfsError, match="exists"):
        namenode.create_file("f", 64.0)


def test_non_positive_size_rejected(namenode):
    with pytest.raises(DfsError):
        namenode.create_file("f", 0.0)


def test_get_missing_file(namenode):
    with pytest.raises(DfsError, match="no such file"):
        namenode.get_file("ghost")


def test_exists(namenode):
    assert not namenode.exists("f")
    namenode.create_file("f", 64.0)
    assert namenode.exists("f")


def test_block_locations_round_robin(namenode):
    namenode.create_file("f", 64.0 * 6)
    assert namenode.block_locations("f", 0) == ("n0",)
    assert namenode.block_locations("f", 5) == ("n1",)

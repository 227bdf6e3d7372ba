"""Periodical slot-checker tests."""

import pytest

from repro.cluster.cluster import Cluster
from repro.common.config import ClusterConfig
from repro.common.errors import ConfigError
from repro.schedulers.s3.slotcheck import SlotChecker


def feed(checker, node_id, durations):
    for d in durations:
        checker.observe(node_id, d)


def test_no_verdict_with_few_nodes():
    checker = SlotChecker()
    feed(checker, "n0", [1.0, 1.0])
    feed(checker, "n1", [5.0, 5.0])
    assert checker.slow_nodes() == set()  # needs >= 3 judged nodes


def test_detects_outlier():
    checker = SlotChecker(threshold=1.5)
    for n in ("n0", "n1", "n2"):
        feed(checker, n, [1.0, 1.0])
    feed(checker, "slow", [4.0, 4.0])
    assert checker.slow_nodes() == {"slow"}


def test_min_samples_respected():
    checker = SlotChecker(threshold=1.5, min_samples=3)
    for n in ("n0", "n1", "n2"):
        feed(checker, n, [1.0, 1.0, 1.0])
    feed(checker, "slow", [9.0, 9.0])  # only two samples
    assert checker.slow_nodes() == set()


def test_ewma_forgets_old_slowness():
    checker = SlotChecker(threshold=1.5, ewma_alpha=0.5)
    for n in ("n0", "n1", "n2"):
        feed(checker, n, [1.0, 1.0])
    feed(checker, "s", [10.0, 10.0])
    assert "s" in checker.slow_nodes()
    feed(checker, "s", [1.0] * 8)  # recovered
    assert checker.slow_nodes() == set()


def test_apply_updates_cluster_exclusions():
    cluster = Cluster.from_config(ClusterConfig(num_nodes=4, rack_sizes=(4,)))
    checker = SlotChecker(threshold=1.5)
    for nid in ("node_000", "node_001", "node_002"):
        feed(checker, nid, [1.0, 1.0])
    feed(checker, "node_003", [6.0, 6.0])
    excluded = checker.apply(cluster)
    assert excluded == {"node_003"}
    assert cluster.node("node_003").excluded
    # Recovery re-includes.
    feed(checker, "node_003", [1.0] * 10)
    assert checker.apply(cluster) == set()
    assert not cluster.node("node_003").excluded


def test_validation():
    with pytest.raises(ConfigError):
        SlotChecker(threshold=1.0)
    with pytest.raises(ConfigError):
        SlotChecker(ewma_alpha=0.0)
    checker = SlotChecker()
    with pytest.raises(ConfigError):
        checker.observe("n0", -1.0)

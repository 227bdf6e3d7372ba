"""Seeded RNG helper tests."""

import numpy as np

from repro.common.rng import DEFAULT_SEED, jittered, make_rng


def test_none_uses_default_seed():
    a, b = make_rng(None), make_rng(DEFAULT_SEED)
    assert a.integers(0, 1_000_000) == b.integers(0, 1_000_000)


def test_same_seed_same_stream():
    assert make_rng(7).random() == make_rng(7).random()


def test_different_seeds_differ():
    assert make_rng(7).random() != make_rng(8).random()


def test_generator_passthrough():
    gen = np.random.default_rng(3)
    assert make_rng(gen) is gen


def test_jittered_zero_sigma_is_identity():
    assert jittered(make_rng(1), 10.0, 0.0) == 10.0


def test_jittered_stays_positive():
    rng = make_rng(2)
    for _ in range(200):
        assert jittered(rng, 1.0, 2.0) > 0


def test_jittered_respects_floor():
    rng = make_rng(3)
    for _ in range(200):
        assert jittered(rng, 10.0, 5.0, floor=9.5) >= 9.5

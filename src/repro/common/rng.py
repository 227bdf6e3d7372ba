"""Seeded random-number-generation helpers.

All stochastic components (workload generators, node speed jitter, arrival
patterns) accept either a seed or a :class:`numpy.random.Generator`.  Routing
everything through :func:`make_rng` keeps experiments reproducible: the same
seed always yields the same trace.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

RngLike = Union[int, np.random.Generator, None]

#: Seed used when callers do not care about the exact stream but the test
#: suite still wants determinism.
DEFAULT_SEED = 20110913  # ICPP 2011 conference date.


def make_rng(seed_or_rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed, generator or None.

    ``None`` maps to :data:`DEFAULT_SEED` (the library is deterministic by
    default; pass an explicit generator for independent streams).
    """
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    if seed_or_rng is None:
        seed_or_rng = DEFAULT_SEED
    return np.random.default_rng(seed_or_rng)


def jittered(rng: np.random.Generator, base: float, rel_sigma: float,
             floor: Optional[float] = None) -> float:
    """Sample ``base`` perturbed by Gaussian noise with relative std ``rel_sigma``.

    Used for task-duration jitter.  A ``floor`` (default ``0.05 * base``)
    prevents non-physical non-positive durations.
    """
    if rel_sigma <= 0:
        return base
    value = float(rng.normal(loc=base, scale=rel_sigma * base))
    lo = 0.05 * base if floor is None else floor
    return max(value, lo)

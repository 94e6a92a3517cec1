"""Seed plumbing.

All randomness in the package flows through numpy Generators made from
seed keys: an int or a sequence of ints, never a live Generator.  Composite
keys (`seed, stream, index...`) keep independent stages on independent
deterministic streams, so parallel and serial execution of the same stages
draw identical values.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError


def seed_key(seed) -> tuple[int, ...]:
    """Normalize an int or int-sequence seed to a tuple of non-negative ints."""
    key = (int(seed),) if isinstance(seed, (int, np.integer)) else tuple(int(s) for s in seed)
    if any(s < 0 for s in key):
        raise ParameterError(f"a seed must be >= 0, got {seed}")
    return key


def generator(seed, *substream: int) -> np.random.Generator:
    """A fresh Generator for the key `seed` extended by the substream indices."""
    return np.random.default_rng(seed_key(seed) + tuple(int(s) for s in substream))

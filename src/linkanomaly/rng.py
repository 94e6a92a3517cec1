"""Seed plumbing.

All randomness in the package flows through numpy Generators seeded from
integer keys.  Composite keys (`seed, stream, index...`) keep independent
stages on independent deterministic streams, so parallel and serial
execution of the same stages draw identical values.
"""

from __future__ import annotations

import numpy as np


def seed_key(seed) -> tuple[int, ...]:
    """Normalize an int or int-sequence seed to a tuple of ints."""
    if isinstance(seed, (int, np.integer)):
        return (int(seed),)
    return tuple(int(s) for s in seed)


def generator(seed, *substream: int) -> np.random.Generator:
    """Generator for `seed` extended by the given substream indices.

    Accepts an existing Generator only when no substream is requested,
    in which case it is returned unchanged.
    """
    if isinstance(seed, np.random.Generator):
        if substream:
            raise TypeError("cannot derive a substream from a live Generator")
        return seed
    return np.random.default_rng(seed_key(seed) + tuple(int(s) for s in substream))

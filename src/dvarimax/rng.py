"""Reproducible random-stream derivation.

Every random draw in this package flows through a counter-based Philox
generator keyed by a user seed, an integer in [0, 2**64) passed as it is,
plus a sequence of purpose tags.  Streams derived from distinct seeds or
tag sequences are statistically independent, so any single draw can be
reproduced in isolation and parallel execution schedules cannot reorder
or perturb them.
"""
from __future__ import annotations

import zlib

import numpy as np

from .exceptions import _check_integer

_MASK64 = (1 << 64) - 1


def _tag_to_int(tag) -> int:
    """Map a tag (bool, int, float or str) to a stable non-negative integer."""
    if isinstance(tag, (bool, np.bool_)):
        return int(tag)
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    if isinstance(tag, (float, np.floating)):
        # IEEE-754 bit pattern: distinct floats give distinct tags, and the
        # mapping does not depend on any decimal formatting choice.
        return int(np.float64(tag).view(np.uint64))
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf8"))
    raise ValueError(f"unsupported stream tag type: {type(tag).__name__}")


def _seed_sequence(seed: int, tags: tuple) -> np.random.SeedSequence:
    """The ``SeedSequence`` keyed by ``(seed, *tags)``, after checking ``seed``."""
    _check_integer("seed", seed, 0, _MASK64)
    return np.random.SeedSequence([int(seed)] + [_tag_to_int(t) for t in tags])


def substream(seed: int, *tags) -> np.random.Generator:
    """Return an independent generator keyed by ``(seed, *tags)``."""
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, tags)))


def derive_seed(seed: int, *tags) -> int:
    """Return a 64-bit seed keyed by ``(seed, *tags)``.

    Used to stamp derived seeds into output records so that any single
    unit of work can be re-run standalone.
    """
    state = _seed_sequence(seed, tags).generate_state(2, np.uint32)
    return int(state[0]) | (int(state[1]) << 32)

"""Shared randomness helper.

All seeded code draws from Philox (counter-based, splittable) through a
SeedSequence so that streams are reproducible across platforms and can be
split per sub-task without correlation.  Generated instances record the
stream family tag in their meta block.
"""

from __future__ import annotations

import numpy as np

from .core import ValidationError

RNG_TAG = "philox4x64/seedseq-v1"


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """The Philox stream of a seed >= 0 and a spawn key; a negative seed is refused."""
    if seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))

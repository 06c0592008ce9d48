"""Deterministic, splittable random-number streams: the stream contract.

``rng_for(seed, *path)`` is the generator for a 64-bit seed and an
integer path, which is passed to ``numpy.random.SeedSequence`` as its
``spawn_key`` (numpy's supported way to derive statistically independent
children).  ``child_seed(seed, *path)`` folds a path into a fresh 64-bit
seed, for experiments that need many independently seeded media.  Every
path starts with a tag of :class:`Stream`, :class:`ChildSeed` or
:class:`PointSeed`, the one table of tags.  The same ``(seed, path)``
gives the same values on any machine, because streams are keyed by data,
not by execution order.  A change that moves any draw bumps
:data:`STREAM_CONTRACT`, which every manifest records.
"""

from __future__ import annotations

import enum

import numpy as np

_U64_MAX = 2**64 - 1

STREAM_CONTRACT = 3  # version of the seed-to-draw rules; 3 draws Monte Carlo pairs, not pulses


@enum.unique
class Stream(enum.IntEnum):  # rng_for(seed, tag, ...)
    GAUSSIAN = 0  # medium seed: a Gaussian medium, row-major, rows drawn as a prefix when first read
    UNITARY = 1  # medium seed: a Haar unitary's Ginibre matrix
    MONTECARLO = 2  # counting seed, then chunk index: a 65536-pulse chunk's pair total, then each pair's pulse and outcome
    BACKGROUND = 3  # medium seed: the enhancement background's Gamma draw


@enum.unique
class ChildSeed(enum.IntEnum):  # child_seed(master seed, tag, ...)
    ALPHA_POINT = 1  # then the alpha index: a Monte Carlo alpha point's seed
    STUDY = 2  # then segment-count index and replicate: an enhancement medium's seed


@enum.unique
class PointSeed(enum.IntEnum):  # child_seed(alpha point seed, tag): its two counting seeds
    ZERO_DELAY = 0
    REFERENCE_DELAY = 1


def check_seed(seed: int) -> int:
    """Validate and return a 64-bit unsigned seed."""
    seed = int(seed)
    if not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Return the deterministic generator for ``seed`` and a stream path."""
    seq = np.random.SeedSequence(check_seed(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.PCG64(seq))


def child_seed(seed: int, *path: int) -> int:
    """Derive a 64-bit child seed from a master seed and an integer path."""
    seq = np.random.SeedSequence(check_seed(seed), spawn_key=tuple(int(p) for p in path))
    return int(seq.generate_state(1, dtype=np.uint64)[0])

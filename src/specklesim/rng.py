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

As the lowest module it also owns two argument rules that every other
module shares: :func:`check_integer`, the one integer rule, and
:func:`read_only_copy`, the one way a record takes its own arrays.
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np

STREAM_CONTRACT = 3  # version of the seed-to-draw rules; 3 draws Monte Carlo pairs, not pulses
SEED_RULE = (0, 2**64, "unsigned 64-bit integer")  # check_integer's range and text for a seed


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


def check_integer(name: str, value, low: int = 1, high: float = math.inf, expected: str = "positive integer") -> int:
    """``value`` as an ``int``: it must be a real, finite, integral number in ``[low, high)``.

    Anything else raises ``ValueError`` naming ``name`` and what was ``expected``.
    """
    # int and float skip the slower ABC test; the range test fails NaN and both infinities, so int() never overflows
    if isinstance(value, (int, float, numbers.Real)) and low <= value < high and int(value) == value:
        return int(value)
    raise ValueError(f"{name}: expected {expected}, got {value!r}")


def check_seed(seed: int) -> int:
    """A 64-bit unsigned seed as an ``int``, by :func:`check_integer`."""
    return check_integer("seed", seed, *SEED_RULE)


def read_only_copy(value, dtype=float) -> np.ndarray:
    """A new ``dtype`` array of ``value`` that nothing can write, for records that own their arrays."""
    array = np.array(value, dtype=dtype)
    array.flags.writeable = False
    return array


def _sequence(seed: int, path: tuple) -> np.random.SeedSequence:
    key = [check_integer("path", tag, 0, math.inf, "nonnegative integer") for tag in path]
    return np.random.SeedSequence(check_seed(seed), spawn_key=key)


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Return the deterministic generator for ``seed`` and a stream path."""
    return np.random.Generator(np.random.PCG64(_sequence(seed, path)))


def child_seed(seed: int, *path: int) -> int:
    """Derive a 64-bit child seed from a master seed and an integer path."""
    return int(_sequence(seed, path).generate_state(1, dtype=np.uint64)[0])

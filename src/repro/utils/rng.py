"""Consistent seed derivation for every random decision in the system.

Workload generation, fault-schedule draws, and retry-backoff jitter all
need the same property: a run is a pure function of its seeds, and two
modules drawing from the same base seed must not accidentally share (or
collide on) a stream.  ``derive_rng`` builds a ``numpy`` generator from
a base seed plus an arbitrary *stream path* of ints and strings, so
call sites spell out what the draw is for::

    rng = derive_rng(seed, "workload", "arrivals")
    u = derive_uniform(seed, phase, src, dst, attempt)

String components are hashed with CRC-32 (stable across processes and
Python versions, unlike ``hash``); integer components pass through with
the sign bit masked off.  ``derive_uniform(seed, a, b, ...)`` with
all-integer components is bit-identical to the historical
``np.random.default_rng([seed & 0x7FFFFFFF, a, b, ...]).random()``
formula the fault injector used before this helper existed, so probed
traces and chaos runs replay unchanged.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

_MASK = 0x7FFFFFFF

StreamPart = Union[int, str]


def _component(part: StreamPart) -> int:
    """One non-negative 31-bit integer per stream-path component."""
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8")) & _MASK
    return int(part) & _MASK


def derive_seed_sequence(seed: int, *stream: StreamPart) -> list:
    """The integer seed list feeding ``np.random.default_rng``."""
    return [int(seed) & _MASK] + [_component(part) for part in stream]


def derive_rng(seed: int, *stream: StreamPart) -> np.random.Generator:
    """A generator for one named stream of a seeded run."""
    return np.random.default_rng(derive_seed_sequence(seed, *stream))


def derive_uniform(seed: int, *stream: StreamPart) -> float:
    """One deterministic uniform draw in [0, 1) for a stream path."""
    return float(derive_rng(seed, *stream).random())


# ----------------------------------------------------------------------
# Keyed per-id draws (counter-based, order-free).
#
# Samplers need a uniform *per vertex or edge id* that does not depend
# on how many draws happened before it: LABOR requires all candidate
# lists that contain vertex ``u`` to see the *same* uniform for ``u``,
# and the rounds of one batch-dependency block must draw the same
# uniform for an id whichever other ids they hold.  A sequential
# generator cannot provide either, so these helpers hash
# ``(stream path, id)`` through splitmix64.

_U64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB


def _splitmix64_int(z: int) -> int:
    z &= _U64
    z = ((z ^ (z >> 30)) * _MIX_1) & _U64
    z = ((z ^ (z >> 27)) * _MIX_2) & _U64
    return z ^ (z >> 31)


def _stream_key(seed: int, *stream: StreamPart) -> int:
    """Fold a stream path into one 64-bit key (same components as
    :func:`derive_seed_sequence`, so stream naming stays uniform)."""
    key = _splitmix64_int((int(seed) & _MASK) + _GAMMA)
    for part in stream:
        key = _splitmix64_int(key ^ (_component(part) + _GAMMA))
    return key


def hashed_uint64(seed: int, *stream: StreamPart, ids) -> np.ndarray:
    """One 64-bit hash per id, a pure function of ``(stream path, id)``."""
    ids = np.asarray(ids, dtype=np.int64).astype(np.uint64)
    key = np.uint64(_stream_key(seed, *stream))
    with np.errstate(over="ignore"):
        z = (ids + np.uint64(1)) * np.uint64(_GAMMA) + key
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_2)
    return z ^ (z >> np.uint64(31))


def hashed_uniforms(seed: int, *stream: StreamPart, ids) -> np.ndarray:
    """One uniform in [0, 1) per id, keyed by ``(stream path, id)``.

    Unlike ``derive_rng(...).random(n)`` the value for a given id is
    independent of every other id in the batch and of call order, which
    is what makes LABOR's shared per-vertex uniforms possible.
    """
    return (hashed_uint64(seed, *stream, ids=ids) >> np.uint64(11)) * float(
        2.0**-53
    )

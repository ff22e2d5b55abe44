"""Counter-based keyed randomness.

Every random decision in this package is a pure function of
``(base_seed, stream_id, label, counter)``: a 64-bit key is derived from the
seed pair and an operation label, and the counter (a coordinate's linear
index, a draw index, a restart number, ...) is hashed through a splitmix64
finalizer.  There is no sequential generator state, so results are identical
under any iteration order or degree of parallelism.

Every array of draws comes from one kernel, ``_hash53``.  It walks the
counters in blocks of ``core._PASS`` and hashes each block in place in two
reused uint64 buffers.  For a contiguous run of counters it adds the block's
offset ``(start * GAMMA + key) mod 2^64``, computed with Python integers, to
a precomputed ``i * GAMMA`` ramp.  It yields the top 53 bits ``h`` of each
hash; the uniform is ``u = h * 2^-53`` exactly.  ``hashes`` and
``uniforms`` read it over any counters.  So ranking on ``h`` is ranking on
``u``, and the Bernoulli(p) keep test ``u < p`` is the exact integer test
``h < ceil(p * 2^53)``, which ``_kept`` runs with no float temporary.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import core
from .core import _LINEAR_LIMIT, _check_probability

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# operation labels; distinct values keep substreams independent
LBL_BERNOULLI = 0x01
LBL_SPARSIFY = 0x02
LBL_HYPEREDGE = 0x03
LBL_POWER_INIT = 0x04
LBL_HOPM_INIT = 0x05
LBL_SLICE = 0x06
LBL_SUBSET_SIZE = 0x07
LBL_SUBSET_MEMBERS = 0x08

_U_GAMMA, _U_MIX1, _U_MIX2 = np.uint64(_GAMMA), np.uint64(_MIX1), np.uint64(_MIX2)
_U11, _U27, _U30, _U31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)
# i * GAMMA mod 2^64 (i < core._PASS): counter start + i is start's offset plus _RAMP[i]
_RAMP = np.arange(core._PASS, dtype=np.uint64) * _U_GAMMA
_RAMP.flags.writeable = False


@dataclass(frozen=True)
class SeedSpec:
    """Seed pair of integers in [0, 2^64): a base seed plus a stream id (typically the trial index)."""

    base_seed: int = 0
    stream_id: int = 0

    def __post_init__(self):
        for name in ("base_seed", "stream_id"):
            v = operator.index(getattr(self, name))
            if not 0 <= v < 1 << 64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v}")
            object.__setattr__(self, name, v)


def _fin_int(z: int) -> int:
    z &= _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def stream_key(seed: SeedSpec, label: int) -> int:
    """64-bit key for one (seed, operation) substream."""
    k = _fin_int(seed.base_seed + _GAMMA)
    k = _fin_int(k ^ _fin_int(seed.stream_id + 3 * _GAMMA))
    k = _fin_int(k ^ _fin_int(label + 5 * _GAMMA))
    return k


def _hash53(key: int, counters) -> Iterator[tuple]:
    """Top 53 bits of the keyed splitmix64 hash of each counter, by block.

    ``counters`` is a 1-d array (cast to uint64 as ``astype`` does) or a
    ``range`` with step 1.  Yields ``(lo, h)`` for each block of up to
    ``core._PASS`` counters starting at position ``lo``; ``h`` is a view of
    a buffer that the next block overwrites.
    """
    total, block = len(counters), core._PASS
    contiguous = isinstance(counters, range)
    z = np.empty(min(total, block), dtype=np.uint64)
    tmp = np.empty_like(z)
    for lo in range(0, total, block):
        count = min(block, total - lo)
        h, t = z[:count], tmp[:count]
        if contiguous:
            np.add(_RAMP[:count], np.uint64(((counters.start + lo) * _GAMMA + key) & _MASK64), out=h)
        else:
            h[...] = counters[lo:lo + count]
            h *= _U_GAMMA
            h += np.uint64(key)
        np.right_shift(h, _U30, out=t)
        h ^= t
        h *= _U_MIX1
        np.right_shift(h, _U27, out=t)
        h ^= t
        h *= _U_MIX2
        np.right_shift(h, _U31, out=t)
        h ^= t
        h >>= _U11
        yield lo, h


def hashes(key: int, counters) -> np.ndarray:
    """The 53-bit hashes (uint64) of the counters, a ``range`` with step 1 or
    a 1-d integer array: ranking on them is ranking on ``uniforms``."""
    out = np.empty(len(counters), dtype=np.uint64)
    for lo, h in _hash53(key, counters):
        out[lo:lo + len(h)] = h
    return out


def uniforms(key: int, counters) -> np.ndarray:
    """Uniforms in [0, 1) at the counters: exactly ``hashes(key, counters) * 2^-53``."""
    return hashes(key, counters) * 2.0**-53


def _kept(key: int, counters, p) -> np.ndarray:
    """Ascending uint64 positions i of the counters whose hash h passes the
    Bernoulli(p) keep test ``h * 2^-53 < p``, run as ``h < ceil(p * 2^53)``.

    ``p`` is one probability, or an array of one per counter.
    """
    thresh = np.ceil(np.multiply(p, 2.0**53)).astype(np.uint64)
    kept = []
    for lo, h in _hash53(key, counters):
        below = h < (thresh if thresh.ndim == 0 else thresh[lo:lo + len(h)])
        kept.append(np.flatnonzero(below).astype(np.uint64) + np.uint64(lo))
    return np.concatenate(kept) if kept else np.empty(0, dtype=np.uint64)


def bernoulli_positions(total: int, p: float, key: int) -> np.ndarray:
    """Sorted uint64 positions in [0, total) kept by independent Bernoulli(p).

    Up to 2^21 positions the result is the per-coordinate stream
    (``_kept`` over every position: one keyed uniform each); above that it
    is the geometric-skipping stream (``_positions_skip``: gaps drawn over a
    sequential draw counter, O(total * p) expected).  The two are
    distributionally identical but not byte-identical; the choice depends
    only on ``total``, never on p or the seed.
    """
    _check_probability(p)
    if total < 0 or total >= 1 << 63:
        raise ValueError(f"coordinate space size out of range: {total}")
    if total == 0 or p == 0.0:
        return np.empty(0, dtype=np.uint64)
    if p == 1.0:
        return np.arange(total, dtype=np.uint64)
    if total <= 1 << 21:
        return _kept(key, range(total), p)
    return _positions_skip(total, p, key)


def _positions_skip(total: int, p: float, key: int) -> np.ndarray:
    # A gap past total ends the stream whatever its length, so each is clipped at the power
    # of two above total, and a block of at most 2^63 / clip of them sums below 2^64.
    log1mp = math.log1p(-p)
    clip = 1 << total.bit_length()
    block = min(max(1024, min(core._PASS, int(total * p * 1.25) + 64)), _LINEAR_LIMIT // clip)
    out = []
    done = 0  # every position below done is decided
    drawn = 0
    while done < total:
        u = (hashes(key, range(drawn, drawn + block)) + np.uint64(1)) * 2.0**-53  # in (0, 1]
        with np.errstate(over="ignore"):  # a subnormal log1mp makes inf, which clip bounds
            gaps = np.minimum(np.floor(np.log(u) / log1mp), clip).astype(np.uint64)
        skips = np.cumsum(gaps + np.uint64(1)) - np.uint64(1)  # each position less done
        out.append(skips[skips < total - done] + np.uint64(done))
        done += int(skips[-1]) + 1
        drawn += block
    return np.concatenate(out)


"""Seeded, cross-platform random graph sampling.

One public entry point, :func:`sample_gnp`, draws a graph in which each of the
C(n,2) vertex pairs appears independently with probability p. Two kernels sit
behind it, and p alone picks one:

* sparse, for p below ``SPARSE_KERNEL_THRESHOLD``: geometric gaps between
  successive present pairs, so work scales with the number of edges drawn
  rather than the number of pairs;
* dense, for every other p (p = 1 included): one uniform draw per pair,
  compared against p in canonical pair order.

Both kernels consume a counter-based Philox stream keyed by
``master_seed XOR mix64(stream_index)`` where ``mix64`` is the SplitMix64
finalizer, so every (master_seed, stream_index, n, p) tuple yields a
bit-identical graph on every platform. Both stop with ``ValueError`` as soon
as the pairs drawn so far pass ``MAX_EDGES``.

Both kernels yield the canonical ranks of the present pairs in increasing
order. The decode is an exact integer row search: the row starts
``u*n - u(u+1)/2`` are searched in the ranks, which gives the CSR row pointer
of the graph directly, and each rank minus its row's offset gives the second
endpoint. The sweep trials in :mod:`mclab.threshold` carry that one CSR,
``(indptr, tails)``, to m, the degrees and the components without building a
:class:`~mclab.graphs.Graph`; :func:`pairs_from_indices` adds the first
endpoints back for callers that need edge pairs.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .graphs import MAX_EDGES, MAX_VERTICES, Graph

_MASK64 = (1 << 64) - 1

# p below this draws with the geometric-gap kernel
SPARSE_KERNEL_THRESHOLD = 0.1

_DENSE_CHUNK = 1 << 20
_SPARSE_BATCH = 4096


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed 64-bit bijective scrambler."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _index(value) -> int:
    """``operator.index``, which refuses floats and strings where int() would
    take them, refusing bools too: True is neither a seed nor a count."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a bool, not an integer")
    return operator.index(value)


def _real(value, message: str) -> float:
    """``float(value)`` for a real number, numpy scalars included; a
    ``ValueError(message)`` for a bool (numpy's too) or a string, which
    float() would read as 1.0 or parse."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(message)
    return float(value)


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus a stream index; together they pin every random draw."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        try:
            master, stream = _index(self.master_seed), _index(self.stream_index)
        except TypeError:
            raise ValueError("master_seed and stream_index must be integers") from None
        if not (0 <= master <= _MASK64):
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if not (0 <= stream <= _MASK64):
            raise ValueError("stream_index must be a non-negative 64-bit integer")
        object.__setattr__(self, "master_seed", master)
        object.__setattr__(self, "stream_index", stream)

    def stream_key(self) -> int:
        return self.master_seed ^ mix64(self.stream_index)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.stream_key()))


def _decode_rows(ranks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR row pointer and second endpoints of increasing, in-range pair ranks.

    Row u = 0..n starts at rank u*n - u(u+1)/2 (row n at C(n,2)), so
    ``indptr[u]`` counts the ranks below that start and row u holds ranks
    ``indptr[u]:indptr[u+1]``: the pairs (u, v) with v = rank - start + u + 1.
    The first endpoints are implied by ``indptr`` and never materialised here.
    """
    rows = np.arange(n + 1, dtype=np.int64)
    starts = rows * n - rows * (rows + 1) // 2
    indptr = np.searchsorted(ranks, starts)
    tails = np.repeat(starts[:-1] - rows[:-1] - 1, np.diff(indptr))
    np.subtract(ranks, tails, out=tails)
    return indptr, tails


def pairs_from_indices(indices: np.ndarray, n: int) -> np.ndarray:
    """Decode canonical pair ranks to (u, v) endpoint columns, vectorized.

    Inverse of the rank formula u*n - u(u+1)/2 + (v-u-1), in exact integer
    arithmetic: each rank's row u is found by searching the row starts in the
    ranks. The ranks must be strictly increasing (as both sampling kernels
    emit them) and lie in [0, C(n,2)); anything else raises ValueError.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError("pair ranks must be a one-dimensional array")
    if idx.size:
        if idx[0] < 0 or idx[-1] >= n * (n - 1) // 2:
            raise ValueError(f"pair rank out of range for n={n}")
        if not (np.diff(idx) > 0).all():
            raise ValueError("pair ranks must be strictly increasing")
    indptr, tails = _decode_rows(idx, n)
    return np.column_stack([np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr)), tails])


def _dense_indices(gen: np.random.Generator, total: int, p: float) -> np.ndarray:
    hits = []
    drawn = 0
    for start in range(0, total, _DENSE_CHUNK):
        hits.append(np.nonzero(gen.random(min(_DENSE_CHUNK, total - start)) < p)[0] + start)
        drawn += hits[-1].size
        if drawn > MAX_EDGES:
            raise ValueError(f"drawn edge count exceeds limit {MAX_EDGES}")
    return np.concatenate(hits)


def _sparse_indices(gen: np.random.Generator, total: int, p: float) -> np.ndarray:
    # gap to the next present pair is geometric: 1 + floor(log(1-U)/log(1-p)).
    # For tiny p the quotient can exceed int64 or overflow to inf, so it is
    # clamped to `total` before the cast; any gap that long ends the draw.
    # The first batch holds E[m] + 4 sqrt(E[m]) uniforms, at least four standard
    # deviations above the mean edge count, so one batch nearly always
    # suffices; it never holds more than MAX_EDGES + 1, enough to see a draw
    # pass the limit. Philox yields the same doubles however the calls are
    # chunked, and the steps increase strictly, so the ranks do not depend on
    # the batch sizes.
    log_q = math.log1p(-p)
    expected = total * p
    size = min(MAX_EDGES + 1, max(_SPARSE_BATCH, int(expected + 4 * math.sqrt(expected))))
    hits = []
    drawn = 0
    position = -1
    while True:
        u = gen.random(size)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        with np.errstate(over="ignore"):
            np.divide(u, log_q, out=u)
        np.floor(u, out=u)
        np.minimum(u, total, out=u)
        steps = u.astype(np.int64)
        steps += 1
        steps[0] += position
        np.cumsum(steps, out=steps)
        end = int(np.searchsorted(steps, total))
        drawn += end
        if drawn > MAX_EDGES:
            raise ValueError(f"drawn edge count exceeds limit {MAX_EDGES}")
        hits.append(steps[:end])
        if end < size:
            break
        position = int(steps[-1])
        size = _SPARSE_BATCH
    return hits[0] if len(hits) == 1 else np.concatenate(hits)


def _draw(n: int, p: float, seed: RngSeed) -> np.ndarray:
    """Check the arguments of :func:`sample_gnp`, then draw the increasing
    canonical ranks of the present pairs from the seed's Philox stream."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError("vertex count must be a positive integer")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds limit {MAX_VERTICES}")
    p = _real(p, "edge probability must be a real number")
    if math.isnan(p) or not (0.0 <= p <= 1.0):
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")

    total = n * (n - 1) // 2
    if total == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64)
    if p < SPARSE_KERNEL_THRESHOLD:
        return _sparse_indices(seed.generator(), total, p)
    return _dense_indices(seed.generator(), total, p)


def sample_gnp(n: int, p: float, seed: RngSeed) -> Graph:
    """Draw one graph from the independent-pairs model, deterministically per seed."""
    return Graph(n, pairs_from_indices(_draw(n, p, seed), n))

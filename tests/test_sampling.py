"""Seeded sampling: determinism, canonical output, and distributional checks.

The statistical assertions use fixed seeds, so they are regression tests, not
flaky coin flips: the tolerance was checked once against the math and the
specific draw is pinned forever.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import mclab.sampling
from mclab.graphs import MAX_VERTICES
from mclab.sampling import (
    _DENSE_CHUNK,
    SPARSE_KERNEL_THRESHOLD,
    RngSeed,
    _dense_indices,
    _draw,
    _sparse_indices,
    mix64,
    pairs_from_indices,
    sample_gnp,
)
from mclab.threshold import ThresholdSpec, run_trial


def test_mix64_reference_vectors():
    # first outputs of the SplitMix64 reference sequence for states 0 and 1
    assert mix64(0) == 0xE220A8397B1DCDAF
    assert mix64(1) == 0x910A2DEC89025CC1
    assert mix64((1 << 64) - 1) != mix64(0)


def test_rng_seed_stream_key_derivation():
    s = RngSeed(master_seed=12345, stream_index=7)
    assert s.stream_key() == 12345 ^ mix64(7)
    assert RngSeed(0, 0).stream_key() == mix64(0)


def test_rng_seed_validation():
    with pytest.raises(ValueError):
        RngSeed(-1, 0)
    with pytest.raises(ValueError):
        RngSeed(1 << 64, 0)
    with pytest.raises(ValueError):
        RngSeed(0, -3)
    # non-integers fail at construction, not later in generator() or the range check
    with pytest.raises(ValueError, match="integers"):
        RngSeed(1.5)
    with pytest.raises(ValueError, match="integers"):
        RngSeed("7")
    with pytest.raises(ValueError, match="integers"):
        RngSeed(7, 2.0)
    # operator.index alone reads True and False as 1 and 0
    for bad in ((True, 0), (1, False), (True, False)):
        with pytest.raises(ValueError, match="integers"):
            RngSeed(*bad)
    seed = RngSeed(np.uint64(7), np.int32(3))
    assert type(seed.master_seed) is int and type(seed.stream_index) is int
    assert seed == RngSeed(7, 3)


def test_rng_seed_streams_reproduce():
    a = RngSeed(99, 4).generator().random(8)
    b = RngSeed(99, 4).generator().random(8)
    assert np.array_equal(a, b)


def test_sample_gnp_deterministic_per_seed():
    seed = RngSeed(2024, 17)
    g1 = sample_gnp(40, 0.3, seed)
    g2 = sample_gnp(40, 0.3, seed)
    assert g1 == g2
    assert g1 != sample_gnp(40, 0.3, RngSeed(2024, 18))
    assert g1 != sample_gnp(40, 0.3, RngSeed(2025, 17))


def test_sample_gnp_extremes():
    g0 = sample_gnp(5, 0.0, RngSeed(1))
    assert g0.n == 5 and g0.m == 0
    g1 = sample_gnp(5, 1.0, RngSeed(1))
    assert g1.m == 10 and g1.is_complete()
    single = sample_gnp(1, 0.7, RngSeed(3))
    assert single.n == 1 and single.m == 0


@pytest.mark.parametrize("p", [1e-12, 1e-17, 1e-20, 1e-300, 5e-324])
def test_sparse_kernel_tiny_p_draws_no_edges(p):
    # the geometric gap overflows int64 for such p unless clamped before the cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = sample_gnp(100, p, RngSeed(1))
    assert g.n == 100 and g.m == 0


def _sparse_grid():
    """(n, p) cells of the sparse-kernel differential test, with E[m] far
    below the edge limit: the first batch holds about E[m] uniforms."""
    cells = [(MAX_VERTICES, 1e-12)]
    for n in (2, 3, 16, 2000, 10_000):
        # five times p* = (f + n log log n)/n^2 for f = n log n, where below 1
        dense = 5 * (n * math.log(n) + n * math.log(math.log(n))) / (n * n)
        for p in (5e-324, 1e-17, 1e-6, math.log(n) / n, dense, 0.0999):
            if p < 1:
                cells.append((n, p))
    return cells


# at n = 2000, p = log n/n this draw holds more pairs than the E[m] + 4 sqrt(E[m])
# uniforms of its first batch, so it needs a second one
TWO_BATCH_SEED = RngSeed(606, 14258)


class Recording:
    """Generator wrapper that logs the size of every batch of uniforms asked for."""

    def __init__(self, gen, sizes):
        self.gen = gen
        self.sizes = sizes

    def random(self, size):
        self.sizes.append(size)
        return self.gen.random(size)


def test_sparse_kernel_matches_fixed_batch_loop():
    # the ranks may not depend on how the uniforms are batched; the grid's
    # n = 2 and 3 cells with p >= 0.1 are ones _draw sends to the dense kernel
    batches = []
    for n, p in _sparse_grid():
        seeds = [RngSeed(606, t) for t in range(20)]
        if (n, p) == (2000, math.log(2000) / 2000):
            seeds.append(TWO_BATCH_SEED)
        for seed in seeds:
            batches.append([])
            total = n * (n - 1) // 2
            got = _sparse_indices(Recording(seed.generator(), batches[-1]), total, p)
            want = oracles.batched_sparse_ranks(seed.generator(), total, p)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, p, seed)
    assert max(len(sizes) for sizes in batches) > 1


def test_draws_past_the_edge_limit_stop_early(monkeypatch):
    # E[m] at n = 2000 is about 10^5 (p = 0.05) and 10^6 (p = 0.5), far past
    # the patched limit of 1000 edges and far below the real one
    monkeypatch.setattr(mclab.sampling, "MAX_EDGES", 1000)
    n, total = 2000, 2000 * 1999 // 2
    # the sparse draw stops after its first batch, the dense one after its first chunk
    for kernel, p, first in ((_sparse_indices, 0.05, 1001), (_dense_indices, 0.5, _DENSE_CHUNK)):
        sizes = []
        with pytest.raises(ValueError, match="exceeds limit 1000"):
            kernel(Recording(RngSeed(5, 1).generator(), sizes), total, p)
        assert sizes == [first]
        with pytest.raises(ValueError, match="exceeds limit 1000"):
            sample_gnp(n, p, RngSeed(5, 1))
        with pytest.raises(ValueError, match="exceeds limit 1000"):
            run_trial(n, p, ThresholdSpec.constant(1), RngSeed(5, 1))
    # a draw within the limit keeps its ranks while the first batch is capped
    for t in range(20):
        sizes = []
        seed = RngSeed(5, t)
        got = _sparse_indices(Recording(seed.generator(), sizes), 19900, 0.02)
        assert sizes[0] == 1001 and got.size <= 1000
        assert np.array_equal(got, oracles.batched_sparse_ranks(seed.generator(), 19900, 0.02))


def test_sample_gnp_rejects_bad_arguments():
    seed = RngSeed(0)
    for bad_p in (float("nan"), -0.1, 1.0000001):
        with pytest.raises(ValueError):
            sample_gnp(5, bad_p, seed)
    # float() would read True as 1.0 and parse "0.5"
    for bad_p in (True, np.True_, "0.5"):
        with pytest.raises(ValueError, match="edge probability must be a real number"):
            sample_gnp(5, bad_p, seed)
    assert sample_gnp(5, np.float32(0.5), seed) == sample_gnp(5, 0.5, seed)
    with pytest.raises(ValueError):
        sample_gnp(0, 0.5, seed)


def test_auto_kernel_selection_is_pinned():
    seed = RngSeed(77, 1)
    below = SPARSE_KERNEL_THRESHOLD / 2
    above = SPARSE_KERNEL_THRESHOLD
    total = 60 * 59 // 2
    assert np.array_equal(_draw(60, below, seed), _sparse_indices(seed.generator(), total, below))
    assert np.array_equal(_draw(60, above, seed), _dense_indices(seed.generator(), total, above))
    assert np.array_equal(_draw(60, 1.0, seed), np.arange(total))


@given(
    st.integers(min_value=1, max_value=120),
    st.sampled_from([0.0, 0.01, 0.05, 0.1, 0.3, 0.7, 1.0]),
    st.integers(min_value=0, max_value=2**64 - 1),
)
@settings(max_examples=120, deadline=None)
def test_sample_gnp_output_is_canonical(n, p, master):
    g = sample_gnp(n, p, RngSeed(master, 5))
    arr = g.edge_array
    assert g.n == n
    if arr.shape[0]:
        assert (arr[:, 0] < arr[:, 1]).all()
        assert arr.min() >= 0 and arr.max() < n
        keys = arr[:, 0] * n + arr[:, 1]
        assert (np.diff(keys) > 0).all()


# ----------------------------------------------------------------- decoding


def test_pairs_from_indices_matches_scalar_decode():
    for n in (2, 3, 4, 5, 17, 64, 301):
        total = n * (n - 1) // 2
        decoded = pairs_from_indices(np.arange(total), n)
        expected = np.array([oracles.pair_at(i, n) for i in range(total)])
        assert np.array_equal(decoded, expected)


@given(st.integers(min_value=2, max_value=1 << 20), st.data())
@settings(max_examples=200, deadline=None)
def test_pairs_from_indices_matches_scalar_decode_large(n, data):
    total = n * (n - 1) // 2
    idx = data.draw(st.integers(min_value=0, max_value=total - 1))
    u, v = pairs_from_indices(np.array([idx]), n)[0]
    assert (int(u), int(v)) == oracles.pair_at(idx, n)


@pytest.mark.parametrize("n", [2, 3, 10_000, MAX_VERTICES])
def test_pairs_from_indices_sorted_batches(n):
    # rank 0, the first rank of the last row, the last rank, and random ranks
    total = n * (n - 1) // 2
    last_row_start = (n - 2) * n - (n - 2) * (n - 1) // 2
    rng = np.random.default_rng(n)
    for _ in range(5):
        drawn = rng.integers(0, total, size=min(total, 300))
        ranks = np.unique(np.concatenate([[0, last_row_start, total - 1], drawn]))
        decoded = pairs_from_indices(ranks, n)
        assert decoded.dtype == np.int64 and decoded.shape == (ranks.size, 2)
        expected = [oracles.pair_at(int(i), n) for i in ranks]
        assert [tuple(pair) for pair in decoded.tolist()] == expected
    assert oracles.pair_at(last_row_start, n) == (n - 2, n - 1)


def test_pairs_from_indices_rejects_bad_ranks():
    with pytest.raises(ValueError, match="increasing"):
        pairs_from_indices(np.array([3, 1, 4]), 10)
    with pytest.raises(ValueError, match="increasing"):
        pairs_from_indices(np.array([2, 2]), 10)
    with pytest.raises(ValueError, match="out of range"):
        pairs_from_indices(np.array([-1, 0]), 10)
    with pytest.raises(ValueError, match="out of range"):
        pairs_from_indices(np.array([44, 45]), 10)
    assert pairs_from_indices(np.array([], dtype=np.int64), 10).shape == (0, 2)


# ------------------------------------------------------------- distribution


@pytest.mark.parametrize("p", [0.05, 0.5])
@pytest.mark.parametrize("kernel", [_dense_indices, _sparse_indices], ids=["dense", "sparse"])
def test_kernels_agree_with_edge_probability(p, kernel):
    # per-pair frequency over many trials stays within 4 standard errors of p
    n, trials = 50, 20_000
    total = n * (n - 1) // 2
    counts = np.zeros(total, dtype=np.int64)
    for t in range(trials):
        counts[kernel(RngSeed(8_675_309, t).generator(), total, p)] += 1
    freq = counts / trials
    se = math.sqrt(p * (1 - p) / trials)
    worst = np.abs(freq - p).max()
    assert worst <= 4 * se, f"worst deviation {worst:.5f} exceeds 4 SE {4 * se:.5f}"


def test_mean_edge_count_matches_binomial():
    n, p, trials = 100, 0.5, 10_000
    total = n * (n - 1) // 2
    ms = np.fromiter(
        (sample_gnp(n, p, RngSeed(1_000_003, t)).m for t in range(trials)),
        dtype=np.int64,
        count=trials,
    )
    se_mean = math.sqrt(total * p * (1 - p) / trials)
    assert abs(ms.mean() - total * p) <= 3 * se_mean

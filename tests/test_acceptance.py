"""Acceptance gate: eight end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Statistical criteria use fixed master seeds, so every figure below is
reproducible bit for bit; tolerances are asserted, not assumed.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from mclab.coloring import (
    analyze,
    exact_mc_small,
    exactness_certificate,
    mc_lower_bound,
    mc_upper_bound,
    spanning_tree_coloring,
    verify_mc_coloring,
)
from mclab.graphs import Graph, complete_graph, is_connected
from mclab.sampling import RngSeed, sample_gnp
from mclab.threshold import (
    DISCONNECTED,
    LOWER_BOUND,
    NO,
    UPPER_BOUND,
    YES,
    SweepConfig,
    ThresholdSpec,
    chernoff_lower_tail,
    chernoff_upper_tail,
    run_trial,
    sweep,
    threshold_p,
    trial_seed,
)

from oracles import all_graphs


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def timed_sweep(config: SweepConfig):
    start = time.monotonic()
    report = sweep(config)
    return config, report, time.monotonic() - start


@pytest.fixture(scope="module")
def small_exact():
    """Every labeled connected graph with n <= 5, paired with its exact value."""
    out = []
    for n in range(1, 6):
        for g in all_graphs(n):
            if is_connected(g):
                out.append((g, exact_mc_small(g)))
    return out


@pytest.fixture(scope="module")
def connectivity_sweep():
    # f(n) = 1, so YES means exactly "the sample is connected"
    return timed_sweep(SweepConfig(
        spec=ThresholdSpec.constant(1.0),
        n_list=(10_000,),
        multiplier_list=(1.0,),
        trials=2000,
        master_seed=1729,
    ))


@pytest.fixture(scope="module")
def dense_sweep():
    return timed_sweep(SweepConfig(
        spec=ThresholdSpec.nlogn(1.0),
        n_list=(2000,),
        multiplier_list=(1.0, 5.0),
        trials=200,
        master_seed=42,
    ))


@pytest.fixture(scope="module")
def sparse_sweep():
    return timed_sweep(SweepConfig(
        spec=ThresholdSpec.power(1.0),
        n_list=(2000,),
        multiplier_list=(0.5, 3.0),
        trials=200,
        master_seed=7,
    ))


def test_criterion_1_construction_validity():
    start = time.monotonic()
    picker = np.random.default_rng(20260814)
    failures = []
    accepted = 0
    stream = 0
    while accepted < 1000:
        n = int(picker.integers(4, 51))
        p = float(picker.uniform(0.2, 1.0))
        g = sample_gnp(n, p, RngSeed(1001, stream))
        stream += 1
        if not is_connected(g):
            continue
        accepted += 1
        coloring = spanning_tree_coloring(g)
        if coloring.num_colors != g.m - g.n + 2 or not verify_mc_coloring(g, coloring):
            failures.append((n, p, stream - 1))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 10.0
    report_line(1, ok,
                f"1000/1000 seeded connected samples colored with m-n+2 colors "
                f"and verified, {len(failures)} failures, {elapsed:.1f}s < 10s")


def test_criterion_2_exact_oracle_sandwich(small_exact):
    start = time.monotonic()
    failures = []
    for g, exact in small_exact:
        if not (mc_lower_bound(g) <= exact):
            failures.append(("lower", g.n, g.edges))
        if g.n >= 2:
            upper, _ = mc_upper_bound(g)
            if not (exact <= upper):
                failures.append(("upper", g.n, g.edges))
        if g.n >= 4:
            cert = exactness_certificate(g)
            if cert is not None and exact != g.m - g.n + 2:
                failures.append((cert, g.n, g.edges))
        if analyze(g).exact != exact:
            failures.append(("analyze", g.n, g.edges))
        if not g.is_complete() and g.n >= 2:
            if exact >= g.n * (g.n - 1) // 2:
                failures.append(("non-complete max", g.n, g.edges))
    for n in (3, 4, 5):
        if exact_mc_small(complete_graph(n)) != n * (n - 1) // 2:
            failures.append(("complete", n))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 300.0
    report_line(2, ok,
                f"{len(small_exact)} connected graphs with n <= 5: sandwich, "
                f"certificate agreement, and completeness all hold, "
                f"{len(failures)} failures, {elapsed:.1f}s < 300s")


def test_criterion_3_monotone_under_edge_addition(small_exact):
    failures = []
    checks = 0
    for g, base in small_exact:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    continue
                checks += 1
                if exact_mc_small(g.with_edge(u, v)) < base:
                    failures.append((g.n, g.edges, (u, v)))
    ok = not failures
    report_line(3, ok,
                f"exact value never drops over {checks} single-edge additions "
                f"to connected graphs with n <= 5, {len(failures)} failures")


def test_criterion_4_connectivity_limit(connectivity_sweep):
    _, report, elapsed = connectivity_sweep
    row = report.rows[0]
    target = math.exp(-1)
    diff = abs(row.frac_yes - target)
    ok = diff <= 0.05 and elapsed < 120.0
    report_line(4, ok,
                f"n=10000, p=log n/n, {row.trials} trials: P(connected)="
                f"{row.frac_yes:.4f} vs e^-1={target:.4f}, |diff|={diff:.4f} "
                f"<= 0.05, {elapsed:.1f}s < 120s")


def test_criterion_5_dense_threshold(dense_sweep):
    config, report, elapsed = dense_sweep
    spec = config.spec
    n = 2000
    base_p = threshold_p(spec, n)
    bad_sources = []
    for row_index, multiplier in enumerate((1.0, 5.0)):
        for t in range(200):
            outcome = run_trial(n, multiplier * base_p, spec,
                                trial_seed(42, row_index, t))
            if multiplier == 1.0 and outcome.decision == NO:
                if outcome.decision_source not in (UPPER_BOUND, DISCONNECTED):
                    bad_sources.append((multiplier, t, outcome.decision_source))
            if multiplier == 5.0 and outcome.decision == YES:
                if outcome.decision_source != LOWER_BOUND:
                    bad_sources.append((multiplier, t, outcome.decision_source))
    low, high = report.rows
    frac_no = low.no / low.trials
    frac_yes = high.frac_yes
    unknown_ok = low.unknown <= 10 and high.unknown <= 10  # 5% of 200
    ok = (frac_no >= 0.95 and frac_yes >= 0.95 and unknown_ok
          and not bad_sources and elapsed < 180.0)
    report_line(5, ok,
                f"f=n log n, n=2000: frac_no(x1)={frac_no:.3f} >= 0.95, "
                f"frac_yes(x5)={frac_yes:.3f} >= 0.95, unknown=({low.unknown},"
                f"{high.unknown}) <= 5%, {len(bad_sources)} wrong decision "
                f"sources, {elapsed:.1f}s < 180s")


def test_criterion_6_sparse_regime(sparse_sweep):
    _, report, elapsed = sparse_sweep
    low, high = report.rows
    frac_no = low.no / low.trials
    frac_yes = high.frac_yes
    ok = frac_no >= 0.90 and frac_yes >= 0.95 and elapsed < 60.0
    report_line(6, ok,
                f"f=n, n=2000: frac_no(x0.5)={frac_no:.3f} >= 0.90, "
                f"frac_yes(x3)={frac_yes:.3f} >= 0.95, {elapsed:.1f}s < 60s")


def test_criterion_7_chernoff_validity():
    grid = ((8.0, 0.5), (20.0, 0.3), (50.0, 0.2))
    n_draws = 100_000
    rng = RngSeed(271828).generator()
    worst = 0.0
    failures = []
    for mu, delta in grid:
        draws = rng.binomial(1000, mu / 1000.0, size=n_draws)
        pairs = (
            (float(np.mean(draws <= (1 - delta) * mu)), chernoff_lower_tail(mu, delta)),
            (float(np.mean(draws >= (1 + delta) * mu)), chernoff_upper_tail(mu, delta)),
        )
        for emp, bound in pairs:
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / n_draws)
            worst = max(worst, emp - bound)
            if emp > bound + 3 * se:
                failures.append((mu, delta, emp, bound))
    ok = not failures
    report_line(7, ok,
                f"binomial tails on (mu, delta) grid {{(8,0.5),(20,0.3),(50,0.2)}}, "
                f"{n_draws} draws each, never exceed the bounds "
                f"(worst emp-bound={worst:.4f}), {len(failures)} failures")


# SHA-256 of each acceptance sweep's CSV; a speed change must keep these bytes
PINNED_CSV_SHA256 = {
    "connectivity": "74197e37c66d960148a83b2ed1593a975368a86b79c35c01548f2f259f253126",
    "dense": "959f541fd46167f766fe6d99366e8112ab15d6252fb4dffa40b9748db09f77fb",
    "sparse": "daf68ddc49ec57165c9bab82d00b6405cfb5c754aa903ab5d1731fdb0385500b",
}


def test_criterion_8_determinism(connectivity_sweep, dense_sweep, sparse_sweep):
    mismatches = []
    changed = []
    for name, (config, report, _) in (("connectivity", connectivity_sweep),
                                      ("dense", dense_sweep),
                                      ("sparse", sparse_sweep)):
        data = report.to_csv().encode()
        rerun = sweep(config)
        if rerun.to_csv().encode() != data:
            mismatches.append(name)
        if hashlib.sha256(data).hexdigest() != PINNED_CSV_SHA256[name]:
            changed.append(name)
    ok = not mismatches and not changed
    report_line(8, ok,
                f"criteria 4-6 sweeps rerun with identical seeds give "
                f"byte-identical CSV reports, {len(mismatches)} mismatches; "
                f"pinned SHA-256 differs for {changed or 'none'}")

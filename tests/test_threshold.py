"""Threshold formulas, tail bounds, the trial decision procedure, and sweeps."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import binom

import oracles
import mclab.sampling
import mclab.threshold
from mclab.coloring import analyze, exact_mc_small
from mclab.graphs import MAX_VERTICES, Graph, complete_graph, cycle_graph, star_graph
from mclab.sampling import RngSeed, _decode_rows, _draw, sample_gnp
from mclab.threshold import (
    DENSE,
    DISCONNECTED,
    LOWER_BOUND,
    NO,
    SPARSE,
    UNKNOWN,
    UPPER_BOUND,
    YES,
    SweepConfig,
    ThresholdSpec,
    TrialOutcome,
    chernoff_lower_tail,
    chernoff_upper_tail,
    connectivity_prob_limit,
    decide_mc_at_least,
    run_trial,
    sweep,
    threshold_p,
    trial_seed,
)

NLOGN1 = ThresholdSpec.nlogn(1.0)


# ------------------------------------------------------------ spec families


def test_spec_auto_classification():
    assert ThresholdSpec.constant(4).regime == SPARSE
    assert ThresholdSpec.power(0.5).regime == SPARSE
    assert ThresholdSpec.power(1.0).regime == SPARSE
    assert ThresholdSpec.power(1.1).regime == DENSE
    assert ThresholdSpec.power(1.5).regime == DENSE
    assert NLOGN1.regime == DENSE
    assert ThresholdSpec.custom({100: 50.0}, SPARSE).regime == SPARSE
    assert ThresholdSpec.custom({100: 700.0}, DENSE).regime == DENSE


def test_spec_validation():
    with pytest.raises(ValueError):
        ThresholdSpec.constant(0.5)
    with pytest.raises(ValueError):
        ThresholdSpec.power(0)
    with pytest.raises(ValueError):
        ThresholdSpec.power(2)
    with pytest.raises(ValueError):
        ThresholdSpec.nlogn(0)
    # float() would read True as 1.0 and parse "2"; numpy scalars are reals
    for bad in (True, np.True_, "2"):
        with pytest.raises(ValueError, match="constant f must be a real number"):
            ThresholdSpec.constant(bad)
        with pytest.raises(ValueError, match="power exponent must be a real number"):
            ThresholdSpec.power(bad)
        with pytest.raises(ValueError, match="ell must be a real number"):
            ThresholdSpec.nlogn(bad)
        with pytest.raises(ValueError, match="'table': every value must be a real number"):
            ThresholdSpec.custom({100: bad}, SPARSE)
    assert ThresholdSpec.nlogn(np.float32(0.5)) == ThresholdSpec.nlogn(0.5)
    assert ThresholdSpec.constant(np.int64(3)) == ThresholdSpec.constant(3.0)
    with pytest.raises(ValueError):
        ThresholdSpec.custom({}, SPARSE)
    with pytest.raises(ValueError):
        ThresholdSpec.custom({100: 5.0}, "MEDIUM")
    with pytest.raises(TypeError):  # the dense formula reads only f, never an ell
        ThresholdSpec.custom({100: 5.0}, DENSE, ell=1.0)
    for value in (math.nan, math.inf, -math.inf):  # JSON has no spelling for these
        with pytest.raises(ValueError, match="'table'"):
            ThresholdSpec.custom({100: 5.0, 200: value}, SPARSE)
    # n must be an integer: int() would read 100.5 and "100" as 100, and two
    # keys would then both land on n = 100; True would be n = 1
    for table in ({100.5: 50.0}, {"100": 50.0}, {100: 1.0, 100.7: 2.0}, {True: 0.5, 20: 30.0}):
        with pytest.raises(ValueError, match="'table'"):
            ThresholdSpec.custom(table, SPARSE)
    assert ThresholdSpec.custom({np.int64(100): 50.0}, SPARSE).table == ((100, 50.0),)


def test_f_value_and_range():
    assert ThresholdSpec.constant(7).f_value(100) == 7
    assert ThresholdSpec.power(0.5).f_value(10000) == pytest.approx(100.0)
    assert NLOGN1.f_value(1000) == pytest.approx(1000 * math.log(1000))
    spec = ThresholdSpec.custom({64: 40.0}, SPARSE)
    assert spec.f_value(64) == 40.0
    with pytest.raises(ValueError):
        spec.f_value(65)  # not tabulated
    with pytest.raises(ValueError):
        ThresholdSpec.constant(200).f_value(20)  # 200 >= C(20,2) = 190


HUGE_N = 10**160  # C(n, 2) and n^2 are past the float range here


@pytest.mark.parametrize("spec", [
    ThresholdSpec.constant(1),
    ThresholdSpec.power(0.5),
    NLOGN1,
    ThresholdSpec.custom(table={HUGE_N: 5.0}, regime=SPARSE),
], ids=["constant", "power", "nlogn", "custom"])
def test_huge_n_is_a_value_error(spec):
    with pytest.raises(ValueError, match="too large"):
        threshold_p(spec, HUGE_N)
    with pytest.raises(ValueError, match="too large"):
        run_trial(HUGE_N, 0.5, spec, RngSeed(0))


def test_threshold_p_at_a_huge_float_sized_n():
    assert threshold_p(ThresholdSpec.constant(1), 10**150) == 3.453877639491068e-148


# --------------------------------------------------------------- formulas


def test_threshold_p_frozen_values():
    assert threshold_p(NLOGN1, 1000) == pytest.approx(0.0088404, abs=1e-7)
    assert threshold_p(ThresholdSpec.power(0.5), 10000) == pytest.approx(
        0.000921034, abs=1e-9
    )
    assert threshold_p(ThresholdSpec.constant(1), 100) == pytest.approx(
        0.0460517, abs=1e-7
    )


def test_threshold_p_domain():
    with pytest.raises(ValueError, match="below formula domain"):
        threshold_p(NLOGN1, 15)
    with pytest.raises(ValueError, match="below formula domain"):
        threshold_p(ThresholdSpec.constant(1), 10)
    assert 0 < threshold_p(NLOGN1, 16) <= 1


def test_threshold_p_monotone_in_f_dense():
    values = [threshold_p(ThresholdSpec.nlogn(ell), 500) for ell in (0.5, 1, 2, 4)]
    assert values == sorted(values)


def test_chernoff_frozen_values():
    assert chernoff_lower_tail(8, 0.5) == pytest.approx(math.exp(-1))
    assert chernoff_upper_tail(10, 1) == pytest.approx(math.exp(-10 / 3))
    assert chernoff_lower_tail(8, 1e-9) == pytest.approx(1.0)
    for bad in (0, 1, -0.2):
        with pytest.raises(ValueError):
            chernoff_lower_tail(8, bad)
    with pytest.raises(ValueError):
        chernoff_upper_tail(8, 0)
    with pytest.raises(ValueError):
        chernoff_lower_tail(0, 0.5)


def test_chernoff_bounds_hold_empirically():
    # draws pinned by seed; tolerances checked once against the math
    rng = np.random.default_rng(271828)
    draws = 100_000
    for mu, delta in ((8, 0.5), (20, 0.3), (50, 0.2)):
        ntrials, q = 10 * mu, 0.1
        xs = rng.binomial(ntrials, q, size=draws)
        low = chernoff_lower_tail(mu, delta)
        up = chernoff_upper_tail(mu, delta)
        freq_low = float(np.mean(xs <= (1 - delta) * mu))
        freq_up = float(np.mean(xs >= (1 + delta) * mu))
        assert freq_low <= low + 3 * math.sqrt(low * (1 - low) / draws)
        assert freq_up <= up + 3 * math.sqrt(up * (1 - up) / draws)


def test_connectivity_prob_limit():
    assert connectivity_prob_limit(0) == pytest.approx(math.exp(-1))
    assert connectivity_prob_limit(50) == pytest.approx(1.0)
    assert connectivity_prob_limit(-30) == pytest.approx(0.0, abs=1e-12)
    grid = [connectivity_prob_limit(a) for a in np.linspace(-6, 6, 25)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert all(0 < x < 1 for x in grid)
    with pytest.raises(ValueError):
        connectivity_prob_limit(float("inf"))
    with pytest.raises(ValueError):
        connectivity_prob_limit(float("nan"))
    for bad in (True, "0"):
        with pytest.raises(ValueError, match="a must be a real number"):
            connectivity_prob_limit(bad)


def test_chernoff_upper_tail_at_infinite_delta():
    assert chernoff_upper_tail(5, math.inf) == 0.0
    assert chernoff_upper_tail(math.inf, math.inf) == 0.0


def test_connectivity_prob_limit_at_extreme_a():
    # exp(-a) overflows below a = -709.78, where the limit is already 0
    assert connectivity_prob_limit(-1000) == 0.0
    assert connectivity_prob_limit(-1e308) == 0.0
    assert connectivity_prob_limit(1e308) == 1.0
    assert f"{connectivity_prob_limit(0):.9g}" == "0.367879441"


# ----------------------------------------------------------------- decision


def test_decide_named_cases():
    out = decide_mc_at_least(Graph(4, [(0, 1), (2, 3)]), 1)
    assert (out.decision, out.decision_source) == (NO, DISCONNECTED)
    assert out.connected is False

    # star: upper bound m - n + delta + 1 = 1 < 2
    out = decide_mc_at_least(star_graph(5), 2)
    assert (out.decision, out.decision_source) == (NO, UPPER_BOUND)

    # C5: lower 2, upper 3, f = 3 falls in the gap; only analyze knows mc(C5) = 2
    out = decide_mc_at_least(cycle_graph(5), 3)
    assert (out.decision, out.decision_source) == (UNKNOWN, None)
    assert analyze(cycle_graph(5)).exact == 2
    with pytest.raises(TypeError):  # trials are bounds-only: no exact-oracle cap
        decide_mc_at_least(cycle_graph(5), 3, oracle_cap=12)
    with pytest.raises(TypeError):
        decide_mc_at_least(cycle_graph(5), 3, True)
    out = decide_mc_at_least(cycle_graph(5), 2)
    assert (out.decision, out.decision_source) == (YES, LOWER_BOUND)

    with pytest.raises(ValueError):
        decide_mc_at_least(cycle_graph(5), 0)


def test_decide_sound_on_all_small_graphs():
    # bounds-only decisions never contradict the exact value
    for n in range(2, 6):
        for edges in oracles.all_edge_subsets(n):
            if not oracles.brute_connected(n, edges):
                continue
            g = Graph(n, edges)
            exact = exact_mc_small(g)
            for f in range(1, n * (n - 1) // 2 + 1):
                out = decide_mc_at_least(g, f)
                if out.decision == YES:
                    assert exact >= f
                elif out.decision == NO:
                    assert exact < f
                else:
                    delta = min(sum(1 for e in edges if v in e) for v in range(n))
                    assert g.m - g.n + 2 < f <= g.m - g.n + delta + 1


def test_run_trial_examples():
    out = run_trial(16, 1.0, ThresholdSpec.constant(100), RngSeed(7, 0))
    assert (out.decision, out.decision_source) == (YES, LOWER_BOUND)
    assert out.m == 120

    out = run_trial(100, 0.0, ThresholdSpec.constant(1), RngSeed(7, 1))
    assert (out.decision, out.decision_source) == (NO, DISCONNECTED)

    with pytest.raises(TypeError):  # trials are bounds-only: no exact-oracle cap
        run_trial(16, 0.5, NLOGN1, RngSeed(1), oracle_cap=12)
    with pytest.raises(TypeError):
        run_trial(16, 0.5, NLOGN1, RngSeed(1), True)


def test_decide_labels_components_at_most_once(labellings):
    out = decide_mc_at_least(cycle_graph(5), 2)
    assert (out.decision, out.decision_source) == (YES, LOWER_BOUND)
    assert sum(labellings.values()) <= 1

    labellings.clear()
    isolated = Graph(5, complete_graph(4).edges)  # m = 6 >= n - 1, vertex 4 isolated
    out = decide_mc_at_least(isolated, 1)
    assert (out.decision, out.decision_source, out.delta) == (NO, DISCONNECTED, 0)
    assert not labellings

    # a dense trial: its one labelling is of every j-th edge (see
    # graphs._csr_connected), ceil(m / j) of them, which proves it connected
    out = run_trial(200, 0.5, ThresholdSpec.constant(1), RngSeed(3, 0))
    assert (out.decision, out.decision_source) == (YES, LOWER_BOUND)
    j = 2 * out.m // (200 * (math.ceil(math.log(200)) + 4))
    ((n, _, tails), count), = labellings.items()
    assert j >= 2 and (n, count) == (200, 1)
    assert len(tails) // 8 == -(-out.m // j) < out.m


def test_decide_on_a_dense_trial_stays_small_in_memory():
    # f = n^1.5 at its crossing: m is about 2.86 million, and labelling the
    # sample of every 20th edge takes a few MB, where labelling all m edges
    # takes about three times the bytes of the tails
    n, spec = 20_000, ThresholdSpec.power(1.5)
    f_value = math.ceil(spec.f_value(n))
    indptr, tails = _decode_rows(_draw(n, 1.991 * threshold_p(spec, n), trial_seed(11, 0, 0)), n)
    tracemalloc.start()
    try:
        out = mclab.threshold._decide(n, indptr, tails, f_value)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.connected and out.m == len(tails) > 2_800_000
    assert peak < tails.nbytes // 4, f"peaked at {peak / 2**20:.1f} MiB"


def test_decide_single_vertex_is_upper_bound_no():
    # mc_lower_bound gives 0 on one vertex, so the upper bound 0 < f decides
    out = decide_mc_at_least(Graph(1), 1)
    assert out == TrialOutcome(True, 0, 0, NO, UPPER_BOUND)


def _specs_for(n):
    candidates = (
        ThresholdSpec.constant(1),
        ThresholdSpec.constant(2),
        ThresholdSpec.constant(3),
        ThresholdSpec.power(1.0),
        NLOGN1,
    )
    specs = []
    for spec in candidates:
        try:
            spec.f_value(n)
        except ValueError:
            continue
        specs.append(spec)
    return specs


def test_run_trial_matches_decide_on_sampled_graph():
    # the lean trial kernel against the Graph path it replaces, cell by cell
    sources = set()
    for n in (3, 4, 16, 200):
        for p in (0.0, 5e-324, 1e-17, math.log(n) / n, 0.099, 0.1, 0.5, 1.0):
            for spec in _specs_for(n):
                f_value = math.ceil(spec.f_value(n))
                for t in range(10):
                    seed = RngSeed(606, t)
                    got = run_trial(n, p, spec, seed)
                    want = decide_mc_at_least(sample_gnp(n, p, seed), f_value)
                    assert got == want, (n, p, spec, t)
                    sources.add(got.decision_source)
    assert sources == {DISCONNECTED, LOWER_BOUND, UPPER_BOUND, None}


@pytest.mark.parametrize("n", [1, 2])
def test_run_trial_rejects_tiny_n_before_drawing(n, monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("sampled before f(n) was checked")

    monkeypatch.setattr(mclab.threshold, "_draw", no_draw)
    with pytest.raises(ValueError, match="outside the supported range"):
        run_trial(n, 0.5, ThresholdSpec.constant(1), RngSeed(0))


def test_run_trial_at_max_vertices():
    spec = ThresholdSpec.constant(1)
    seed = RngSeed(5, 0)
    out = run_trial(MAX_VERTICES, 1e-12, spec, seed)
    assert out == decide_mc_at_least(sample_gnp(MAX_VERTICES, 1e-12, seed), 1)
    assert (out.decision, out.decision_source, out.delta) == (NO, DISCONNECTED, 0)


def test_run_trial_dense_no_rate():
    # at the bare threshold the upper bound rejects nearly every sample
    spec = NLOGN1
    p = threshold_p(spec, 2000)
    assert p == pytest.approx(0.0048146, abs=1e-6)
    no_count = sum(
        run_trial(2000, p, spec, RngSeed(42, t)).decision == NO for t in range(200)
    )
    assert no_count >= 190


def test_trial_seed_layout():
    s = trial_seed(5, 2, 3)
    assert s.master_seed == 5 and s.stream_index == (2 << 32) | 3
    with pytest.raises(ValueError):
        trial_seed(5, -1, 0)
    with pytest.raises(ValueError):
        trial_seed(5, 0, 1 << 32)


# ------------------------------------------------------------------- sweeps


def test_sweep_config_validation():
    base = dict(spec=NLOGN1, n_list=(300,), multiplier_list=(1.0,), trials=5, master_seed=0)
    SweepConfig(**base)
    for bad in (
        dict(base, trials=0),
        dict(base, n_list=()),
        dict(base, multiplier_list=(0.0,)),
        dict(base, multiplier_list=()),
        dict(base, master_seed=-1),
        dict(base, workers=0),
        dict(base, n_list=(0,)),
    ):
        with pytest.raises(ValueError):
            SweepConfig(**bad)
    for multiplier in (math.inf, math.nan, True, "2"):
        with pytest.raises(ValueError, match="multipliers"):
            SweepConfig(**{**base, "multiplier_list": (1.0, multiplier)})
    # non-integers are refused at construction, never truncated or left for sweep()
    # bools too, which operator.index alone would read as 1 and 0
    for key, value in (("n_list", (100.7,)), ("trials", 2.5), ("master_seed", 1.5),
                       ("workers", 2.0), ("n_list", (300, True)), ("trials", True),
                       ("master_seed", False), ("workers", True)):
        with pytest.raises(ValueError, match=key):
            SweepConfig(**{**base, key: value})
    config = SweepConfig(**{**base, "n_list": [np.int64(300)], "trials": np.int64(5)})
    assert config == SweepConfig(**base) and type(config.n_list[0]) is int
    with pytest.raises(TypeError):  # the exact-oracle cap is retired
        SweepConfig(**base, oracle_cap=0)


def test_sweep_config_refuses_n_past_the_vertex_limit():
    base = dict(spec=NLOGN1, multiplier_list=(1.0,), trials=5, master_seed=0)
    with pytest.raises(ValueError, match="vertex limit"):
        SweepConfig(**base, n_list=(2000, MAX_VERTICES + 1))
    assert SweepConfig(**base, n_list=(MAX_VERTICES,)).n_list == (MAX_VERTICES,)


def test_sweep_deterministic_and_csv_shape():
    config = SweepConfig(
        spec=NLOGN1, n_list=(300,), multiplier_list=(1.0, 5.0), trials=30, master_seed=9
    )
    report1 = sweep(config)
    report2 = sweep(config)
    assert report1.to_csv() == report2.to_csv()
    lines = report1.to_csv().splitlines()
    assert lines[0] == "n,multiplier,p,trials,yes,no,unknown,frac_yes"
    assert len(lines) == 3
    for row in report1.rows:
        assert row.yes + row.no + row.unknown == row.trials
        assert row.frac_yes == row.yes / row.trials


def test_sweep_workers_do_not_change_output():
    # n = 10 fails below the formula domain and multiplier 2000 clamps p to 1;
    # with workers > 1 every row's trial slices go through one pool map
    for n_list, multipliers in (((200,), (1.0, 5.0)), ((10, 200), (1.0, 5.0, 2000.0))):
        reports = [
            sweep(SweepConfig(spec=NLOGN1, n_list=n_list, multiplier_list=multipliers,
                              trials=24, master_seed=4, workers=workers))
            for workers in (1, 2, 3)
        ]
        assert len({report.to_csv() for report in reports}) == 1
        assert len({report.rows for report in reports}) == 1
    rows = reports[0].rows
    assert [row.error is not None for row in rows] == [True] * 3 + [False] * 3
    assert [row.clamped for row in rows] == [False] * 5 + [True]


def test_sweep_pool_never_exceeds_the_cores(monkeypatch):
    started = []

    class RecordingPool:  # runs the map in this process: no worker is ever started
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(mclab.threshold, "ProcessPoolExecutor", RecordingPool)
    base = dict(spec=NLOGN1, n_list=(200,), multiplier_list=(1.0, 5.0), trials=24, master_seed=4)
    serial = sweep(SweepConfig(**base)).to_csv()
    for cores, workers, pool in ((3, 100000, 3), (None, 100000, 1), (8, 2, 2)):
        monkeypatch.setattr(mclab.threshold.os, "cpu_count", lambda: cores)
        assert sweep(SweepConfig(**base, workers=workers)).to_csv() == serial
        assert started.pop() == pool and not started


def test_sweep_marks_failed_rows_and_continues():
    config = SweepConfig(
        spec=NLOGN1, n_list=(10, 300), multiplier_list=(1.0,), trials=10, master_seed=3
    )
    report = sweep(config)
    assert len(report.rows) == 2
    failed = report.failed_rows()
    assert len(failed) == 1 and failed[0].n == 10
    assert "below formula domain" in failed[0].error
    csv_lines = report.to_csv().splitlines()
    assert len(csv_lines) == 2  # header plus the surviving row
    assert csv_lines[1].startswith("300,")


def test_a_trials_error_fails_only_its_row(monkeypatch):
    # at x5 every draw holds about 48,000 edges, past the lowered limit; x1 holds
    # about 9,600, so its row runs as it would without the patch
    base = dict(spec=NLOGN1, n_list=(2000,), multiplier_list=(1.0, 5.0), trials=2, master_seed=1)
    plain = sweep(SweepConfig(**base))
    assert not plain.failed_rows()
    monkeypatch.setattr(mclab.sampling, "MAX_EDGES", 30000)
    for workers in (1, 2):
        report = sweep(SweepConfig(**base, workers=workers))
        low, high = report.rows
        assert low == plain.rows[0]
        assert high.error == "drawn edge count exceeds limit 30000"
        assert (high.yes, high.no, high.unknown, high.frac_yes) == (0, 0, 0, 0.0)
        assert report.failed_rows() == (high,)
        kept = [line for line in plain.to_csv().splitlines(keepends=True)
                if not line.startswith("2000,5,")]
        assert report.to_csv() == "".join(kept) and len(kept) == 2


def test_sweep_clamps_large_multipliers():
    config = SweepConfig(
        spec=NLOGN1, n_list=(50,), multiplier_list=(2000.0,), trials=5, master_seed=1
    )
    report = sweep(config)
    row = report.rows[0]
    assert row.p == 1.0 and row.clamped
    assert row.yes == 5  # complete graph always satisfies the lower bound


def test_sweep_monotone_frac_yes():
    config = SweepConfig(
        spec=NLOGN1,
        n_list=(300,),
        multiplier_list=(0.5, 1.0, 2.0, 3.5, 5.0),
        trials=500,
        master_seed=2718,
    )
    rows = sweep(config).rows
    fracs = [row.frac_yes for row in rows]
    inversions = [
        (a, b) for a, b in zip(fracs, fracs[1:]) if b < a
    ]
    # up to one inversion within twice the pooled standard error
    assert len(inversions) <= 1
    for a, b in inversions:
        pooled = (a + b) / 2
        se = math.sqrt(max(pooled * (1 - pooled), 1e-9) / 500)
        assert a - b <= 2 * 2 * se


def assert_sweep_matches_binomial_prediction(spec, multipliers):
    # A trial says YES exactly when G is connected and m - n + 2 >= ceil(f), so
    # frac_yes should follow P(Bin(C(n,2), p) >= ceil(f) + n - 2) times the
    # chance that no vertex is isolated, exp(-n (1 - p)^(n-1)).
    config = SweepConfig(
        spec=spec,
        n_list=(500, 2000),
        multiplier_list=multipliers,
        trials=100,
        master_seed=11,
    )
    informative = set()
    for row in sweep(config).rows:
        n, p = row.n, row.p
        need = math.ceil(spec.f_value(n)) + n - 2
        predicted = binom.sf(need - 1, n * (n - 1) // 2, p) * math.exp(-n * (1 - p) ** (n - 1))
        se = math.sqrt(predicted * (1 - predicted) / row.trials)
        assert abs(row.frac_yes - predicted) <= 3 * se + 1 / row.trials, row
        if 0.1 <= predicted <= 0.9:
            informative.add(n)
    assert informative == {500, 2000}  # a row inside the transition at each n


def test_nlogn_sweep_matches_binomial_prediction():
    assert_sweep_matches_binomial_prediction(NLOGN1, (1.7, 1.8, 1.9))


def test_nlogn_sweep_where_connectivity_binds_matches_binomial_prediction():
    # below ell* = 1/2 - 1/ln n the connectivity factor sets the crossing
    assert_sweep_matches_binomial_prediction(ThresholdSpec.nlogn(0.25), (1.8, 2.0, 2.2))


def test_sparse_sweep_matches_binomial_prediction():
    # f = n: YES is connectivity; the multipliers stay off x1.0, the steepest point
    assert_sweep_matches_binomial_prediction(ThresholdSpec.power(1.0), (0.9, 1.2, 1.5))


@pytest.mark.parametrize("alpha, multipliers", [(1.1, (1.8, 1.9, 2.0)),
                                                (1.5, (1.94, 1.95, 1.96))])
def test_dense_power_sweep_matches_binomial_prediction(alpha, multipliers):
    # f = n^alpha with alpha > 1 is DENSE; predicted 0.53/0.65/0.74 at n = 500 and
    # 0.34/0.49/0.62 at n = 2000 for alpha = 1.1, 0.61/0.81/0.93 and
    # 0.004/0.14/0.69 for alpha = 1.5
    assert_sweep_matches_binomial_prediction(ThresholdSpec.power(alpha), multipliers)

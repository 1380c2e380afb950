"""Threshold formulas, tail bounds, the trial decision procedure, and sweeps."""

import math

import numpy as np
import pytest

import oracles
import mclab.graphs
import mclab.threshold
from mclab.coloring import analyze, exact_mc_small
from mclab.errors import UnsupportedSpecError
from mclab.graphs import MAX_VERTICES, Graph, complete_graph, cycle_graph, star_graph
from mclab.sampling import RngSeed, sample_gnp
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
    default_bracket,
    default_upper_multiplier,
    estimate_transition,
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
    assert NLOGN1.regime == DENSE
    assert ThresholdSpec.custom({100: 50.0}, SPARSE).regime == SPARSE
    assert ThresholdSpec.custom({100: 700.0}, DENSE, ell=1.0).regime == DENSE


def test_spec_validation():
    with pytest.raises(ValueError):
        ThresholdSpec.constant(0.5)
    with pytest.raises(ValueError):
        ThresholdSpec.power(0)
    with pytest.raises(ValueError):
        ThresholdSpec.power(2)
    with pytest.raises(UnsupportedSpecError):
        ThresholdSpec.power(1.5)  # between the regimes; rejected, not guessed
    with pytest.raises(ValueError):
        ThresholdSpec.nlogn(0)
    with pytest.raises(ValueError):
        ThresholdSpec.custom({}, SPARSE)
    with pytest.raises(ValueError):
        ThresholdSpec.custom({100: 5.0}, DENSE)  # missing ell
    with pytest.raises(ValueError):
        ThresholdSpec.custom({100: 5.0}, "MEDIUM")
    with pytest.raises(ValueError, match="'ell'"):  # a SPARSE spec never reads ell
        ThresholdSpec.custom({100: 5.0}, SPARSE, ell=-4)


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


def test_decide_labels_components_at_most_once(monkeypatch):
    # counts the one CSR labelling entry that component_labels and the trial share
    calls = []
    labels = mclab.graphs._csr_components

    def counting(*args):
        calls.append(args)
        return labels(*args)

    monkeypatch.setattr(mclab.graphs, "_csr_components", counting)
    out = decide_mc_at_least(cycle_graph(5), 2)
    assert (out.decision, out.decision_source) == (YES, LOWER_BOUND)
    assert len(calls) <= 1

    calls.clear()
    isolated = Graph(5, complete_graph(4).edges)  # m = 6 >= n - 1, vertex 4 isolated
    out = decide_mc_at_least(isolated, 1)
    assert (out.decision, out.decision_source, out.delta) == (NO, DISCONNECTED, 0)
    assert calls == []

    out = run_trial(200, 0.5, ThresholdSpec.constant(1), RngSeed(3, 0))
    assert (out.decision, out.decision_source) == (YES, LOWER_BOUND)
    assert len(calls) == 1


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
    # non-integers are refused at construction, never truncated or left for sweep()
    for key, value in (("n_list", (100.7,)), ("trials", 2.5), ("master_seed", 1.5),
                       ("workers", 2.0)):
        with pytest.raises(ValueError, match=key):
            SweepConfig(**{**base, key: value})
    config = SweepConfig(**{**base, "n_list": [np.int64(300)], "trials": np.int64(5)})
    assert config == SweepConfig(**base) and type(config.n_list[0]) is int
    with pytest.raises(TypeError):  # the exact-oracle cap is retired
        SweepConfig(**base, oracle_cap=0)


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


# -------------------------------------------------------------- transitions


def test_default_multipliers_and_brackets():
    assert default_upper_multiplier(NLOGN1) == 5.0
    assert default_upper_multiplier(ThresholdSpec.nlogn(0.5)) == 10.0
    assert default_upper_multiplier(ThresholdSpec.nlogn(2.0)) == 5.0
    assert default_upper_multiplier(ThresholdSpec.constant(1)) == 3.0
    assert default_bracket(NLOGN1) == (1.0, 5.0)
    assert default_bracket(ThresholdSpec.power(1.0)) == (0.5, 3.0)


def test_estimate_transition_degenerate_bracket_short_circuits():
    # returned before any sampling, even when n is below the formula domain
    assert estimate_transition(NLOGN1, 5, 10, 10.0, master_seed=0) == (1.0, 5.0)
    assert estimate_transition(
        NLOGN1, 300, 10, 0.5, master_seed=0, bracket=(2.0, 2.4)
    ) == (2.0, 2.4)


def test_estimate_transition_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_transition(NLOGN1, 300, 0, 0.5, master_seed=0)
    with pytest.raises(ValueError):
        estimate_transition(NLOGN1, 300, 10, 0, master_seed=0)
    with pytest.raises(ValueError):
        estimate_transition(NLOGN1, 300, 10, 0.5, master_seed=0, bracket=(3.0, 2.0))


def test_estimate_transition_rejects_non_straddling_bracket():
    with pytest.raises(ValueError, match="straddle"):
        estimate_transition(
            ThresholdSpec.power(1.0), 2000, 30, 0.05, master_seed=11, bracket=(2.5, 3.0)
        )


def test_estimate_transition_seeds_one_sweep_row_per_evaluation(monkeypatch):
    seeds = []

    def recording_seed(master_seed, row_index, trial_index):
        seeds.append((master_seed, row_index, trial_index))
        return trial_seed(master_seed, row_index, trial_index)

    monkeypatch.setattr(mclab.threshold, "trial_seed", recording_seed)
    assert estimate_transition(NLOGN1, 300, 20, 0.3, master_seed=3) == (1.75, 2.0)  # pinned
    rows = len(seeds) // 20
    assert rows >= 3 and seeds == [(3, r, t) for r in range(rows) for t in range(20)]


def test_estimate_transition_brackets_the_crossing():
    lo, hi = estimate_transition(NLOGN1, 300, 60, 0.5, master_seed=31415)
    assert 1.0 <= lo < hi <= 5.0
    assert hi - lo <= 0.5
    lo2, hi2 = estimate_transition(
        ThresholdSpec.power(1.0), 500, 60, 0.25, master_seed=27182, bracket=(0.5, 3.0)
    )
    assert 0.5 <= lo2 < hi2 <= 3.0
    assert hi2 - lo2 <= 0.25

"""Tests of the benchmark itself: span arithmetic, output checks and seeding.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
from spans import Span, Tracer, covered_length, self_times, totals  # noqa: E402
from workloads import WORKLOADS, Ledger  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


def span(sid, name, start, end, parent=None, ident="0/0"):
    return Span(sid, name, ident, parent, start, end)


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered_length([(0, 10), (2, 3)]) == 10


def test_self_time_subtracts_nested_cover_and_replays():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 4.0, parent=0),
        span(2, "b", 3.0, 5.0, parent=0),  # overlaps a: together they cover 1..5
        span(3, "replay", 12.0, 13.5, parent=0),  # after root ended: a replayed child
        span(4, "leaf", 1.5, 2.0, parent=1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.5)
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(1.5)


def test_totals_group_by_id_prefix():
    spans = [
        span(0, "x", 0.0, 1.0, ident="0/1"),
        span(1, "x", 1.0, 3.0, ident="0/2"),
        span(2, "x", 3.0, 4.0, ident="1/0"),
        span(3, "y", 4.0, 4.5, ident="gnp64"),
    ]
    duration, self_time = totals(spans)
    assert duration == {("x", "0"): 3.0, ("x", "1"): 1.0, ("y", "gnp64"): 0.5}
    assert self_time == duration


def test_tracer_records_parent_and_ident():
    tracer = Tracer()
    with tracer.span("outer", "g") as outer:
        with tracer.span("inner", "g", outer):
            pass
    outer_span, inner_span = tracer.spans
    assert inner_span.parent == outer_span.sid and inner_span.ident == "g"
    assert outer_span.start <= inner_span.start <= inner_span.end <= outer_span.end


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((BENCH_DIR / "layer_map.json").read_text())
    assert set(layer_map) == PER_LAYER
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert names == set(WORKLOADS)
    for entry in layer_map.values():
        assert set(entry["on"]) <= names and set(entry["no_change_on"]) <= names
        assert entry["moves"] in (None, *(m["name"] for m in BENCHMARK["end_to_end"]))


def small_sweep(trials=5):
    return dataclasses.replace(WORKLOADS["sweep_nlogn"], trials=trials)


def test_corrupted_sweep_digest_is_a_failed_operation(monkeypatch):
    expected = workloads.load_expected()
    expected["sweep_nlogn"]["csv_sha256"] = "0" * 64
    monkeypatch.setattr(workloads, "load_expected", lambda: expected)
    workload = WORKLOADS["sweep_nlogn"]
    ledger = Ledger()
    workload.timed_pass(workload.setup(workloads.DEFAULT_SEED), ledger)
    assert ledger.attempted == 1 and len(ledger.failures) == 1


def test_corrupted_exact_digest_is_a_failed_operation():
    graphs = workloads.connected_small_graphs(3)
    expected = {"small5_count": len(graphs), "small5_sha256": "0" * 64}
    state = workloads.SingleGraphState(
        seed=0, arrays={}, labels=(), small=[(g.n, g.edge_array) for g in graphs],
        spanning_tree_s=0.0, expected=expected)
    values = [workloads.exact_mc_small(g) for g in graphs]
    ledger = Ledger()
    WORKLOADS["single_graph"]._check_exact(state, ledger, values)
    assert ledger.failures and ledger.attempted == len(graphs) + 1
    expected["small5_sha256"] = workloads.values_digest(values)
    ledger = Ledger()
    WORKLOADS["single_graph"]._check_exact(state, ledger, values)
    assert not ledger.failures


def test_small_corpus_has_every_connected_labeled_graph():
    counts = [0] * 6
    for g in workloads.connected_small_graphs():
        counts[g.n] += 1
    assert counts[1:] == [1, 1, 4, 38, 728]


def test_non_default_seed_changes_sweep_inputs_and_passes_checks():
    workload = small_sweep()
    assert workload.setup(3).config.master_seed != workload.setup(0).config.master_seed
    state = workload.setup(3)
    tracer = Tracer()
    ledger = Ledger()
    records = [workload.traced_pass(state, ledger, tracer) for _ in range(2)]
    assert not ledger.failures
    metrics = workload.layer_metrics(state, tracer, records)
    assert set(metrics) <= PER_LAYER
    sources = sum(metrics[f"threshold.source.{s}"] for s in workloads.SOURCES)
    assert sources == workload.trials_per_pass
    assert metrics["sampling.draw.ms"] > 0 and metrics["threshold.decide_mc_at_least.self_ms"] > 0


def test_non_default_seed_changes_corpus_and_passes_checks():
    workload = WORKLOADS["single_graph"]
    default, other = workload.setup(0), workload.setup(3)
    for name in workloads.GRAPH_NAMES:
        assert not (default.arrays[name][1].shape == other.arrays[name][1].shape
                    and (default.arrays[name][1] == other.arrays[name][1]).all())
    assert any(a.shape != b.shape or (a != b).any()
               for (_, a), (_, b) in zip(default.small, other.small))
    ledger = Ledger()
    record = workload.timed_pass(other, ledger)
    assert not ledger.failures
    assert record["pass_s"] > 0


def test_run_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_nlogn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

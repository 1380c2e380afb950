"""The benchmark's workloads: seeded inputs, timed passes, traced passes and output checks.

Every workload is closed-loop with one caller. A *pass* is one round of the
workload's library calls: one ``sweep()`` call for the sweep workloads, and
``analyze`` on the corpus, ``verify_mc_coloring`` and ``exact_mc_small`` over
all connected graphs with n <= 5 for ``single_graph``.

Inputs come from the workload seed: every base seed below is offset by it, and
a non-zero seed also relabels Petersen and the small graphs. Seed 0 gives the
reference inputs (sweep master seeds 1729 and 42; G(64,0.3), G(600,0.5) and
G(2000,0.05) drawn with seeds 6, 11 and 5), whose outputs ``expected.json`` pins. Timed calls always get a
``Graph`` freshly built from a stored edge array, because ``Graph`` memoises
its edge set, degrees and adjacency and a user's first call runs cold.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mclab import (
    EdgeColoring,
    Graph,
    McBounds,
    RngSeed,
    SweepConfig,
    ThresholdSpec,
    analyze,
    cycle_graph,
    decide_mc_at_least,
    exact_mc_small,
    exactness_certificate,
    is_connected,
    mc_lower_bound,
    mc_upper_bound,
    petersen_graph,
    run_trial,
    sample_gnp,
    spanning_tree_coloring,
    sweep,
    threshold_p,
    trial_seed,
    verify_mc_coloring,
)
from mclab.coloring import (
    DEFAULT_CHI_CAP,
    DEFAULT_KAPPA_CAP,
    EXACT_A,
    EXACT_B,
    EXACT_C,
    EXACT_D,
    EXACT_E,
)
from mclab.graphs import (
    chromatic_number,
    complement,
    diameter,
    has_cut_vertex,
    is_k_connected,
    is_triangle_free,
    max_degree,
    min_degree,
    vertex_connectivity,
)
from mclab.sampling import pairs_from_indices
from mclab.threshold import DISCONNECTED, EXACT_SMALL, LOWER_BOUND, NO, UPPER_BOUND, YES

from spans import Tracer, totals

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

SOURCES = (DISCONNECTED, LOWER_BOUND, UPPER_BOUND, EXACT_SMALL, "UNKNOWN")


class Ledger:
    """Counts attempted operations and records each one that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def timed(fn, *args, **kwargs):
    """Make one call; return (its result, or the exception it raised, and the seconds it took)."""
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation by the caller; the run goes on
        result = exc
    return result, time.perf_counter() - start


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


# ----------------------------------------------------------------- sweeps


@dataclass
class SweepState:
    config: SweepConfig
    cells: list[tuple[int, int, float, int]]  # (row index, n, p, ceil f(n))
    expected_sha: str | None
    csv: bytes | None = None
    outcomes: list | None = None


def _csv_tallies(data: bytes) -> list[tuple[int, int, int, int]]:
    """(trials, yes, no, unknown) per CSV row."""
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return [(int(r["trials"]), int(r["yes"]), int(r["no"]), int(r["unknown"])) for r in rows]


def _decision_tallies(outcomes) -> list[tuple[int, int, int, int]]:
    """Same shape as :func:`_csv_tallies`, from per-trial outcomes grouped by row."""
    rows: dict[int, Counter] = defaultdict(Counter)
    for row_index, outcome in outcomes:
        rows[row_index][outcome.decision] += 1
    return [
        (sum(c.values()), c[YES], c[NO], sum(c.values()) - c[YES] - c[NO])
        for _, c in sorted(rows.items())
    ]


def _pair_ranks(edges: np.ndarray, n: int) -> np.ndarray:
    """Canonical pair rank of each edge row: u*n - u(u+1)/2 + (v-u-1)."""
    u, v = edges[:, 0], edges[:, 1]
    return u * n - u * (u + 1) // 2 + (v - u - 1)


@dataclass(frozen=True)
class SweepWorkload:
    name: str
    spec: ThresholdSpec
    n: int
    multipliers: tuple[float, ...]
    trials: int
    master_seed: int
    workers: int

    def setup(self, seed: int) -> SweepState:
        config = SweepConfig(
            spec=self.spec,
            n_list=(self.n,),
            multiplier_list=self.multipliers,
            trials=self.trials,
            master_seed=self.master_seed + seed,
            workers=self.workers,
        )
        cells = []
        for row_index, multiplier in enumerate(config.multiplier_list):
            p = min(1.0, multiplier * threshold_p(config.spec, self.n))
            cells.append((row_index, self.n, p, math.ceil(config.spec.f_value(self.n))))
        run_trial(16, 0.5, config.spec, RngSeed(0))  # warm-up: first sampling and decision
        expected = load_expected()[self.name]["csv_sha256"] if seed == DEFAULT_SEED else None
        return SweepState(config, cells, expected)

    @property
    def trials_per_pass(self) -> int:
        return self.trials * len(self.multipliers)

    def _check_csv(self, state: SweepState, data: bytes) -> bool:
        tallies = _csv_tallies(data)
        ok = len(tallies) == len(state.cells) and all(
            t == self.trials and y + no + u == t for t, y, no, u in tallies
        )
        if state.csv is None:
            state.csv = data
            return ok and (state.expected_sha is None or sha256(data) == state.expected_sha)
        return ok and data == state.csv

    def timed_pass(self, state: SweepState, ledger: Ledger) -> dict:
        report, seconds = timed(sweep, state.config)
        ok = not isinstance(report, Exception)
        if ok:
            ok = self._check_csv(state, report.to_csv().encode()) and not report.failed_rows()
        ledger.expect(ok, f"{self.name}: sweep() output" + (f" raised {report!r}" if not ok else ""))
        return {"pass_s": seconds, "trials_per_s": self.trials_per_pass / seconds}

    def _plain_trials(self, state: SweepState) -> list:
        """The sweep's trials run in this process, untraced, as ``_trial_batch`` runs them.

        A trial that raises is left out, so the tallies no longer match the CSV.
        """
        spec = state.config.spec
        outcomes = []
        for row_index, n, p, _ in state.cells:
            for t in range(self.trials):
                outcome, _ = timed(run_trial, n, p, spec,
                                   trial_seed(state.config.master_seed, row_index, t))
                if not isinstance(outcome, Exception):
                    outcomes.append((row_index, outcome))
        return outcomes

    def _traced_trial(self, tracer: Tracer, ident: str, n: int, p: float, f_value: int, seed):
        with tracer.span("trial", ident) as trial:
            with tracer.span("sampling.sample_gnp", ident, trial) as sample:
                g = sample_gnp(n, p, seed)
            edges = g.edge_array
            ranks = _pair_ranks(edges, n)
            with tracer.span("sampling.pairs_from_indices", ident, sample):
                pairs = pairs_from_indices(ranks, n)
            with tracer.span("graphs.Graph", ident, sample):
                Graph(n, pairs)
            with tracer.span("threshold.decide_mc_at_least", ident, trial) as decide:
                outcome = decide_mc_at_least(g, f_value)
            # replay what decide_mc_at_least calls, each on a cold graph
            replays = [("graphs.is_connected", is_connected), ("graphs.min_degree", min_degree)]
            if outcome.connected:
                replays.append(("coloring.mc_lower_bound", mc_lower_bound))
            for name, fn in replays:
                fresh = Graph(n, edges)
                with tracer.span(name, ident, decide):
                    fn(fresh)
        return outcome, np.array_equal(pairs, edges)

    def _traced_trials(self, state: SweepState, ledger: Ledger, tracer: Tracer) -> list:
        outcomes = []
        for row_index, n, p, f_value in state.cells:
            for t in range(self.trials):
                ident = f"{row_index}/{t}"
                seed = trial_seed(state.config.master_seed, row_index, t)
                try:
                    outcome, decoded = self._traced_trial(tracer, ident, n, p, f_value, seed)
                except Exception as exc:  # counted as a failed operation; the run goes on
                    ledger.expect(False, f"{self.name}: traced trial {ident} raised {exc!r}")
                    continue
                ledger.expect(decoded, f"{self.name}: pair decode round trip, trial {ident}")
                outcomes.append((row_index, outcome))
        return outcomes

    def traced_pass(self, state: SweepState, ledger: Ledger, tracer: Tracer) -> dict:
        record = self.timed_pass(state, ledger)
        start = time.perf_counter()
        plain = self._plain_trials(state)
        record["plain_s"] = time.perf_counter() - start
        start = time.perf_counter()
        outcomes = self._traced_trials(state, ledger, tracer)
        record["traced_s"] = time.perf_counter() - start
        expected = _csv_tallies(state.csv) if state.csv is not None else None
        ledger.expect(_decision_tallies(plain) == expected,
                      f"{self.name}: in-process trials disagree with sweep()")
        ledger.expect(_decision_tallies(outcomes) == expected,
                      f"{self.name}: traced trials disagree with sweep()")
        if state.outcomes is None:
            state.outcomes = outcomes
        ledger.expect(outcomes == state.outcomes, f"{self.name}: traced trials differ between passes")
        return record

    def layer_metrics(self, state: SweepState, tracer: Tracer, records: list[dict]) -> dict:
        duration, self_time = totals(tracer.spans)
        trials = self.trials_per_pass * len(records)

        def per_trial_ms(table: dict, name: str) -> float:
            return 1000.0 * sum(v for (k, _), v in table.items() if k == name) / trials

        metrics = {
            f"{name}.ms": per_trial_ms(duration, name)
            for name in ("sampling.sample_gnp", "sampling.pairs_from_indices", "graphs.Graph",
                         "graphs.is_connected", "coloring.mc_lower_bound", "graphs.min_degree",
                         "threshold.decide_mc_at_least")
        }
        metrics["sampling.draw.ms"] = per_trial_ms(self_time, "sampling.sample_gnp")
        metrics["threshold.decide_mc_at_least.self_ms"] = per_trial_ms(
            self_time, "threshold.decide_mc_at_least")
        outcomes = [o for _, o in state.outcomes]
        sources = Counter(o.decision_source or "UNKNOWN" for o in outcomes)
        for source in SOURCES:
            metrics[f"threshold.source.{source}"] = sources[source]
        metrics["trial.delta0_count"] = sum(o.delta == 0 for o in outcomes)
        metrics["trial.edges_mean"] = statistics.fmean(o.m for o in outcomes) if outcomes else 0.0
        metrics["threshold.sweep.trials_per_s"] = self.trials_per_pass / median_of(records, "pass_s")
        metrics["threshold.sweep.parallel_efficiency"] = median_of(records, "plain_s") / (
            self.workers * median_of(records, "pass_s"))
        metrics["trace.overhead_s"] = median_of(records, "traced_s") - median_of(records, "plain_s")
        return metrics

    def call_figures(self, records: list[dict]) -> dict[str, tuple[str, list[float]]]:
        """The user-facing figures behind pass_s, for the printed report."""
        return {"trials_per_s": ("1/s", [r["trials_per_s"] for r in records])}


# ----------------------------------------------------------------- single graphs

# (name, n, p, base seed) of the sampled corpus graphs; petersen is fixed
GNP_CORPUS = (("gnp64", 64, 0.3, 6), ("gnp600", 600, 0.5, 11), ("gnp2000", 2000, 0.05, 5))
GRAPH_NAMES = ("petersen", "gnp64", "gnp600", "gnp2000")
VERIFY_GRAPH = "gnp2000"
SMALL_MAX_N = 5

# spans of the traced analyze run, reported per corpus graph
ANALYZE_LAYERS = (
    "coloring.analyze",
    "coloring.mc_upper_bound",
    "graphs.chromatic_number",
    "graphs.vertex_connectivity",
    "coloring.exactness_certificate",
    "graphs.complement",
    "graphs.is_k_connected",
    "graphs.is_triangle_free",
    "graphs.diameter",
    "graphs.has_cut_vertex",
)


def connected_small_graphs(max_n: int = SMALL_MAX_N) -> list[Graph]:
    """Every connected labeled graph on 1..max_n vertices, by n, then edge-subset mask."""
    out = []
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            g = Graph(n, [pair for i, pair in enumerate(pairs) if mask >> i & 1])
            if is_connected(g):
                out.append(g)
    return out


def relabel(g: Graph, seed: int, stream: int) -> Graph:
    """An isomorphic copy under a seeded vertex permutation; the identity at the default seed."""
    if seed == DEFAULT_SEED:
        return g
    perm = RngSeed(seed, stream).generator().permutation(g.n)
    return Graph.from_pairs(g.n, perm[g.edge_array].tolist())


def values_digest(values: list) -> str:
    return sha256(",".join(str(v) for v in values).encode())


def bounds_record(bounds: McBounds) -> dict:
    return {"lower": bounds.lower, "upper": bounds.upper, "exact": bounds.exact,
            "certificates": list(bounds.certificates)}


@dataclass
class SingleGraphState:
    seed: int
    arrays: dict[str, tuple[int, np.ndarray]]
    labels: tuple[int, ...]
    small: list[tuple[int, np.ndarray]]
    spanning_tree_s: float
    expected: dict
    small_bounds: list[tuple[int, int]] | None = None
    analyzed: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SingleGraphWorkload:
    name: str

    def setup(self, seed: int) -> SingleGraphState:
        graphs = {"petersen": relabel(petersen_graph(), seed, 0)}
        for name, n, p, base in GNP_CORPUS:
            graphs[name] = sample_gnp(n, p, RngSeed(base + seed))
        start = time.perf_counter()
        coloring = spanning_tree_coloring(graphs[VERIFY_GRAPH])
        spanning_tree_s = time.perf_counter() - start
        small = [relabel(g, seed, 1 + i) for i, g in enumerate(connected_small_graphs())]
        warm = cycle_graph(5)  # warm-up: first call of each timed entry point
        analyze(warm)
        verify_mc_coloring(warm, spanning_tree_coloring(warm))
        exact_mc_small(warm)
        return SingleGraphState(
            seed=seed,
            arrays={name: (g.n, g.edge_array) for name, g in graphs.items()},
            labels=coloring.labels,
            small=[(g.n, g.edge_array) for g in small],
            spanning_tree_s=spanning_tree_s,
            expected=load_expected()[self.name],
        )

    def _fresh(self, state: SingleGraphState, name: str) -> Graph:
        n, arr = state.arrays[name]
        return Graph(n, arr)

    def _check_bounds(self, state: SingleGraphState, name: str, bounds) -> bool:
        if isinstance(bounds, Exception):
            return False
        n, arr = state.arrays[name]
        ok = bounds.lower == arr.shape[0] - n + 2 and (
            bounds.exact is None or bounds.lower <= bounds.exact <= bounds.upper)
        # relabelling keeps Petersen's bounds, so its pinned record holds at every seed
        if state.seed == DEFAULT_SEED or name == "petersen":
            ok = ok and bounds_record(bounds) == state.expected["bounds"][name]
        previous = state.analyzed.setdefault(name, bounds)
        return ok and bounds == previous

    def _check_exact(self, state: SingleGraphState, ledger: Ledger, values: list) -> None:
        if state.small_bounds is None:
            state.small_bounds = []
            for n, arr in state.small:
                upper = mc_upper_bound(Graph(n, arr))[0] if n > 1 else 0
                state.small_bounds.append((mc_lower_bound(Graph(n, arr)), upper))
        for i, (value, (lower, upper)) in enumerate(zip(values, state.small_bounds)):
            ledger.expect(not isinstance(value, Exception) and lower <= value <= upper,
                          f"{self.name}: exact_mc_small on small graph {i} gave {value!r}, "
                          f"outside [{lower}, {upper}]")
        # mc is invariant under relabelling, so the digest is pinned at every seed
        ledger.expect(len(values) == state.expected["small5_count"]
                      and values_digest(values) == state.expected["small5_sha256"],
                      f"{self.name}: exact values over n <= {SMALL_MAX_N} differ from the pinned digest")

    def timed_pass(self, state: SingleGraphState, ledger: Ledger) -> dict:
        start = time.perf_counter()
        graphs = {name: self._fresh(state, name) for name in GRAPH_NAMES}
        target = self._fresh(state, VERIFY_GRAPH)
        coloring = EdgeColoring(target, state.labels)
        small = [Graph(n, arr) for n, arr in state.small]
        record = {}
        for name in GRAPH_NAMES:
            bounds, record[f"analyze.{name}"] = timed(analyze, graphs[name])
            ledger.expect(self._check_bounds(state, name, bounds),
                          f"{self.name}: analyze({name}) gave {bounds!r}")
        verdict, record[f"verify.{VERIFY_GRAPH}"] = timed(verify_mc_coloring, target, coloring)
        ledger.expect(verdict is True, f"{self.name}: verify of the spanning-tree coloring gave "
                                       f"{verdict!r}")
        values = []
        exact_s = 0.0
        for g in small:
            value, seconds = timed(exact_mc_small, g)
            values.append(value)
            exact_s += seconds
        record["exact.small5"] = exact_s
        self._check_exact(state, ledger, values)
        record["pass_s"] = sum(record.values())
        record["wall_s"] = time.perf_counter() - start
        return record

    def _replay_certificate(self, state, name, parent, tracer) -> str | None:
        """Replay exactness_certificate's checks in its order (a)-(e), stopping at the first hit."""
        n, arr = state.arrays[name]

        def check(span_name, fn, *args):
            with tracer.span(span_name, name, parent):
                return fn(*args)

        if n <= DEFAULT_KAPPA_CAP:
            comp = check("graphs.complement", complement, Graph(n, arr))
            if check("graphs.is_k_connected", is_k_connected, comp, 4):
                return EXACT_A
        if check("graphs.is_triangle_free", is_triangle_free, Graph(n, arr)):
            return EXACT_B
        m = arr.shape[0]
        if max_degree(Graph(n, arr)) * (n - 3) < n * (n - 3) - (2 * m - 3 * (n - 1)):
            return EXACT_C
        if check("graphs.diameter", diameter, Graph(n, arr)) >= 3:
            return EXACT_D
        if check("graphs.has_cut_vertex", has_cut_vertex, Graph(n, arr)):
            return EXACT_E
        return None

    def _traced_analyze(self, state, name, tracer) -> bool:
        """analyze() in a span, then a replay of each check it reached, on cold graphs."""
        n, arr = state.arrays[name]
        g = Graph(n, arr)
        with tracer.span("coloring.analyze", name) as root:
            bounds = analyze(g)
        g = Graph(n, arr)
        with tracer.span("coloring.mc_upper_bound", name, root) as upper_span:
            upper, _ = mc_upper_bound(g)
        if n <= DEFAULT_CHI_CAP:
            g = Graph(n, arr)
            with tracer.span("graphs.chromatic_number", name, upper_span):
                chromatic_number(g, cap=DEFAULT_CHI_CAP)
        if n <= DEFAULT_KAPPA_CAP:
            g = Graph(n, arr)
            with tracer.span("graphs.vertex_connectivity", name, upper_span):
                vertex_connectivity(g)
        ok = upper == bounds.upper
        if n > 3 and arr.shape[0] < n * (n - 1) // 2:
            g = Graph(n, arr)
            with tracer.span("coloring.exactness_certificate", name, root) as cert_span:
                cert = exactness_certificate(g)
            replayed = self._replay_certificate(state, name, cert_span, tracer)
            ok = ok and replayed == cert and (cert is None or cert in bounds.certificates)
        return ok

    def traced_pass(self, state: SingleGraphState, ledger: Ledger, tracer: Tracer) -> dict:
        record = self.timed_pass(state, ledger)
        start = time.perf_counter()
        for name in GRAPH_NAMES:
            try:
                ok, detail = self._traced_analyze(state, name, tracer), "disagrees with its replay"
            except Exception as exc:  # counted as a failed operation; the run goes on
                ok, detail = False, f"raised {exc!r}"
            ledger.expect(ok, f"{self.name}: traced analyze({name}) {detail}")
        target = self._fresh(state, VERIFY_GRAPH)
        coloring = EdgeColoring(target, state.labels)
        with tracer.span("coloring.verify_mc_coloring", VERIFY_GRAPH):
            verify_mc_coloring(target, coloring)
        for i, (n, arr) in enumerate(state.small):
            g = Graph(n, arr)
            with tracer.span("coloring.exact_mc_small", f"n{n}/{i}"):
                exact_mc_small(g)
        record["traced_s"] = time.perf_counter() - start
        return record

    def layer_metrics(self, state: SingleGraphState, tracer: Tracer, records: list[dict]) -> dict:
        duration, _ = totals(tracer.spans)
        passes = len(records)
        metrics = {
            f"{layer}.s.{name}": duration.get((layer, name), 0.0) / passes
            for layer in ANALYZE_LAYERS
            for name in GRAPH_NAMES
        }
        metrics[f"coloring.spanning_tree_coloring.s.{VERIFY_GRAPH}"] = state.spanning_tree_s
        metrics[f"coloring.verify_mc_coloring.s.{VERIFY_GRAPH}"] = (
            duration[("coloring.verify_mc_coloring", VERIFY_GRAPH)] / passes)
        exact = {group: v / passes for (layer, group), v in duration.items()
                 if layer == "coloring.exact_mc_small"}
        metrics["coloring.exact_mc_small.s.n4"] = exact.get("n4", 0.0)
        metrics["coloring.exact_mc_small.s.n5"] = exact.get("n5", 0.0)
        metrics["coloring.exact_mc_small.s.small5"] = sum(exact.values())
        metrics["trace.overhead_s"] = median_of(records, "traced_s") - median_of(records, "wall_s")
        return metrics

    def call_figures(self, records: list[dict]) -> dict[str, tuple[str, list[float]]]:
        """The user-facing figures behind pass_s, for the printed report."""
        figures = {"analyze_ms.petersen": ("ms", [1000.0 * r["analyze.petersen"] for r in records])}
        for name in GRAPH_NAMES[1:]:
            figures[f"analyze_s.{name}"] = ("s", [r[f"analyze.{name}"] for r in records])
        figures[f"verify_s.{VERIFY_GRAPH}"] = ("s", [r[f"verify.{VERIFY_GRAPH}"] for r in records])
        figures["exact_s.small5"] = ("s", [r["exact.small5"] for r in records])
        return figures


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="sweep_connectivity",
            spec=ThresholdSpec.constant(1),
            n=10_000,
            multipliers=(1.0,),
            trials=200,
            master_seed=1729,
            workers=1,
        ),
        SweepWorkload(
            name="sweep_nlogn",
            spec=ThresholdSpec.nlogn(1.0),
            n=2000,
            multipliers=(1.0, 5.0),
            trials=200,
            master_seed=42,
            workers=2,
        ),
        SingleGraphWorkload(
            name="single_graph",
        ),
    )
}

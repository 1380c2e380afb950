"""Threshold formulas and the Monte Carlo engine for the property mc(G(n,p)) >= f(n).

The decision procedure for one sampled graph mirrors the two closed-form
bounds: a disconnected sample is an immediate NO; an edge count with
m - n + 2 >= f certifies YES; m - n + delta + 1 < f certifies NO; anything
else is UNKNOWN. Trials are bounds-only: they need m, the minimum degree
delta and connectivity, and the exact value of one graph comes from
:func:`mclab.coloring.analyze`. Sweeps tally YES/NO/UNKNOWN per
(n, multiplier) cell with one RNG stream per trial, so reports are
reproducible byte for byte and schedule-independent.

All logarithms are natural.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import graphs
from .graphs import Graph
from .sampling import RngSeed, _decode_rows, _draw, _index, _real

# f(n) preset families
CONSTANT = "CONSTANT"
POWER = "POWER"
NLOGN = "NLOGN"
CUSTOM = "CUSTOM"

# growth regimes
DENSE = "DENSE"
SPARSE = "SPARSE"

# trial decisions and their certifying sources
YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"
DISCONNECTED = "DISCONNECTED"
LOWER_BOUND = "LOWER_BOUND"
UPPER_BOUND = "UPPER_BOUND"
EXACT_SMALL = "EXACT_SMALL"  # no trial reports it; kept as perfbench/workloads.py imports it

MIN_FORMULA_N = 16  # below this the dense formula's log log term is degenerate


@dataclass(frozen=True)
class ThresholdSpec:
    """A target function f(n) with its declared growth regime.

    Presets classify themselves: CONSTANT and POWER with exponent <= 1 are
    SPARSE (they grow strictly slower than n log n), NLOGN and POWER with
    exponent in (1, 2) are DENSE. CUSTOM tables carry whatever regime the
    caller declares, and nothing more: the dense formula reads only f.
    """

    family: str
    regime: str
    c: Optional[float] = None
    alpha: Optional[float] = None
    ell: Optional[float] = None
    table: Optional[tuple[tuple[int, float], ...]] = None

    @staticmethod
    def constant(c: float) -> "ThresholdSpec":
        c = _real(c, "constant f must be a real number")
        if not math.isfinite(c) or c < 1:
            raise ValueError("constant f must be a finite value >= 1")
        return ThresholdSpec(family=CONSTANT, regime=SPARSE, c=c)

    @staticmethod
    def power(alpha: float) -> "ThresholdSpec":
        """f = n^alpha, SPARSE for alpha <= 1 and DENSE above: n^(alpha-1)/ln n
        has a positive minimum on n >= 16, so n^alpha >= ell n ln n there for
        some ell > 0. f < C(n, 2) is checked per n by :meth:`f_value`."""
        alpha = _real(alpha, "power exponent must be a real number")
        if not (0 < alpha < 2):
            raise ValueError("power exponent must lie in (0, 2)")
        return ThresholdSpec(family=POWER, regime=DENSE if alpha > 1 else SPARSE, alpha=alpha)

    @staticmethod
    def nlogn(ell: float = 1.0) -> "ThresholdSpec":
        ell = _real(ell, "ell must be a real number")
        if not math.isfinite(ell) or ell <= 0:
            raise ValueError("ell must be a positive finite value")
        return ThresholdSpec(family=NLOGN, regime=DENSE, ell=ell)

    @staticmethod
    def custom(table: dict, regime: str) -> "ThresholdSpec":
        if regime not in (DENSE, SPARSE):
            raise ValueError(f"regime must be DENSE or SPARSE, got {regime!r}")
        try:
            ns = [_index(k) for k in table]
        except TypeError:
            raise ValueError("key 'table': every n must be an integer") from None
        fs = [_real(v, "key 'table': every value must be a real number") for v in table.values()]
        pairs = tuple(sorted(zip(ns, fs)))
        if not pairs:
            raise ValueError("custom table must not be empty")
        if not all(math.isfinite(v) for _, v in pairs):
            raise ValueError("key 'table': every value must be finite")
        return ThresholdSpec(family=CUSTOM, regime=regime, table=pairs)

    def f_value(self, n: int) -> float:
        """Evaluate f(n), enforcing 1 <= f(n) < C(n, 2)."""
        if n * n > sys.float_info.max:  # C(n, 2) and the dense n^2 would overflow a float
            raise ValueError(f"n={n} is too large for the threshold formulas")
        if self.family == CONSTANT:
            value = self.c
        elif self.family == POWER:
            value = float(n) ** self.alpha
        elif self.family == NLOGN:
            value = self.ell * n * math.log(n)
        else:
            lookup = dict(self.table)
            if n not in lookup:
                raise ValueError(f"custom table has no value for n={n}")
            value = lookup[n]
        top = n * (n - 1) / 2
        if not (1 <= value < top):
            raise ValueError(f"f({n}) = {value} outside the supported range [1, C(n,2))")
        return float(value)

    def describe(self) -> dict:
        """JSON-friendly summary for report sidecars: the fields that are set,
        in field order, with the table keyed by ``str(n)``."""
        out = {k: v for k, v in vars(self).items() if v is not None}
        if self.table is not None:
            out["table"] = {str(k): v for k, v in self.table}
        return out


def threshold_p(spec: ThresholdSpec, n: int) -> float:
    """Sharp threshold edge probability for mc(G(n,p)) >= f(n).

    DENSE: (f(n) + n*log log n) / n^2. SPARSE: log n / n (the connectivity
    threshold). Both lie in (0, 1) with no clamp: for n >= 16 and
    1 <= f < C(n, 2) the dense p is below 1/2 + log log n / n, and log n / n < 1.
    """
    if n < MIN_FORMULA_N:
        raise ValueError(f"n below formula domain (need n >= {MIN_FORMULA_N}, got {n})")
    if spec.regime == DENSE:
        return (spec.f_value(n) + n * math.log(math.log(n))) / (n * n)
    spec.f_value(n)  # still validate the range even though p ignores f
    return math.log(n) / n


def chernoff_lower_tail(mu: float, delta: float) -> float:
    """Bound on P(X <= (1-delta) mu) for binomial X with mean mu: exp(-d^2 mu/2)."""
    if not (mu > 0):
        raise ValueError("mu must be positive")
    if not (0 < delta < 1):
        raise ValueError("lower-tail delta must lie in (0, 1)")
    return math.exp(-delta * delta * mu / 2.0)


def chernoff_upper_tail(mu: float, delta: float) -> float:
    """Bound on P(X >= (1+delta) mu): exp(-d^2 mu / (2 + d))."""
    if not (mu > 0):
        raise ValueError("mu must be positive")
    if not (delta > 0):
        raise ValueError("upper-tail delta must be positive")
    if delta == math.inf:  # the exponent below is inf/inf there; the bound tends to 0
        return 0.0
    return math.exp(-delta * delta * mu / (2.0 + delta))


def connectivity_prob_limit(a: float) -> float:
    """Limit of P(G(n, (log n + a)/n) connected) as n grows: exp(-exp(-a))."""
    a = _real(a, "a must be a real number")
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    try:
        return math.exp(-math.exp(-a))
    except OverflowError:  # exp(-a) is past the float range, where the limit is 0
        return 0.0


@dataclass(frozen=True)
class TrialOutcome:
    """Verdict for one sampled graph on the question mc >= f."""

    connected: bool
    m: int
    delta: int
    decision: str
    # DISCONNECTED, LOWER_BOUND or UPPER_BOUND; None exactly when the decision is UNKNOWN
    decision_source: Optional[str]


def _decide(n: int, indptr: np.ndarray, tails: np.ndarray, f_value: int) -> TrialOutcome:
    """The decision ladder on the CSR edges: vertex u is joined to
    ``tails[indptr[u]:indptr[u+1]]``, so m is ``len(tails)`` and the degrees
    are the row lengths plus the tail counts.

    DISCONNECTED, then LOWER_BOUND, then UPPER_BOUND, else UNKNOWN.
    Connectivity takes no labelling when a vertex is isolated or m < n - 1;
    otherwise :func:`graphs._csr_connected` settles it: a dense trial labels
    every j-th edge, which almost always proves it connected, and labels all
    m edges only when that sample does not.
    """
    m = len(tails)
    delta = int((np.diff(indptr) + np.bincount(tails, minlength=n)).min())
    if n > 1 and (delta == 0 or m < n - 1 or not graphs._csr_connected(n, indptr, tails)):
        return TrialOutcome(False, m, delta, NO, DISCONNECTED)
    lower = m - n + 2 if n > 1 else 0  # mc_lower_bound: a single vertex takes 0
    if lower >= f_value:
        return TrialOutcome(True, m, delta, YES, LOWER_BOUND)
    upper = m - n + delta + 1
    if upper < f_value:
        return TrialOutcome(True, m, delta, NO, UPPER_BOUND)
    return TrialOutcome(True, m, delta, UNKNOWN, None)


def decide_mc_at_least(g: Graph, f_value: int) -> TrialOutcome:
    """Decide mc(g) >= f_value using the certified bounds, never guessing.

    YES requires the spanning-tree lower bound to reach f; NO requires
    disconnection or the min-degree upper bound to fall short of it; a gap
    between the bounds is UNKNOWN (``analyze`` gives the exact value of one
    graph). Connectivity is settled as in :func:`_decide`: with no labelling
    when a vertex is isolated or m < n - 1, and on dense graphs mostly by a
    labelling of every j-th edge.
    """
    if f_value < 1:
        raise ValueError("f_value must be at least 1")
    return _decide(g.n, g._indptr, g.edge_array[:, 1], f_value)


def run_trial(n: int, p: float, spec: ThresholdSpec, seed: RngSeed) -> TrialOutcome:
    """Sample one graph and decide mc >= ceil(f(n)); deterministic per seed.

    The outcome equals ``decide_mc_at_least(sample_gnp(n, p, seed), ...)``,
    but the trial carries one CSR, ``(indptr, tails)``, from the decoded pair
    ranks to m, the degrees and the components, and never builds a
    :class:`Graph`.
    """
    f_value = math.ceil(spec.f_value(n))
    return _decide(n, *_decode_rows(_draw(n, p, seed), n), f_value)


def trial_seed(master_seed: int, row_index: int, trial_index: int) -> RngSeed:
    """Stream layout for sweeps: high 32 bits row, low 32 bits trial."""
    if not (0 <= trial_index < 1 << 32):
        raise ValueError("trial index must fit in 32 bits")
    if not (0 <= row_index < 1 << 32):
        raise ValueError("row index must fit in 32 bits")
    return RngSeed(master_seed, (row_index << 32) | trial_index)


@dataclass(frozen=True)
class SweepConfig:
    spec: ThresholdSpec
    n_list: tuple[int, ...]
    multiplier_list: tuple[float, ...]
    trials: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        for name in ("n_list", "trials", "master_seed", "workers"):
            value = getattr(self, name)
            try:
                value = tuple(map(_index, value)) if name == "n_list" else _index(value)
            except TypeError:
                raise ValueError(f"{name} must hold integers, got {value!r}") from None
            object.__setattr__(self, name, value)
        multipliers = (_real(x, "multipliers must be real numbers") for x in self.multiplier_list)
        object.__setattr__(self, "multiplier_list", tuple(multipliers))
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        if any(n < 1 for n in self.n_list):
            raise ValueError("all n values must be positive")
        if any(n > graphs.MAX_VERTICES for n in self.n_list):
            raise ValueError(f"n values must be at most {graphs.MAX_VERTICES}, the vertex limit")
        if not self.multiplier_list:
            raise ValueError("multiplier_list must not be empty")
        if any(not (0 < x < math.inf) for x in self.multiplier_list):
            raise ValueError("multipliers must be positive and finite")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (0 <= self.master_seed < 1 << 64):
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    def describe(self) -> dict:
        """JSON-friendly echo for the sweep sidecar, in the sidecar's key order."""
        return {
            "spec": self.spec.describe(),
            "n": list(self.n_list),
            "multipliers": list(self.multiplier_list),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "workers": self.workers,
        }


@dataclass(frozen=True)
class SweepRow:
    n: int
    multiplier: float
    p: float
    trials: int
    yes: int
    no: int
    unknown: int
    frac_yes: float
    clamped: bool = False
    error: Optional[str] = None


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        """Stable CSV: fixed column order, floats at 9 significant digits.

        Rows that failed, from the formula domain or from a trial's error,
        carry no tallies and are omitted here; they stay visible on the report
        itself, error message included.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "multiplier", "p", "trials", "yes", "no", "unknown", "frac_yes"])
        for row in self.rows:
            if row.error is not None:
                continue
            writer.writerow(
                [
                    row.n,
                    f"{row.multiplier:.9g}",
                    f"{row.p:.9g}",
                    row.trials,
                    row.yes,
                    row.no,
                    row.unknown,
                    f"{row.frac_yes:.9g}",
                ]
            )
        return buf.getvalue()

    def failed_rows(self) -> tuple[SweepRow, ...]:
        return tuple(row for row in self.rows if row.error is not None)


def _trial_batch(args) -> Counter | str:
    """Run a slice of one row's trials: a Counter of their decisions, or the
    message of the ValueError that stopped the slice (every mclab error is one)."""
    config, n, p, row_index, start, stop = args
    try:
        return Counter(
            run_trial(n, p, config.spec, trial_seed(config.master_seed, row_index, t)).decision
            for t in range(start, stop)
        )
    except ValueError as exc:
        return str(exc)


def sweep(config: SweepConfig) -> SweepReport:
    """Monte Carlo tallies for every (n, multiplier) cell, in declared order.

    A row fails alone, with an error message in place of its tallies: an n
    below the formula domain fails before any trial runs, and a trial's error
    (a draw past the edge limit, say) fails the row it ran for. Identical
    config and seed give identical reports regardless of worker count: every
    row's trial slices go through one map, in job order, and a row sums its
    slices' tallies or keeps the first error they return.
    """
    records = []  # [n, multiplier, p, clamped, error, tally] per row, in row-index order
    for n in config.n_list:
        for multiplier in config.multiplier_list:
            try:
                p = multiplier * threshold_p(config.spec, n)
            except ValueError as exc:
                records.append([n, multiplier, 0.0, False, str(exc), Counter()])
            else:
                records.append([n, multiplier, min(1.0, p), p > 1.0, None, Counter()])

    step = max(1, math.ceil(config.trials / (config.workers * 4)))
    jobs = [
        (config, n, p, row_index, start, min(start + step, config.trials))
        for row_index, (n, _, p, _, error, _) in enumerate(records)
        if error is None
        for start in range(0, config.trials, step)
    ]
    if config.workers > 1:
        # the pool forks all its processes at once: never more than the cores
        with ProcessPoolExecutor(max_workers=min(config.workers, os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_trial_batch, jobs))
    else:
        parts = map(_trial_batch, jobs)
    for job, part in zip(jobs, parts):
        record = records[job[3]]
        if isinstance(part, str) and record[4] is None:  # the first error fails the row
            record[4], record[5] = part, Counter()
        elif record[4] is None:
            record[5] += part

    rows = tuple(
        SweepRow(n, multiplier, p, config.trials, tally[YES], tally[NO], tally[UNKNOWN],
                 tally[YES] / config.trials, clamped=clamped, error=error)
        for n, multiplier, p, clamped, error, tally in records
    )
    return SweepReport(config=config, rows=rows)

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
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import graphs
from .errors import UnsupportedSpecError
from .graphs import Graph
from .sampling import RngSeed, _decode_rows, _draw

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
    SPARSE (they grow strictly slower than n log n), NLOGN is DENSE. POWER
    with exponent > 1 sits between the regimes and is rejected rather than
    guessed. CUSTOM tables carry whatever regime the caller declares.
    """

    family: str
    regime: str
    c: Optional[float] = None
    alpha: Optional[float] = None
    ell: Optional[float] = None
    table: Optional[tuple[tuple[int, float], ...]] = None

    @staticmethod
    def constant(c: float) -> "ThresholdSpec":
        c = float(c)
        if not math.isfinite(c) or c < 1:
            raise ValueError("constant f must be a finite value >= 1")
        return ThresholdSpec(family=CONSTANT, regime=SPARSE, c=c)

    @staticmethod
    def power(alpha: float) -> "ThresholdSpec":
        alpha = float(alpha)
        if not (0 < alpha < 2):
            raise ValueError("power exponent must lie in (0, 2)")
        if alpha > 1:
            raise UnsupportedSpecError(
                f"n^{alpha} grows faster than every o(n log n) function but is not "
                "bounded below by ell*n*log n at every supported n; no regime fits"
            )
        return ThresholdSpec(family=POWER, regime=SPARSE, alpha=alpha)

    @staticmethod
    def nlogn(ell: float = 1.0) -> "ThresholdSpec":
        ell = float(ell)
        if not math.isfinite(ell) or ell <= 0:
            raise ValueError("ell must be a positive finite value")
        return ThresholdSpec(family=NLOGN, regime=DENSE, ell=ell)

    @staticmethod
    def custom(values: dict, regime: str, ell: Optional[float] = None) -> "ThresholdSpec":
        if regime not in (DENSE, SPARSE):
            raise ValueError(f"regime must be DENSE or SPARSE, got {regime!r}")
        if regime == DENSE:
            if ell is None or not math.isfinite(float(ell)) or float(ell) <= 0:
                raise ValueError("DENSE custom specs need a positive ell")
            ell = float(ell)
        elif ell is not None:
            raise ValueError("key 'ell': not used by the custom family with a SPARSE regime")
        table = tuple(sorted((int(k), float(v)) for k, v in values.items()))
        if not table:
            raise ValueError("custom table must not be empty")
        return ThresholdSpec(family=CUSTOM, regime=regime, ell=ell, table=table)

    def f_value(self, n: int) -> float:
        """Evaluate f(n), enforcing 1 <= f(n) < C(n, 2)."""
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
        """JSON-friendly summary for report sidecars."""
        out = {"family": self.family, "regime": self.regime}
        if self.c is not None:
            out["c"] = self.c
        if self.alpha is not None:
            out["alpha"] = self.alpha
        if self.ell is not None:
            out["ell"] = self.ell
        if self.table is not None:
            out["table"] = {str(k): v for k, v in self.table}
        return out


def threshold_p(spec: ThresholdSpec, n: int) -> float:
    """Sharp threshold edge probability for mc(G(n,p)) >= f(n).

    DENSE: (f(n) + n*log log n) / n^2. SPARSE: log n / n (the connectivity
    threshold). Clamped to [0, 1].
    """
    if n < MIN_FORMULA_N:
        raise ValueError(f"n below formula domain (need n >= {MIN_FORMULA_N}, got {n})")
    if spec.regime == DENSE:
        p = (spec.f_value(n) + n * math.log(math.log(n))) / (n * n)
    else:
        spec.f_value(n)  # still validate the range even though p ignores f
        p = math.log(n) / n
    return min(1.0, max(0.0, p))


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
    return math.exp(-delta * delta * mu / (2.0 + delta))


def connectivity_prob_limit(a: float) -> float:
    """Limit of P(G(n, (log n + a)/n) connected) as n grows: exp(-exp(-a))."""
    a = float(a)
    if not math.isfinite(a):
        raise ValueError("a must be finite")
    return math.exp(-math.exp(-a))


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
    Components are labelled at most once, and not at all when a vertex is
    isolated or m < n - 1.
    """
    m = len(tails)
    delta = int((np.diff(indptr) + np.bincount(tails, minlength=n)).min())
    if n > 1 and (
        delta == 0 or m < n - 1 or graphs._csr_components(n, indptr, tails)[0] != 1
    ):
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
    graph). Components are labelled at most once, and not at all when a
    vertex is isolated or m < n - 1.
    """
    if f_value < 1:
        raise ValueError("f_value must be at least 1")
    heads, tails = g.edge_array.T
    indptr = np.searchsorted(heads, np.arange(g.n + 1))
    return _decide(g.n, indptr, tails, f_value)


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
            try:  # operator.index refuses floats where int() would truncate them
                if name == "n_list":
                    value = tuple(map(operator.index, value))
                else:
                    value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must hold integers, got {value!r}") from None
            object.__setattr__(self, name, value)
        object.__setattr__(
            self, "multiplier_list", tuple(float(x) for x in self.multiplier_list)
        )
        if not self.n_list:
            raise ValueError("n_list must not be empty")
        if any(n < 1 for n in self.n_list):
            raise ValueError("all n values must be positive")
        if not self.multiplier_list:
            raise ValueError("multiplier_list must not be empty")
        if any(not (x > 0) for x in self.multiplier_list):
            raise ValueError("multipliers must be positive")
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

        Rows that failed (formula-domain errors) carry no tallies and are
        omitted here; they stay visible on the report itself.
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


def _trial_batch(args) -> tuple[int, int, int]:
    """Run a slice of one row's trials; returns (yes, no, unknown) counts."""
    config, n, p, row_index, start, stop = args
    yes = no = unknown = 0
    for t in range(start, stop):
        outcome = run_trial(n, p, config.spec, trial_seed(config.master_seed, row_index, t))
        if outcome.decision == YES:
            yes += 1
        elif outcome.decision == NO:
            no += 1
        else:
            unknown += 1
    return yes, no, unknown


def sweep(config: SweepConfig) -> SweepReport:
    """Monte Carlo tallies for every (n, multiplier) cell, in declared order.

    Failed cells (for example n below the formula domain) become rows with an
    error message instead of aborting the whole sweep. Identical config and
    seed give identical reports regardless of worker count: every row's trial
    slices go through one map, and the tallies are summed per row.
    """
    cells = []  # (n, multiplier, p, clamped, error) in row-index order
    for n in config.n_list:
        for multiplier in config.multiplier_list:
            try:
                base_p = threshold_p(config.spec, n)
            except (ValueError, UnsupportedSpecError) as exc:
                cells.append((n, multiplier, 0.0, False, str(exc)))
                continue
            p = multiplier * base_p
            cells.append((n, multiplier, min(1.0, p), p > 1.0, None))

    step = config.trials
    if config.workers > 1:
        step = max(1, math.ceil(config.trials / (config.workers * 4)))
    jobs = [
        (config, n, p, row_index, start, min(start + step, config.trials))
        for row_index, (n, _, p, _, error) in enumerate(cells)
        if error is None
        for start in range(0, config.trials, step)
    ]
    tallies = [[0, 0, 0] for _ in cells]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            parts = list(pool.map(_trial_batch, jobs))
    else:
        parts = map(_trial_batch, jobs)
    for job, part in zip(jobs, parts):
        row_index = job[3]
        tallies[row_index] = [a + b for a, b in zip(tallies[row_index], part)]

    rows = tuple(
        SweepRow(n, multiplier, p, config.trials, yes, no, unknown, yes / config.trials,
                 clamped=clamped, error=error)
        for (n, multiplier, p, clamped, error), (yes, no, unknown) in zip(cells, tallies)
    )
    return SweepReport(config=config, rows=rows)


def default_upper_multiplier(spec: ThresholdSpec) -> float:
    """Multiplier above which the YES side is provably w.h.p.

    DENSE uses the proof constant: 5 when ell >= 1, else 5/ell. SPARSE uses 3,
    comfortably past the connectivity threshold where the edge-count bound
    takes over.
    """
    if spec.regime == DENSE:
        return 5.0 if spec.ell >= 1 else 5.0 / spec.ell
    return 3.0


def default_bracket(spec: ThresholdSpec) -> tuple[float, float]:
    if spec.regime == DENSE:
        return (1.0, default_upper_multiplier(spec))
    return (0.5, 3.0)


def estimate_transition(
    spec: ThresholdSpec,
    n: int,
    trials: int,
    tolerance: float,
    master_seed: int,
    bracket: Optional[tuple[float, float]] = None,
) -> tuple[float, float]:
    """Bisect the multiplier until the empirical YES fraction crosses one half.

    Assumes frac_yes is non-decreasing in the multiplier (the property is
    monotone in p). A bracket no wider than the tolerance is returned as-is,
    before any sampling. Endpoints on the same strict side of 1/2 are an error.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not (tolerance > 0):
        raise ValueError("tolerance must be positive")
    lo, hi = bracket if bracket is not None else default_bracket(spec)
    if not (0 < lo < hi):
        raise ValueError("bracket must satisfy 0 < lo < hi")
    if hi - lo <= tolerance:
        return (lo, hi)

    base_p = threshold_p(spec, n)
    evaluations = 0

    def frac_yes(multiplier: float) -> float:
        # one sweep row per evaluation, its row index the evaluation count
        nonlocal evaluations
        config = SweepConfig(spec, (n,), (multiplier,), trials, master_seed)
        p = min(1.0, multiplier * base_p)
        yes, _, _ = _trial_batch((config, n, p, evaluations, 0, trials))
        evaluations += 1
        return yes / trials

    f_lo = frac_yes(lo)
    f_hi = frac_yes(hi)
    if (f_lo - 0.5) * (f_hi - 0.5) > 0:
        raise ValueError(
            f"bracket does not straddle 1/2: frac_yes({lo}) = {f_lo}, "
            f"frac_yes({hi}) = {f_hi}"
        )
    while hi - lo > tolerance:
        mid = (lo + hi) / 2
        if frac_yes(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return (lo, hi)

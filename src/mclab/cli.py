"""Command-line surface: gen, analyze, verify, sweep, threshold.

Exit codes: 0 success, 1 semantic negative (a coloring that fails
verification), 2 usage or config errors (bad flags, malformed files, values
outside a formula's domain). Every randomized command takes an explicit seed;
nothing falls back to wall-clock entropy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .coloring import (
    DEFAULT_CHI_CAP,
    DEFAULT_KAPPA_CAP,
    DEFAULT_ORACLE_CAP,
    analyze,
    first_uncovered_pair,
)
from .errors import FormatError, UnsupportedSpecError
from .files import read_coloring, read_edge_list, write_edge_list
from .sampling import RngSeed, sample_gnp
from .threshold import (
    SPARSE,
    SweepConfig,
    ThresholdSpec,
    connectivity_prob_limit,
    sweep,
    threshold_p,
)

DEFAULT_MULTIPLIERS = (0.5, 1.0, 2.0, 5.0)
DEFAULT_TRIALS = 200


class ConfigError(ValueError):
    """A config file problem, reported with the offending key."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


# the fields each family reads; build_spec rejects the others
_FAMILY_KEYS = {
    "constant": {"c"},
    "power": {"alpha"},
    "nlogn": {"ell"},
    "custom": {"table", "regime", "ell"},
}


def build_spec(
    family: Optional[str],
    c: Optional[float] = None,
    alpha: Optional[float] = None,
    ell: Optional[float] = None,
    regime: Optional[str] = None,
    table: Optional[dict] = None,
) -> ThresholdSpec:
    """Assemble a ThresholdSpec from flat fields, naming the field on errors.

    A field the family never reads is an error, not dropped.
    """
    if family is None:
        raise ConfigError("key 'family': required (constant | power | nlogn | custom)")
    family = family.lower()
    if family not in _FAMILY_KEYS:
        raise ConfigError(f"key 'family': unknown family {family!r}")
    given = (("c", c), ("alpha", alpha), ("ell", ell), ("regime", regime), ("table", table))
    for key, value in given:
        if value is not None and key not in _FAMILY_KEYS[family]:
            raise ConfigError(f"key {key!r}: not used by the {family} family")
    if family == "constant":
        if c is None:
            raise ConfigError("key 'c': required for the constant family")
        return ThresholdSpec.constant(c)
    if family == "power":
        if alpha is None:
            raise ConfigError("key 'alpha': required for the power family")
        return ThresholdSpec.power(alpha)
    if family == "nlogn":
        return ThresholdSpec.nlogn(1.0 if ell is None else ell)
    if table is None:
        raise ConfigError("key 'table': required for the custom family")
    if regime is None:
        raise ConfigError("key 'regime': required for the custom family")
    return ThresholdSpec.custom(table, regime.upper(), ell=ell)


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed sweep config file: the sweep to run and the CSV path it writes."""

    sweep: SweepConfig
    output: str


def _parse_typed(key: str, raw: str, kind: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "int_list":
            return tuple(int(tok) for tok in raw.split(","))
        if kind == "float_list":
            return tuple(float(tok) for tok in raw.split(","))
        if kind == "table":
            table: dict = {}
            for tok in raw.split(","):
                k, _, v = tok.partition(":")
                n = int(k)
                if n in table:
                    raise ConfigError(f"key {key!r}: repeated n {n}")
                table[n] = float(v)
            return table
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from None
    return raw


_CONFIG_KEYS = {
    "family": "str",
    "c": "float",
    "alpha": "float",
    "ell": "float",
    "regime": "str",
    "table": "table",
    "n": "int_list",
    "multipliers": "float_list",
    "trials": "int",
    "master_seed": "int",
    "workers": "int",
    "output": "str",
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value format, with per-key error messages."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_typed(key, value, _CONFIG_KEYS[key])
    for required in ("family", "n", "master_seed", "output"):
        if required not in values:
            raise ConfigError(f"key {required!r}: required")
    output = values.pop("output")
    spec_keys = ("family", "c", "alpha", "ell", "regime", "table")
    try:
        spec = build_spec(**{key: values.pop(key) for key in spec_keys if key in values})
        config = SweepConfig(
            spec=spec,
            n_list=values.pop("n"),
            multiplier_list=values.pop("multipliers", DEFAULT_MULTIPLIERS),
            trials=values.pop("trials", DEFAULT_TRIALS),
            **values,  # master_seed, workers
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(sweep=config, output=output)


def read_config(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config(text)


# ----------------------------------------------------------------- commands


def cmd_gen(args) -> int:
    g = sample_gnp(args.n, args.p, RngSeed(args.seed))
    write_edge_list(g, args.out)
    print(f"wrote {g.n} vertices, {g.m} edges to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    g = read_edge_list(args.graph)
    bounds = analyze(
        g, oracle_cap=args.exact_cap, chi_cap=args.chi_cap, kappa_cap=args.kappa_cap
    )
    print(f"n: {g.n}")
    print(f"m: {g.m}")
    print(f"lower: {bounds.lower}")
    print(f"upper: {bounds.upper}")
    print(f"exact: {bounds.exact if bounds.exact is not None else 'unknown'}")
    print(f"certificates: {','.join(bounds.certificates)}")
    return 0


def cmd_verify(args) -> int:
    g = read_edge_list(args.graph)
    coloring = read_coloring(args.coloring, g)
    witness = first_uncovered_pair(g, coloring)
    if witness is None:
        print(f"valid: every vertex pair has a single-color path ({coloring.num_colors} colors)")
        return 0
    print(f"invalid: no single-color path joins pair ({witness[0]}, {witness[1]})")
    return 1


def cmd_sweep(args) -> int:
    config = read_config(args.config)
    report = sweep(config.sweep)
    out = Path(config.output)
    out.write_text(report.to_csv(), encoding="utf-8")
    sidecar = out.with_name(out.name + ".json")
    described = {**report.config.describe(), "output": config.output}
    sidecar.write_text(json.dumps(described, indent=2) + "\n", encoding="utf-8")
    failed = report.failed_rows()
    print(f"wrote {len(report.rows) - len(failed)} rows to {out} (sidecar {sidecar})")
    for row in failed:
        print(f"row n={row.n} multiplier={_fmt(row.multiplier)} failed: {row.error}",
              file=sys.stderr)
    return 0


def cmd_threshold(args) -> int:
    spec = build_spec(
        args.family,
        c=args.c,
        alpha=args.alpha,
        ell=args.ell,
        regime=args.regime,
        table=_parse_typed("table", args.table, "table") if args.table else None,
    )
    p = threshold_p(spec, args.n)
    print(f"n: {args.n}")
    print(f"regime: {spec.regime}")
    print(f"f: {_fmt(spec.f_value(args.n))}")
    print(f"threshold_p: {_fmt(p)}")
    if spec.regime == SPARSE:
        # p = (log n + a)/n with a = 0 exactly at the threshold
        print(f"connectivity_limit: {_fmt(connectivity_prob_limit(0.0))}")
    return 0


def _add_spec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", required=True,
                     help="constant | power | nlogn | custom")
    sub.add_argument("--c", type=float, help="value for the constant family")
    sub.add_argument("--alpha", type=float, help="exponent for the power family")
    sub.add_argument("--ell", type=float, help="coefficient for the nlogn family")
    sub.add_argument("--regime", help="dense | sparse (custom family only)")
    sub.add_argument("--table", help="custom family values, e.g. 100:50,200:120")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mclab",
        description="Monochromatic-connectivity bounds and random-graph threshold experiments",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="sample a seeded random graph to an edge-list file")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)

    an = subs.add_parser("analyze", help="print certified mc bounds for a graph file")
    an.add_argument("graph")
    an.add_argument("--exact-cap", type=int, default=DEFAULT_ORACLE_CAP,
                    help="largest edge count the exact search will attempt")
    an.add_argument("--chi-cap", type=int, default=DEFAULT_CHI_CAP,
                    help="largest vertex count for the exact chromatic bound")
    an.add_argument("--kappa-cap", type=int, default=DEFAULT_KAPPA_CAP,
                    help="largest vertex count for the connectivity bound and "
                         "certificate (a), complement 4-connected")
    an.set_defaults(func=cmd_analyze)

    ver = subs.add_parser("verify", help="check a coloring file against a graph file")
    ver.add_argument("graph")
    ver.add_argument("coloring")
    ver.set_defaults(func=cmd_verify)

    sw = subs.add_parser("sweep", help="run the Monte Carlo sweep described by a config file")
    sw.add_argument("config")
    sw.set_defaults(func=cmd_sweep)

    th = subs.add_parser("threshold", help="print the threshold probability for f(n)")
    _add_spec_flags(th)
    th.add_argument("--n", type=int, required=True)
    th.set_defaults(func=cmd_threshold)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, FormatError, UnsupportedSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())

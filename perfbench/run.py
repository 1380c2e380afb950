"""Run one benchmark workload against the mclab sources in this checkout.

    python3 perfbench/run.py --workload sweep_connectivity --seed 0 --seconds 30 --trace 0

Run it from the checkout root or anywhere else; it finds ``src/mclab`` next to
this directory. It sets up the workload's seeded inputs, repeats passes of the
workload's library calls for ``--seconds`` (at least one pass), checks every
output, prints a readable report, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
untraced. ``--trace 1`` reports its per-layer metrics from a traced run that
also times untraced passes, so the tracing overhead is reported too; a layer
the workload never reaches reports 0. Spans and a full result record are
written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 3  # set-ups timed per run; setup_s is their median
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 gives the reference inputs (default 0)")
    parser.add_argument("--seconds", type=float,
                        help="how long to repeat timed passes (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit; used to time set-up")
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 1 << 32):
        parser.error("--seed must lie in [0, 2^32)")
    return args


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))]


def describe(values: list[float]) -> str:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    text = f"median {statistics.median(values):.6g}"
    for q in (99.9, 99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            text += f"  p{q:g} {percentile(values, q):.6g}"
            break
    return text + f"  n={len(values)}"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def time_setups(args) -> list[float]:
    """Seconds from process start to the first timed call, over fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            try:
                proc.wait(timeout=SETUP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed (exit {proc.returncode})")
    return samples


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mclab" / "__init__.py").is_file():
        print(f"perfbench: no mclab sources at {SRC}", file=sys.stderr)
        return 2
    bench = ROOT / "BENCHMARK.json"
    if not bench.is_file():
        print(f"perfbench: no {bench}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mclab

    if Path(mclab.__file__).resolve().parent != SRC / "mclab":
        print(f"perfbench: imported mclab from {mclab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    spec = json.loads(bench.read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    ledger = Ledger()
    tracer = Tracer() if args.trace else None
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        if tracer is None:
            records.append(workload.timed_pass(state, ledger))
        else:
            records.append(workload.traced_pass(state, ledger, tracer))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if tracer is None:
        setups = time_setups(args)
        measured = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(r["pass_s"] for r in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"setup_s": setups, "pass_s": [r["pass_s"] for r in records]}
    else:
        measured = workload.layer_metrics(state, tracer, records)
        samples = {}
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    if tracer is None and set(measured) != set(units):
        raise KeyError(f"end-to-end metrics not measured: {sorted(set(units) - set(measured))}")
    metrics = {name: {"value": float(measured.get(name, 0.0)), "unit": unit}
               for name, unit in units.items()}

    import numpy
    import scipy

    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "passes": len(records),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mclab": mclab.__version__,
        "git_commit": git_commit(),
    }
    if tracer is not None:
        run_record["trace_overhead_s"] = measured["trace.overhead_s"]
    error_rate = len(ledger.failures) / ledger.attempted
    figures = workload.call_figures(records)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(records)}")
    for name, values in samples.items():
        print(f"  {name} [{units[name]}]: {describe(values)}")
    for name, (unit, values) in figures.items():
        print(f"  {name} [{unit}]: {describe(values)}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate = {error_rate:.6g} ({len(ledger.failures)}/{ledger.attempted})")
    for failure in ledger.failures[:20]:
        print(f"  FAILED: {failure}")
    print("run record: " + json.dumps(run_record))

    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {**result, "error_rate": error_rate, "run_record": run_record, "samples": samples,
         "figures": {k: v for k, (_, v) in figures.items()}, "failures": ledger.failures},
        indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests for the command-line interface.

Commands run in-process through ``run`` so stdout/stderr and exit codes are
cheap to assert. The entry point is also run as a real process: through
``python -m mclab`` with ``PYTHONPATH`` pointing at the imported package, after
checking that ``pyproject.toml`` declares the same ``mclab.cli:main`` target for
the console script; and through the installed ``mclab`` script itself, a test
that runs only where that script is on ``PATH``.
"""

import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mclab.cli
import mclab.sampling
from mclab.cli import ExperimentConfig, parse_config, run
from mclab.files import read_edge_list, write_edge_list
from mclab.graphs import cycle_graph
from mclab.threshold import SweepConfig, ThresholdSpec, sweep


def write_graph(path, text):
    path.write_text(text)
    return str(path)


P3 = "3 2\n0 1\n1 2\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
K4_MINUS_EDGE = "4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n"
C4 = "4 4\n0 1\n0 3\n1 2\n2 3\n"


# ------------------------------------------------------------------- gen


def test_gen_writes_canonical_edge_list(tmp_path):
    out = tmp_path / "g.txt"
    assert run(["gen", "--n", "50", "--p", "0.2", "--seed", "7", "--out", str(out)]) == 0
    g = read_edge_list(out)  # re-parse enforces canonical form
    assert g.n == 50


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(["gen", "--n", "40", "--p", "0.3", "--seed", "11", "--out", str(a)])
    run(["gen", "--n", "40", "--p", "0.3", "--seed", "11", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run(["gen", "--n", "40", "--p", "0.3", "--seed", "11", "--out", str(a)])
    run(["gen", "--n", "40", "--p", "0.3", "--seed", "12", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_gen_p_one_is_complete_graph(tmp_path):
    out = tmp_path / "g.txt"
    run(["gen", "--n", "4", "--p", "1", "--seed", "0", "--out", str(out)])
    assert out.read_text() == K4


def test_gen_tiny_probability_writes_empty_graph(tmp_path):
    out = tmp_path / "g.txt"
    assert run(["gen", "--n", "100", "--p", "1e-17", "--seed", "1", "--out", str(out)]) == 0
    g = read_edge_list(out)
    assert g.n == 100 and g.m == 0


def test_gen_requires_explicit_seed(tmp_path, capsys):
    rc = run(["gen", "--n", "5", "--p", "0.5", "--out", str(tmp_path / "g.txt")])
    assert rc == 2
    capsys.readouterr()


def test_gen_unwritable_path_exits_2(tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "g.txt"
    assert run(["gen", "--n", "5", "--p", "0.5", "--seed", "1", "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_gen_bad_probability_exits_2(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert run(["gen", "--n", "5", "--p", "1.5", "--seed", "1", "--out", str(out)]) == 2
    capsys.readouterr()


def test_gen_past_edge_limit_exits_2(tmp_path, capsys, monkeypatch):
    # E[m] is about 10^6 here, past the patched limit and far below the real one
    monkeypatch.setattr(mclab.sampling, "MAX_EDGES", 1000)
    out = tmp_path / "g.txt"
    assert run(["gen", "--n", "2000", "--p", "0.5", "--seed", "1", "--out", str(out)]) == 2
    assert "exceeds limit 1000" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------- analyze


def test_analyze_path_three(tmp_path, capsys):
    path = write_graph(tmp_path / "p3.txt", P3)
    assert run(["analyze", path]) == 0
    assert "exact: 1" in capsys.readouterr().out


def test_analyze_complete_four(tmp_path, capsys):
    path = write_graph(tmp_path / "k4.txt", K4)
    assert run(["analyze", path]) == 0
    assert "exact: 6" in capsys.readouterr().out


def test_analyze_k4_minus_edge_golden(tmp_path, capsys):
    path = write_graph(tmp_path / "k4e.txt", K4_MINUS_EDGE)
    assert run(["analyze", path, "--exact-cap", "12"]) == 0
    assert capsys.readouterr().out == (
        "n: 4\n"
        "m: 5\n"
        "lower: 3\n"
        "upper: 4\n"
        "exact: 4\n"
        "certificates: TREE_LOWER,MIN_DEGREE_UPPER,CHROMATIC_UPPER,"
        "CONNECTIVITY_UPPER,EXACT_ORACLE\n"
    )


def test_analyze_exact_cap_can_leave_value_unknown(tmp_path, capsys):
    # K4 minus an edge has no certificate and a strict gap, so a cap below
    # its 5 edges leaves only the sandwich
    path = write_graph(tmp_path / "k4e.txt", K4_MINUS_EDGE)
    assert run(["analyze", path, "--exact-cap", "3"]) == 0
    out = capsys.readouterr().out
    assert "exact: unknown" in out
    assert "EXACT_ORACLE" not in out


def test_analyze_kappa_cap_gates_the_connectivity_checks(tmp_path, capsys):
    # C65 is one vertex past the default cap: its connectivity bound ties the
    # degree bound and its complement is 4-connected, but only a raised cap
    # lets either check run
    path = tmp_path / "c65.txt"
    write_edge_list(cycle_graph(65), path)
    assert run(["analyze", str(path)]) == 0
    assert capsys.readouterr().out.endswith(
        "certificates: TREE_LOWER,MIN_DEGREE_UPPER,EXACT_B\n"
    )
    assert run(["analyze", str(path), "--kappa-cap", "65"]) == 0
    assert capsys.readouterr().out == (
        "n: 65\n"
        "m: 65\n"
        "lower: 2\n"
        "upper: 3\n"
        "exact: 2\n"
        "certificates: TREE_LOWER,MIN_DEGREE_UPPER,CONNECTIVITY_UPPER,EXACT_A\n"
    )


def test_analyze_malformed_file_exits_2(tmp_path, capsys):
    path = write_graph(tmp_path / "bad.txt", "3 2\n1 0\n1 2\n")
    assert run(["analyze", path]) == 2
    assert "canonical" in capsys.readouterr().err


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    assert run(["analyze", str(tmp_path / "absent.txt")]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------- verify


def test_verify_accepts_spanning_tree_coloring(tmp_path, capsys):
    graph = write_graph(tmp_path / "c4.txt", C4)
    coloring = write_graph(tmp_path / "col.txt", "2\n0\n0\n0\n1\n")
    assert run(["verify", graph, coloring]) == 0
    assert "valid" in capsys.readouterr().out


def test_verify_reports_first_uncovered_pair(tmp_path, capsys):
    # all-distinct labels on a 4-cycle leave the diagonal (0, 2) uncovered
    graph = write_graph(tmp_path / "c4.txt", C4)
    coloring = write_graph(tmp_path / "col.txt", "4\n0\n1\n2\n3\n")
    assert run(["verify", graph, coloring]) == 1
    assert "(0, 2)" in capsys.readouterr().out


def test_verify_mismatched_label_count_exits_2(tmp_path, capsys):
    graph = write_graph(tmp_path / "c4.txt", C4)
    coloring = write_graph(tmp_path / "col.txt", "2\n0\n1\n")
    assert run(["verify", graph, coloring]) == 2
    assert "4 edges" in capsys.readouterr().err


# ------------------------------------------------------------- threshold


def test_threshold_dense_golden(capsys):
    assert run(["threshold", "--family", "nlogn", "--n", "1000"]) == 0
    assert capsys.readouterr().out == (
        "n: 1000\n"
        "regime: DENSE\n"
        "f: 6907.75528\n"
        "threshold_p: 0.00884040001\n"
    )


def test_threshold_sparse_prints_connectivity_limit(capsys):
    assert run(["threshold", "--family", "constant", "--c", "1", "--n", "10000"]) == 0
    out = capsys.readouterr().out
    assert "threshold_p: 0.000921034037" in out
    assert "connectivity_limit: 0.367879441" in out


def test_threshold_below_domain_exits_2(capsys):
    assert run(["threshold", "--family", "nlogn", "--n", "10"]) == 2
    assert "domain" in capsys.readouterr().err


def test_threshold_power_regimes(capsys):
    assert run(["threshold", "--family", "power", "--alpha", "1", "--n", "100"]) == 0
    assert "regime: SPARSE" in capsys.readouterr().out
    assert run(["threshold", "--family", "power", "--alpha", "1.5", "--n", "100"]) == 2
    capsys.readouterr()


def test_threshold_custom_table(capsys):
    rc = run(["threshold", "--family", "custom", "--regime", "sparse",
              "--table", "100:10,200:14", "--n", "100"])
    assert rc == 0
    assert "regime: SPARSE" in capsys.readouterr().out


def test_threshold_missing_family_field(capsys):
    rc = run(["threshold", "--family", "constant", "--n", "100"])
    assert rc == 2
    assert "'c'" in capsys.readouterr().err


# ----------------------------------------------------------------- sweep


SWEEP_CFG = (
    "family = constant\n"
    "c = 1\n"
    "n = 300\n"
    "multipliers = 1,3\n"
    "trials = 5\n"
    "master_seed = 9\n"
)

CUSTOM_CFG = (
    "# comment lines and blanks are ignored\n\n"
    "family = custom\n"
    "regime = dense\n"
    "ell = 0.5\n"
    "table = 100:50.0,200:120.5\n"
    "n = 100,200\n"
    "multipliers = 0.5,1,2,5\n"
    "trials = 7\n"
    "master_seed = 3\n"
    "workers = 2\n"
    "output = out.csv\n"
)


def sweep_config_file(tmp_path, extra=""):
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "out.csv"
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG + f"output = {out}\n" + extra)
    return cfg, out


def test_sweep_writes_csv_and_sidecar(tmp_path):
    cfg, out = sweep_config_file(tmp_path)
    assert run(["sweep", str(cfg)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,multiplier,p,trials,yes,no,unknown,frac_yes"
    assert len(lines) == 3 and lines[1].startswith("300,1,")
    sidecar = json.loads((tmp_path / "out.csv.json").read_text())
    assert sidecar["master_seed"] == 9
    assert sidecar["spec"]["family"] == "CONSTANT"
    assert sidecar["n"] == [300]


def test_sweep_rerun_is_byte_identical(tmp_path):
    cfg, out = sweep_config_file(tmp_path)
    run(["sweep", str(cfg)])
    first = out.read_bytes()
    run(["sweep", str(cfg)])
    assert out.read_bytes() == first


def test_sweep_workers_do_not_change_bytes(tmp_path):
    serial_cfg, serial_out = sweep_config_file(tmp_path / "serial", extra="workers = 1\n")
    pooled_cfg, pooled_out = sweep_config_file(tmp_path / "pooled", extra="workers = 2\n")
    assert run(["sweep", str(serial_cfg)]) == 0
    assert run(["sweep", str(pooled_cfg)]) == 0
    assert pooled_out.read_bytes() == serial_out.read_bytes()


def test_sidecar_describes_the_sweep_that_ran(tmp_path, monkeypatch):
    ran = []

    def recording_sweep(config):
        ran.append(config)
        return sweep(config)

    monkeypatch.setattr(mclab.cli, "sweep", recording_sweep)
    cfg, out = sweep_config_file(tmp_path, extra="workers = 2\n")
    assert run(["sweep", str(cfg)]) == 0
    [config] = ran
    assert config == parse_config(cfg.read_text()).sweep
    assert config.workers == 2
    sidecar = json.loads((tmp_path / "out.csv.json").read_text())
    assert sidecar == {**config.describe(), "output": str(out)}


def test_sidecar_text_is_pinned(tmp_path):
    out = tmp_path / "out.csv"
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(CUSTOM_CFG.replace("output = out.csv", f"output = {out}"))
    assert run(["sweep", str(cfg)]) == 0
    expected = (
        '{\n  "spec": {\n    "family": "CUSTOM",\n    "regime": "DENSE",\n'
        '    "ell": 0.5,\n    "table": {\n      "100": 50.0,\n      "200": 120.5\n'
        '    }\n  },\n  "n": [\n    100,\n    200\n  ],\n'
        '  "multipliers": [\n    0.5,\n    1.0,\n    2.0,\n    5.0\n  ],\n'
        '  "trials": 7,\n  "master_seed": 3,\n  "workers": 2,\n'
        f'  "output": {json.dumps(str(out))}\n}}\n'
    )
    assert (tmp_path / "out.csv.json").read_text() == expected


def test_sweep_bad_value_names_the_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SWEEP_CFG.replace("trials = 5", "trials = many") + "output = o.csv\n")
    assert run(["sweep", str(cfg)]) == 2
    assert "'trials'" in capsys.readouterr().err
    cfg, out = sweep_config_file(tmp_path, extra="workers = 0\n")
    assert run(["sweep", str(cfg)]) == 2
    assert "workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_missing_required_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("family = constant\nc = 1\nn = 300\noutput = o.csv\n")
    assert run(["sweep", str(cfg)]) == 2
    assert "'master_seed'" in capsys.readouterr().err


def test_sweep_unknown_key_rejected(tmp_path, capsys):
    # allow_exact and oracle_cap are retired: sweep trials decide by the bounds alone
    for key, value in (("colour", "blue"), ("allow_exact", "true"), ("oracle_cap", "0")):
        cfg, out = sweep_config_file(tmp_path, extra=f"{key} = {value}\n")
        assert run(["sweep", str(cfg)]) == 2
        assert f"unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_duplicate_key_rejected(tmp_path, capsys):
    cfg, _ = sweep_config_file(tmp_path, extra="trials = 6\n")
    assert run(["sweep", str(cfg)]) == 2
    assert "duplicate" in capsys.readouterr().err


def test_sweep_missing_config_file_exits_2(tmp_path, capsys):
    assert run(["sweep", str(tmp_path / "absent.cfg")]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- config



def test_config_keeps_every_value():
    assert parse_config(CUSTOM_CFG) == ExperimentConfig(
        sweep=SweepConfig(
            spec=ThresholdSpec.custom({100: 50.0, 200: 120.5}, "DENSE", ell=0.5),
            n_list=(100, 200),
            multiplier_list=(0.5, 1.0, 2.0, 5.0),
            trials=7,
            master_seed=3,
            workers=2,
        ),
        output="out.csv",
    )


def test_config_documented_defaults():
    config = parse_config(
        "family = nlogn\nell = 1\nn = 2000\nmaster_seed = 42\noutput = o.csv\n"
    )
    assert config == ExperimentConfig(
        sweep=SweepConfig(
            spec=ThresholdSpec.nlogn(1.0),
            n_list=(2000,),
            multiplier_list=(0.5, 1.0, 2.0, 5.0),
            trials=200,
            master_seed=42,
            workers=1,
        ),
        output="o.csv",
    )


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("Sweep config:"):]
    block = section.split("```")[1]
    assert parse_config(block) == ExperimentConfig(
        sweep=SweepConfig(
            spec=ThresholdSpec.nlogn(1.0),
            n_list=(1000, 2000),
            multiplier_list=(0.5, 1.0, 2.0, 5.0),
            trials=200,
            master_seed=42,
            workers=1,
        ),
        output="report.csv",
    )


def test_config_spec_errors_surface_at_parse_time():
    with pytest.raises(ValueError):
        parse_config("family = power\nalpha = 2\nn = 100\nmaster_seed = 1\noutput = o\n")


def test_config_table_rejects_a_repeated_n(tmp_path, capsys):
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text(CUSTOM_CFG.replace("200:120.5", "100:60"))
    assert run(["sweep", str(cfg)]) == 2
    assert "key 'table': repeated n 100" in capsys.readouterr().err
    rc = run(["threshold", "--family", "custom", "--regime", "sparse",
              "--table", "100:5,100:60", "--n", "100"])
    assert rc == 2
    assert "key 'table': repeated n 100" in capsys.readouterr().err


SPEC_VALUES = {"c": "2", "alpha": "0.5", "ell": "3", "regime": "dense", "table": "100:5"}


@pytest.mark.parametrize("family, needs, unused", [
    ("constant", "c = 2\n", ("alpha", "ell", "regime", "table")),
    ("power", "alpha = 0.5\n", ("c", "ell", "regime", "table")),
    ("nlogn", "", ("c", "alpha", "regime", "table")),
    ("custom", "regime = sparse\ntable = 100:5\n", ("c", "alpha", "ell")),
], ids=["constant", "power", "nlogn", "custom"])
def test_config_rejects_keys_the_family_never_reads(tmp_path, capsys, family, needs, unused):
    base = f"family = {family}\n{needs}n = 100\nmaster_seed = 1\noutput = {tmp_path / 'o.csv'}\n"
    parse_config(base)
    for key in unused:
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"{base}{key} = {SPEC_VALUES[key]}\n")
        assert run(["sweep", str(cfg)]) == 2
        assert f"key {key!r}: not used by the {family} family" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_config_is_a_plain_dataclass_value():
    def build():
        sweep_config = SweepConfig(spec=ThresholdSpec.nlogn(1.0), n_list=(100,),
                                   multiplier_list=(0.5, 1.0, 2.0, 5.0), trials=200,
                                   master_seed=1)
        return ExperimentConfig(sweep=sweep_config, output="o.csv")

    a, b = build(), build()
    assert a == b and a.sweep.spec == b.sweep.spec
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == ["sweep", "output"]
    assert parse_config("family = nlogn\nell = 1\nn = 100\nmaster_seed = 1\noutput = o.csv\n") == a


# ------------------------------------------------------------ entry point


def test_no_subcommand_exits_2(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
MCLAB_SRC = Path(mclab.__file__).resolve().parent.parent
THRESHOLD_ARGS = ["threshold", "--family", "nlogn", "--n", "1000"]


def run_module(args, cwd):
    """Run ``python -m mclab`` on the imported package, not any installed copy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(MCLAB_SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "mclab", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_installed_script_runs(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["mclab"]
    assert target == "mclab.cli:main"
    assert importlib.import_module("mclab.__main__").main is mclab.cli.main

    proc = run_module(THRESHOLD_ARGS, cwd=tmp_path)
    assert proc.returncode == 0
    assert "threshold_p: 0.00884040001" in proc.stdout


@pytest.mark.skipif(shutil.which("mclab") is None,
                    reason="the `mclab` console script is not on PATH (package not installed)")
def test_console_script_runs():
    proc = subprocess.run(["mclab", *THRESHOLD_ARGS], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "threshold_p: 0.00884040001" in proc.stdout


def test_module_usage_error_exits_2(tmp_path):
    proc = run_module(["threshold", "--family", "bogus", "--n", "1000"], cwd=tmp_path)
    assert proc.returncode == 2
    assert "error:" in proc.stderr

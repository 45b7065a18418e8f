"""Smoke tests for `scripts/`: `compare_mechanisms.py` runs on a small
cohort. And for the benchmark: the command it times as its setup resolves a
config and a lockfile, and its tracer still finds every layer it wraps."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from meritmatch.config import RunManifest, resolve_config, write_lock

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def test_compare_mechanisms_runs_on_a_small_cohort():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "compare_mechanisms.py"), "--scale", "0.02"],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1].endswith("True")


@pytest.mark.parametrize("locked", [False, True], ids=["config", "lockfile"])
def test_benchmark_setup_command_resolves(tmp_path, locked):
    # the code `bench/run.py` runs in a fresh interpreter for `setup_s`
    code = re.search(r'code = "(import sys, meritmatch\.pipeline[^"]*)"', (ROOT / "bench" / "run.py").read_text())[1]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scale": 0.05}))
    if locked:
        write_lock(tmp_path / "manifest.lock", RunManifest(), resolve_config(cfg))
        cfg = tmp_path / "manifest.lock"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(cfg)], env=_env(), capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")


# every function `bench/tracer.py` wraps, by the span name it records
TRACED_LAYERS = [
    "pipeline.run",
    "pipeline.simulate_seed",
    "pipeline.seed_regressions",
    "pipeline.write_regressions_csv",
    "popgen.generate_applicants",
    "strategy.submit_applications",
    "strategy.equilibrium_cutoffs",
    "strategy.single_applications",
    "mechanisms.run_meritocratic_boston",
    "mechanisms.run_grouped_centralized",
    "mechanisms.run_decentralized",
    "metrics.year_outcome",
    "metrics.build_panel",
    "metrics.write_panel_csv",
    "metrics.write_year_outcomes_csv",
    "metrics.read_panel_csv",
    "metrics.read_year_outcomes_csv",
    "econometrics.did_centralization",
    "econometrics.fe_ols",
    "econometrics.newey_west_ols",
    "cli.main",
    "core.distance_matrix",
]


def test_benchmark_tracer_wraps_every_layer(tmp_path):
    # the tracer wraps functions by module attribute: a moved or renamed one
    # would otherwise drop out of `bench/run.py --trace 1` unnoticed
    cfg, spool, result = tmp_path / "config.json", tmp_path / "spool", tmp_path / "trace.json"
    cfg.write_text(json.dumps({"scale": 0.02}))
    spool.mkdir()
    common = ["run", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seeds", "2", "--jobs", "1", "--stages"]
    argv_lists = [[*common, "simulate,metrics"], [*common, "estimate"]]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(result), str(spool), "1", json.dumps(argv_lists)],
        env=_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(result.read_text())
    counters = trace["counters"]
    assert [counters.get(k, 0) for k in ("cli.exit_nonzero", "bench.placement_violations")] == [0, 0]
    assert counters.get("bench.equivalence_mismatches", 0) == 0 and counters["bench.equivalence_years"] > 0
    assert {name for name, *_ in trace["spans"] if not name.startswith("bench.")} == set(TRACED_LAYERS)

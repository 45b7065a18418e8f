"""Smoke tests for `scripts/`: `compare_mechanisms.py` runs on a small
cohort. And the command the benchmark times as its setup resolves a config
and a lockfile."""

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

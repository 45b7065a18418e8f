"""Smoke tests for `scripts/`: both import the package's public names."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

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


def test_replicate_shortrun_imports():
    spec = importlib.util.spec_from_file_location("replicate_shortrun", SCRIPTS / "replicate_shortrun.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)

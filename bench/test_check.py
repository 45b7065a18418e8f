"""The artifact checker accepts a real run's artifacts and rejects perturbed ones.

Run from the repository root: python3 -m pytest bench/test_check.py -q
"""

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from check import check_artifacts

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> Path:
    base = tmp_path_factory.mktemp("run")
    config = base / "config.json"
    config.write_text(json.dumps({"scale": 0.05}))
    out = base / "out"
    env = {k: v for k, v in os.environ.items() if k != "MERITMATCH_OUT"}
    env["PYTHONPATH"] = str(ROOT / "src")
    subprocess.run(
        [sys.executable, "-m", "meritmatch.cli", "run", "--config", str(config), "--seed", "3", "--seeds", "2", "--out", str(out)],
        env=env,
        check=True,
        capture_output=True,
    )
    return out


@pytest.fixture
def copy(artifacts, tmp_path) -> Path:
    return Path(shutil.copytree(artifacts, tmp_path / "out"))


def _edit_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def test_real_artifacts_pass(artifacts):
    assert check_artifacts(artifacts, [3, 4]) == []


def test_wrong_seeds_fail(artifacts):
    assert check_artifacts(artifacts, [0, 1])


def test_entrant_moved_between_prefectures_fails(copy):
    """Totals stay the same; the recomputed mean distance does not."""

    def move(rows):
        src = next(r for r in rows if int(r["entrants"]) > 0)
        dst = next(r for r in rows if r["seed"] == src["seed"] and r["year"] == src["year"] and r is not src and r["located_in"] != src["located_in"])
        src["entrants"] = str(int(src["entrants"]) - 1)
        dst["entrants"] = str(int(dst["entrants"]) + 1)

    _edit_csv(copy / "panel_school_1.csv", move)
    problems = check_artifacts(copy, [3, 4])
    assert any("mean distance" in p for p in problems)


def test_entrants_total_off_by_one_fails(copy):
    _edit_csv(copy / "year_outcomes.csv", lambda rows: rows[5].update(entrants_total=str(int(rows[5]["entrants_total"]) + 1)))
    assert any("entrants_total" in p for p in check_artifacts(copy, [3, 4]))


def test_did_estimate_perturbed_fails(copy):
    def nudge(rows):
        row = next(r for r in rows if r["spec_id"] == "did_tokyo_area")
        row["estimate"] = repr(float(row["estimate"]) * (1 + 1e-6))

    _edit_csv(copy / "regressions.csv", nudge)
    assert any("did_tokyo_area" in p for p in check_artifacts(copy, [3, 4]))


def test_capacity_below_admissions_fails(copy):
    lock = json.loads((copy / "manifest.lock").read_text())
    lock["config"]["schools"][0][2] -= 5
    (copy / "manifest.lock").write_text(json.dumps(lock))
    assert any("capacity" in p for p in check_artifacts(copy, [3, 4]))

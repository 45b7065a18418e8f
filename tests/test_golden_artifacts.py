"""Golden artifacts: a full run of the `{"scale": 0.05}` scenario, seed 0,
the simulated series of the default (full-scale) scenario, seed 0, and the
byte-identity matrix of `byte_identity_matrix.json`: the default scenario
with `--seeds 3 --jobs 2`, and `{"scale": 0.05}` with `--seeds 10` run as
`simulate,metrics` and then `estimate`. A change meant to keep behaviour
regenerates none of them; one that changes bytes on purpose reruns the
matrix's argument lists and replaces only the entries that moved.

Every artifact except `regressions.csv` must match its recorded sha256 byte
for byte. The regressions go through LAPACK, so their numbers are compared
with a relative tolerance instead; the text fields must match exactly.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import pytest

from meritmatch.cli import main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-9
NUMERIC = ("estimate", "std_error", "t_stat", "p_value", "n_obs", "n_clusters")


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _assert_regressions_match(got_path, want_path):
    got, want = _rows(got_path), _rows(want_path)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        for key in g:
            if key in NUMERIC and w[key]:
                assert math.isclose(float(g[key]), float(w[key]), rel_tol=RTOL), (w["spec_id"], w["seed"], key)
            else:
                assert g[key] == w[key], (w["spec_id"], w["seed"], key)


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_small_scenario_artifacts_match_golden(tmp_path):
    golden = json.loads((GOLDEN / "artifacts_scale005_seed0.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(golden["config"]))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seed", str(golden["seed"]), "--out", str(out)]) == 0

    for name, digest in golden["sha256"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    _assert_regressions_match(out / "regressions.csv", GOLDEN / "regressions_scale005_seed0.csv")


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_default_scenario_series_match_golden(tmp_path):
    golden = json.loads((GOLDEN / "artifacts_full_seed0.json").read_text())
    config = tmp_path / "config.json"
    config.write_text(json.dumps(golden["config"]))
    out = tmp_path / "out"
    args = ["run", "--config", str(config), "--seed", str(golden["seed"]), "--out", str(out)]
    assert main(args + ["--stages", "simulate,metrics"]) == 0

    for name, digest in golden["sha256"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


MATRIX = json.loads((GOLDEN / "byte_identity_matrix.json").read_text())


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@pytest.mark.parametrize("golden", MATRIX, ids=[g["name"] for g in MATRIX])
def test_byte_identity_matrix(tmp_path, golden):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(golden["config"]))
    out = tmp_path / "out"
    for args in golden["runs"]:
        assert main(["run", "--config", str(config), "--out", str(out), *args]) == 0, args

    assert sorted(p.name for p in out.iterdir()) == sorted([*golden["sha256"], "regressions.csv"])
    for name, digest in golden["sha256"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    _assert_regressions_match(out / "regressions.csv", GOLDEN / golden["regressions"])

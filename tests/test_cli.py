import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from meritmatch.cli import main
from meritmatch.core import default_prefectures
from meritmatch.metrics import read_year_outcomes_csv
from meritmatch.pipeline import (
    ConfigError,
    RunManifest,
    diff_regimes,
    resolve_config,
    run,
)

from conftest import save_geography, save_schools

SMALL_CONFIG = {
    "scale": 0.02,
    "population": {"year_start": 1900, "year_end": 1904},
}

ARTIFACTS = ["year_outcomes.csv", "manifest.lock", "panel_all.csv"] + [
    f"panel_school_{s}.csv" for s in range(1, 9)
] + ["regressions.csv"]


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def _run_cli(config, out, extra=()):
    return main(["run", "--config", str(config), "--out", str(out), *extra])


def _read_all(out_dir):
    return {name: (Path(out_dir) / name).read_bytes() for name in ARTIFACTS}


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_two_runs_byte_identical(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run_cli(config_path, out1, ("--seeds", "2")) == 0
    assert _run_cli(config_path, out2, ("--seeds", "2")) == 0
    assert _read_all(out1) == _read_all(out2)


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@pytest.mark.parametrize("geography", ["default", "custom"])
def test_lockfile_replay_reproduces_artifacts(config_path, tmp_path, geography):
    if geography == "custom":
        # weights whose normalized values do not sum to exactly 1.0
        rng = np.random.default_rng(7)
        prefs = [replace(p, pop_weight=p.pop_weight * (0.5 + rng.random())) for p in default_prefectures()]
        save_geography(prefs, tmp_path / "geo.csv")
        config_path.write_text(json.dumps({**SMALL_CONFIG, "geography": "geo.csv"}))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _run_cli(config_path, out1, ("--seeds", "2")) == 0
    lock = out1 / "manifest.lock"
    assert _run_cli(lock, out2, ("--seeds", "2")) == 0
    assert _read_all(out1) == _read_all(out2)
    # the run's own lock also passes the estimate-only lock check
    assert _run_cli(lock, out1, ("--seeds", "2", "--stages", "estimate")) == 0
    assert _read_all(out1) == _read_all(out2)


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_simulate_stage_writes_only_simulation_artifacts(config_path, tmp_path):
    out = tmp_path / "sim"
    assert _run_cli(config_path, out, ("--stages", "simulate")) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.lock", "year_outcomes.csv"]


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_estimate_stage_reruns_from_disk(config_path, tmp_path):
    out = tmp_path / "full"
    assert _run_cli(config_path, out, ("--seeds", "2")) == 0
    original = (out / "regressions.csv").read_bytes()
    (out / "regressions.csv").unlink()
    assert _run_cli(config_path, out, ("--seeds", "2", "--stages", "estimate")) == 0
    assert (out / "regressions.csv").read_bytes() == original


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_estimate_rejects_lock_from_another_run(config_path, tmp_path, capsys):
    out = tmp_path / "staged"
    assert _run_cli(config_path, out, ("--stages", "simulate,metrics")) == 0
    assert _run_cli(config_path, out, ("--stages", "estimate")) == 0
    estimated = (out / "regressions.csv").read_bytes()
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**SMALL_CONFIG, "scale": 0.03}))
    capsys.readouterr()
    for config, extra in (
        (other, ()),
        (config_path, ("--seed", "7")),
        (config_path, ("--seeds", "2")),
    ):
        assert _run_cli(config, out, ("--stages", "estimate", *extra)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: artifact: ") and "is from another run" in err
    # a lock cut short is an unreadable artifact, not a bad config
    lock = out / "manifest.lock"
    lock.write_text('{"locked": tru')
    assert _run_cli(config_path, out, ("--stages", "estimate")) == 2
    assert capsys.readouterr().err.startswith(f"error: artifact: unreadable {lock}")
    assert (out / "regressions.csv").read_bytes() == estimated


def test_metrics_without_simulate_is_config_error(config_path, tmp_path, capsys):
    code = _run_cli(config_path, tmp_path / "x", ("--stages", "metrics"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1


def test_estimate_without_inputs_is_config_error(config_path, tmp_path):
    assert _run_cli(config_path, tmp_path / "y", ("--stages", "estimate")) == 2


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_regressions_row_count(config_path, tmp_path):
    out = tmp_path / "rows"
    assert _run_cli(config_path, out, ("--seeds", "2")) == 0
    with open(out / "regressions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    specs = {r["spec_id"] for r in rows}
    # 8 per-school, 2 panel-level, 3 trend specs
    assert len(specs) == 13
    per_seed = [r for r in rows if r["seed"] != "pooled"]
    pooled = [r for r in rows if r["seed"] == "pooled"]
    assert len(per_seed) == 13 * 2
    assert len(pooled) == 13
    assert {r["seed"] for r in per_seed} == {"0", "1"}


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scale": 0.02, "bogus_knob": 1}))
    assert _run_cli(bad, tmp_path / "out") == 2
    assert "bogus_knob" in capsys.readouterr().err


def test_unknown_population_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"population": {"applicants": 10}}))
    assert _run_cli(bad, tmp_path / "out") == 2


@pytest.mark.parametrize("config", [{"scale": "abc"}, {"capacities": ["x"] * 8}], ids=["scale", "capacities"])
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, config):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    assert _run_cli(bad, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1


def test_invalid_json_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert _run_cli(bad, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error: config:")


def test_bad_geography_header_is_config_error(tmp_path, capsys):
    # a file the config names is config, not an artifact
    (tmp_path / "geo.csv").write_text("id,name,x,y\n0,Tokyo,0,0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geography": "geo.csv"}))
    assert _run_cli(cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error: config: geography file must have columns")


def test_geography_ids_out_of_row_order_are_config_error(tmp_path, capsys):
    prefs = default_prefectures()
    save_geography([replace(p, id=len(prefs) - 1 - p.id) for p in prefs], tmp_path / "geo.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "geography": "geo.csv"}))
    assert _run_cli(cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error: config: geography row 0 has id 46")
    assert not (tmp_path / "out").exists()


def test_population_prestige_must_match_schools(tmp_path, capsys):
    cfg = _schools_config(tmp_path, 8)
    config = json.loads(cfg.read_text())
    prestige = [s.prestige for s in resolve_config(cfg).scenario.schools]
    cfg.write_text(json.dumps({**config, "population": {**SMALL_CONFIG["population"], "prestige": prestige}}))
    assert resolve_config(cfg).scenario.population.prestige == tuple(prestige)
    cfg.write_text(json.dumps({**config, "population": {**SMALL_CONFIG["population"], "prestige": list(range(1, 9))}}))
    assert _run_cli(cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error: config: bad config: population prestige")


def test_capacities_must_match_schools(tmp_path, capsys):
    cfg = _schools_config(tmp_path, 8)
    config = json.loads(cfg.read_text())
    seats = [s.capacity for s in resolve_config(cfg).scenario.schools]
    cfg.write_text(json.dumps({**config, "capacities": seats}))
    assert [s.capacity for s in resolve_config(cfg).scenario.schools] == seats
    cfg.write_text(json.dumps({**config, "capacities": [1] * 8}))
    assert _run_cli(cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error: config: bad config: capacities [1, 1, 1, 1, 1, 1, 1, 1] differ")
    assert not (tmp_path / "out").exists()


def test_unwritable_out_dir_is_io_error(config_path, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code = _run_cli(config_path, blocker / "out")
    assert code == 3
    assert capsys.readouterr().err.startswith("error: io:")


def test_invariant_violation_exit_code(tmp_path, capsys):
    from meritmatch.core import default_prefectures, Prefecture

    prefs = default_prefectures()
    # give Aomori the same coordinate as Tokyo; names and weights stay valid
    tokyo = next(p for p in prefs if p.name == "Tokyo")
    prefs = [
        Prefecture(p.id, p.name, tokyo.coord if p.name == "Aomori" else p.coord, p.urban, p.pop_weight, p.edu_index)
        for p in prefs
    ]
    geo = tmp_path / "geo.csv"
    save_geography(prefs, geo)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geography": str(geo)}))
    code = _run_cli(cfg, tmp_path / "out")
    assert code == 4
    assert capsys.readouterr().err.startswith("error: invariant:")


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_env_var_overrides_out_dir(config_path, tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("MERITMATCH_OUT", str(env_dir))
    assert _run_cli(config_path, tmp_path / "ignored", ("--stages", "simulate")) == 0
    assert (env_dir / "year_outcomes.csv").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_jobs_parallel_matches_serial(config_path, tmp_path):
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert _run_cli(config_path, out1, ("--seeds", "2", "--jobs", "1")) == 0
    assert _run_cli(config_path, out2, ("--seeds", "2", "--jobs", "2")) == 0
    assert _read_all(out1) == _read_all(out2)


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_diff_regimes_cli(config_path, tmp_path, capsys):
    out = tmp_path / "dr"
    assert _run_cli(config_path, out, ("--stages", "simulate")) == 0
    capsys.readouterr()  # drop the run command's output
    assert main(["diff-regimes", str(out / "year_outcomes.csv")]) == 0
    stdout = capsys.readouterr().out
    lines = [l for l in stdout.strip().splitlines() if l]
    assert lines[0].startswith("metric,")
    assert len(lines) == 4  # header + three metrics


def test_diff_regimes_constant_series(tmp_path):
    # build a synthetic outcome file with constant metrics across regimes
    path = tmp_path / "year_outcomes.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "seed",
                "year",
                "regime",
                "share_first_choice_school1",
                "mean_enrollment_distance_km",
                "tokyo_area_entrant_share",
                "entrants_total",
                "unassigned_total",
            ]
        )
        for year in range(1900, 1910):
            regime = "centralized" if 1902 <= year <= 1907 else "decentralized"
            w.writerow([0, year, regime, 0.3, 200.0, 0.17, 100, 10])
    rows = diff_regimes(read_year_outcomes_csv(path))
    for r in rows:
        assert r.difference == pytest.approx(0.0, abs=1e-12)
        assert r.trend_coefficient == pytest.approx(0.0, abs=1e-8)


def test_diff_regimes_requires_both_regimes(tmp_path, capsys):
    path = tmp_path / "year_outcomes.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            [
                "seed",
                "year",
                "regime",
                "share_first_choice_school1",
                "mean_enrollment_distance_km",
                "tokyo_area_entrant_share",
                "entrants_total",
                "unassigned_total",
            ]
        )
        for year in range(1900, 1905):
            w.writerow([0, year, "decentralized", 0.3, 200.0, 0.17, 100, 10])
    assert main(["diff-regimes", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: artifact:")


def test_diff_regimes_rejects_repeated_seed_year(tmp_path, capsys):
    from meritmatch.metrics import YEAR_OUTCOME_COLUMNS

    path = tmp_path / "year_outcomes.csv"
    regimes = ["decentralized"] * 2 + ["centralized"] * 4 + ["decentralized"] * 2
    rows = [f"0,{1900 + k},{regime},0.3,200.0,0.17,100,10" for k, regime in enumerate(regimes)]
    rows.insert(5, rows[4])  # 1904 twice
    path.write_text("\r\n".join([",".join(YEAR_OUTCOME_COLUMNS), *rows]) + "\r\n")
    assert main(["diff-regimes", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: artifact: {path}, line 7: a second row for seed 0, year 1904\n"


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_artifact_headers_are_stable(config_path, tmp_path):
    from meritmatch.metrics import PANEL_COLUMNS, YEAR_OUTCOME_COLUMNS
    from meritmatch.pipeline import REGRESSION_COLUMNS

    out = tmp_path / "hdr"
    assert _run_cli(config_path, out) == 0
    def header(name):
        return (out / name).read_text().splitlines()[0]

    assert header("year_outcomes.csv") == ",".join(YEAR_OUTCOME_COLUMNS)
    assert header("panel_all.csv") == ",".join(PANEL_COLUMNS)
    for s in range(1, 9):
        assert header(f"panel_school_{s}.csv") == ",".join(PANEL_COLUMNS)
    assert header("regressions.csv") == ",".join(REGRESSION_COLUMNS)


def test_manifest_validation():
    with pytest.raises(ConfigError):
        RunManifest(seeds=0)
    with pytest.raises(ConfigError):
        RunManifest(stages=())
    with pytest.raises(ConfigError):
        RunManifest(stages=("simulate", "bogus"))
    with pytest.raises(ConfigError):
        RunManifest(stages=("Simulate",))  # stage names are case-sensitive
    with pytest.raises(ConfigError):
        RunManifest(jobs=0)


def test_lockfile_contains_resolved_config(config_path, tmp_path):
    out = tmp_path / "lock"
    assert _run_cli(config_path, out, ("--stages", "simulate")) == 0
    lock = json.loads((out / "manifest.lock").read_text())
    assert lock["locked"] is True
    assert len(lock["config"]["geography"]) == 47
    assert len(lock["config"]["schools"]) == 8
    assert lock["config"]["population"]["applicants_per_year"] == round(10777 * 0.02)
    assert "version_hash" in lock
    resolved = resolve_config(out / "manifest.lock")
    assert resolved.scenario.population.year_end == 1904


def test_default_config_resolution_without_file():
    resolved = resolve_config(None)
    assert resolved.scenario.population.applicants_per_year == 10777
    assert sum(s.capacity for s in resolved.scenario.schools) == 2008


def test_custom_capacities_and_groups(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scale": 0.02,
                "capacities": [3, 3, 3, 3, 3, 3, 3, 3],
                "groups": [[1, 2, 3, 4], [5, 6, 7, 8]],
                "population": {"year_start": 1925, "year_end": 1927},
            }
        )
    )
    resolved = resolve_config(cfg)
    assert all(s.capacity == 3 for s in resolved.scenario.schools)
    grouped = next(r for r in resolved.scenario.schedule if r.year == 1926)
    assert grouped.groups == (frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8}))


def test_partial_outputs_removed_on_failure(config_path, tmp_path, monkeypatch):
    import meritmatch.pipeline as pl

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    # a failed run into a fresh directory leaves it empty
    out = tmp_path / "broken"
    with monkeypatch.context() as patch:
        patch.setattr(pl, "build_panel", boom)
        with pytest.raises(RuntimeError):
            run(
                RunManifest(
                    config_path=str(config_path),
                    out_dir=str(out),
                    stages=("simulate", "metrics"),
                )
            )
    leftovers = sorted(p.name for p in out.iterdir()) if out.exists() else []
    assert leftovers == []

    # a failed rerun leaves every earlier byte and the user's own files as they
    # were, and no staging directory
    out = tmp_path / "rerun"
    run(RunManifest(config_path=str(config_path), out_dir=str(out)))
    (out / "notes.tmp").write_text("kept\n")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == sorted([*ARTIFACTS, "notes.tmp"])
    monkeypatch.setattr(pl, "seed_regressions", boom)
    with pytest.raises(RuntimeError):
        run(RunManifest(config_path=str(config_path), out_dir=str(out), seed=5))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def _schools_config(tmp_path, n_schools):
    """SMALL_CONFIG with a schools CSV: the default schools, cut to
    `n_schools` or extended by copies of school 8 with new ids."""
    from meritmatch.core import School

    schools = list(resolve_config(None).scenario.schools)[:n_schools]
    last = schools[-1]
    schools += [
        School(id=sid, prefecture_id=last.prefecture_id, capacity=5, prestige=last.prestige - 0.1 * (sid - last.id))
        for sid in range(last.id + 1, n_schools + 1)
    ]
    save_schools(schools, tmp_path / f"schools{n_schools}.csv")
    cfg = tmp_path / f"schools{n_schools}.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "schools": f"schools{n_schools}.csv"}))
    return cfg


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_school_panels_follow_configured_schools(tmp_path):
    six = _schools_config(tmp_path, 6)
    out = tmp_path / "six"
    assert _run_cli(six, out, ("--stages", "simulate,metrics")) == 0
    panels = sorted(p.name for p in out.glob("panel_*.csv"))
    assert panels == ["panel_all.csv"] + [f"panel_school_{s}.csv" for s in range(1, 7)]
    assert _run_cli(six, out, ("--stages", "estimate")) == 0

    nine = _schools_config(tmp_path, 9)
    in_process, staged = tmp_path / "nine", tmp_path / "nine_staged"
    assert _run_cli(nine, in_process, ("--seeds", "2")) == 0
    assert (in_process / "panel_school_9.csv").exists()
    with open(in_process / "regressions.csv", newline="") as fh:
        specs = {r["spec_id"] for r in csv.DictReader(fh)}
    assert {f"local_monopoly_s{s}" for s in range(1, 10)} <= specs
    assert _run_cli(nine, staged, ("--seeds", "2", "--stages", "simulate,metrics")) == 0
    assert _run_cli(nine, staged, ("--seeds", "2", "--stages", "estimate")) == 0
    assert (staged / "regressions.csv").read_bytes() == (in_process / "regressions.csv").read_bytes()


def test_school_ids_other_than_one_to_s_are_invariant_violation(tmp_path, capsys):
    from meritmatch.core import School

    renumbered = [
        School(s.id + 1, s.prefecture_id, s.capacity, s.prestige) for s in resolve_config(None).scenario.schools
    ]
    save_schools(renumbered, tmp_path / "schools.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "schools": "schools.csv"}))
    out = tmp_path / "out"
    assert _run_cli(cfg, out, ("--stages", "simulate")) == 4
    assert "school_ids: school ids are not 1..8" in capsys.readouterr().err
    assert not out.exists()


def _first_row_field_to(index, value="x"):
    def corrupt(lines):
        fields = lines[1].rstrip("\n").split(",")
        fields[index] = value
        return [lines[0], ",".join(fields) + "\n"] + lines[2:]

    return corrupt


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("panel_all.csv", _first_row_field_to(4)),  # entrants
        ("panel_school_3.csv", lambda lines: lines[:5] + lines[6:]),  # one data row deleted
        ("panel_school_3.csv", lambda lines: lines[:1] + lines[48:95] + lines[1:48] + lines[95:]),  # 1901 before 1900
        ("year_outcomes.csv", _first_row_field_to(6)),  # entrants_total
        ("year_outcomes.csv", lambda lines: lines[:5] + lines[6:]),  # seed 0's 1904 row deleted
        ("year_outcomes.csv", lambda lines: lines[:6] + lines[5:]),  # seed 0's 1904 row twice
        ("panel_school_3.csv", _first_row_field_to(10, "0.5")),  # middle_school_grads, unlike panel_all.csv
        ("panel_school_3.csv", _first_row_field_to(5, "1")),  # centralized in a decentralized year
    ],
    ids=[
        "non-numeric entrants",
        "missing panel row",
        "panel years out of order",
        "non-numeric outcome",
        "missing outcome row",
        "duplicated outcome row",
        "school panel graduates differ",
        "school panel regime differs",
    ],
)
def test_estimate_rejects_malformed_inputs(config_path, tmp_path, capsys, name, corrupt):
    out = tmp_path / "bad"
    assert _run_cli(config_path, out, ("--seeds", "2")) == 0
    estimated = (out / "regressions.csv").read_bytes()
    path = out / name
    path.write_text("".join(corrupt(path.read_text().splitlines(keepends=True))))
    capsys.readouterr()
    assert _run_cli(config_path, out, ("--seeds", "2", "--stages", "estimate")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: artifact:") and name in err  # the check that fails names the file
    assert (out / "regressions.csv").read_bytes() == estimated


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@pytest.mark.parametrize(
    "stages", [("simulate,metrics", "estimate"), ("simulate,metrics,estimate",)], ids=["staged", "one process"]
)
def test_estimate_only_panels_share_read_only_columns(config_path, tmp_path, monkeypatch, stages):
    # a one-process run estimates from the files it wrote, read back like an estimate-only run's
    import meritmatch.pipeline as pl

    out = tmp_path / "out"
    *earlier, last = stages
    for stage in earlier:
        assert _run_cli(config_path, out, ("--seeds", "2", "--stages", stage)) == 0
    seen = []
    estimate = pl.seed_regressions
    monkeypatch.setattr(pl, "seed_regressions", lambda panel, *args: seen.append(panel) or estimate(panel, *args))
    assert _run_cli(config_path, out, ("--seeds", "2", "--stages", last)) == 0
    assert len(seen) == 2
    for panel in seen:
        assert list(panel) == [None, *range(1, 9)]
        for school in range(1, 9):
            for c, col in panel[school].items():
                if c in ("entrants", "located_in", "within_100km"):
                    assert col.base is None  # its own copy, not a view of the file's columns
                else:
                    assert col is panel[None][c]
        for c in ("year", "centralized", "middle_school_grads"):
            with pytest.raises(ValueError, match="read-only"):
                panel[3][c][0] = 1


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone took about half of a cold start
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, meritmatch.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_no_run_loads_scipy_linalg(tmp_path):
    # scipy.linalg's LAPACK wrappers cost ~6.4 MB of RSS in every process that imports it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scale": 0.05}))
    out = tmp_path / "out"
    code = (
        "import sys, meritmatch.cli\n"
        "after_import = 'scipy.linalg' in sys.modules\n"
        "from meritmatch.pipeline import RunManifest, run\n"
        f"run(RunManifest(config_path={str(cfg)!r}, out_dir={str(out)!r}))\n"
        "print(after_import, 'scipy.linalg' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)

import concurrent.futures
import csv
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritmatch.cli import main
from meritmatch.config import (
    GEOGRAPHY_COLUMNS,
    SCHOOL_COLUMNS,
    ConfigError,
    InvariantError,
    RunManifest,
    _lock_payload,
    build_scenario,
    resolve_config,
)
from meritmatch.core import _PREFECTURE_TABLE, DomainError, Prefecture, build_prefectures, default_prefectures
from meritmatch.metrics import OUTCOME_STATISTICS, read_year_outcomes_csv
from meritmatch.pipeline import diff_regimes, run
from meritmatch.popgen import DEFAULT_PRESTIGE, PopulationConfig
from meritmatch.strategy import BehaviorParams

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


@pytest.mark.parametrize("stages", ["simulate,estimate", "estimate"])
def test_stage_error_leaves_out_untouched(config_path, tmp_path, capsys, stages):
    out = tmp_path / "new"
    assert _run_cli(config_path, out, ("--stages", stages)) == 2
    assert capsys.readouterr().err.startswith("error: config: ")
    assert not out.exists()


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


@pytest.mark.parametrize(
    "config",
    [
        {"scale": "abc"},
        {"capacities": ["x"] * 8},
        # these ran before they were rejected: at full scale, with 5 seats a
        # school, and with groups [1, 2, 3, 4] and [5, 6, 7, 8]
        {"scale": True},
        {"capacities": [5.7] + [5] * 7},
        {"groups": [[1.9, 2, 3, 4], [5, 6, 7, 8]]},
        # these failed with an OverflowError and a TypeError traceback, ran a
        # cohort of 6, wrote years with no entrants (twice), ran max_iter 1,
        # and ran the default population
        {"scale": float("inf")},
        {"behavior": {"max_iter": 2.5}},
        {"population": {"applicants_per_year": 5.5}},
        {"behavior": {"score_noise_sd": float("nan")}},
        {"population": {"distance_cost": float("nan")}},
        {"behavior": {"max_iter": True}},
        {"population": []},
        # these ran with prestige 1.0, ..., 8.0 and with group [1, 3, 5, 7],
        # ran with the scale's seats, and failed with an OverflowError traceback
        {"population": {"prestige": "12345678"}},
        {"groups": [[1, 3, 5, 7, 1], [2, 4, 6, 8]]},
        {"capacities": None},
        {"scale": 1e308},
    ],
    ids=[
        "scale",
        "capacities",
        "scale-bool",
        "capacities-fraction",
        "groups-fraction",
        "scale-infinite",
        "max-iter-fraction",
        "applicants-fraction",
        "noise-nan",
        "distance-cost-nan",
        "max-iter-bool",
        "population-list",
        "prestige-string",
        "group-repeats-school",
        "capacities-null",
        "scale-overflows",
    ],
)
def test_config_value_of_wrong_type_is_config_error(tmp_path, capsys, config):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(config))
    # simulate only: a value that resolution lets through must not be caught
    # by a later stage instead
    assert _run_cli(bad, tmp_path / "out", ("--stages", "simulate")) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "groups",
    [[[1, 2, 99], [3, 4, 5, 6, 7, 8]], [[1, 2, 3], [3, 4, 5, 6, 7, 8]], [list(range(1, 9)), []]],
    ids=["unknown-id", "overlap", "empty"],
)
@pytest.mark.parametrize("locked", [False, True], ids=["config", "lockfile"])
def test_groups_must_partition_the_schools(tmp_path, capsys, groups, locked):
    # rejected at resolution, not by a traceback at the first grouped year
    config = {"scale": 0.05, "groups": groups}
    if locked:
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"scale": 0.05}))
        config = {"locked": True, "config": {**resolve_config(good).as_dict(), "groups": groups}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    assert _run_cli(cfg, out) == 2
    err = capsys.readouterr().err
    where = "lockfile" if locked else "config"
    assert err.startswith(f"error: config: bad {where}: groups {sorted(groups[0])} and {sorted(groups[1])} must split")
    assert err.count("\n") == 1
    assert [(p.name, p.read_text()) for p in out.iterdir()] == [("notes.txt", "kept\n")]


@pytest.mark.parametrize("locked", [False, True], ids=["config", "lockfile"])
def test_year_outside_range_is_config_error(tmp_path, capsys, locked):
    # rejected before the schedule is built: it would hold a billion years
    config = {"scale": 0.05, "population": {"year_end": 10**9}}
    if locked:
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"scale": 0.05}))
        resolved = resolve_config(good).as_dict()
        config = {"locked": True, "config": {**resolved, "population": {**resolved["population"], "year_end": 10**9}}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert _run_cli(cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    where = "lockfile" if locked else "config"
    assert err == f"error: config: bad {where}: year_end must be in 1800-2100, got 1000000000\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("locked", [False, True], ids=["config", "lockfile"])
@pytest.mark.parametrize(
    "field, config, message",
    [
        ("applicants", {"population": {"applicants_per_year": 10**12}}, "the 1900 cohort would have 1000000000000"),
        # a lock holds the applicants and seats a scale resolves to
        ("scale", {"scale": 10**6}, "the 1900 cohort would have 10777000000"),
        ("growth", {"population": {"applicant_growth_per_year": 1e4}}, "the 1930 cohort would have 3.233e+09"),
    ],
)
def test_cohort_above_bound_is_config_error(tmp_path, capsys, locked, field, config, message):
    # rejected while the config resolves: no process could simulate such a cohort
    cfg = tmp_path / "cfg.json"
    if locked:
        resolved = resolve_config(None).as_dict()
        population = {**resolved["population"], **config.get("population", {})}
        schools = resolved["schools"]
        if field == "scale":
            population["applicants_per_year"] = round(10777 * config["scale"])
            schools = [[*row[:2], round(251 * config["scale"]), row[3]] for row in schools]
        config = {"locked": True, "config": {**resolved, "population": population, "schools": schools}}
    cfg.write_text(json.dumps(config))
    where = "lockfile" if locked else "config"
    with pytest.raises(ConfigError, match=f"^bad {where}: {re.escape(message)} applicants, more than 10000000$"):
        resolve_config(cfg)
    assert _run_cli(cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == f"error: config: bad {where}: {message} applicants, more than 10000000\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "capacities",
    [[10**20] + [13] * 7, [5 * 10**18] * 2 + [13] * 6],
    ids=["1e20", "sum-past-int64"],
)
def test_capacity_above_largest_cohort_is_config_error(tmp_path, capsys, capacities):
    # no cohort fills more seats than 10**7, the most applicants it may have
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "capacities": [10**7] * 8}))
    assert [s.capacity for s in resolve_config(cfg).scenario.schools] == [10**7] * 8
    cfg.write_text(json.dumps({**SMALL_CONFIG, "capacities": capacities}))
    message = f"bad config: school 1 has capacity {capacities[0]}, more than the largest cohort, 10000000"
    _assert_rejected_at_resolution(cfg, tmp_path / "out", capsys, message)


# prestige near the largest double, no distance cost and outside options
# drawn with sd 4e307: every mean is finite, but some drawn outside options
# overflow an applicant's utility minus outside option
DRAWN_OVERFLOW = {
    "prestige": [1.0e308, 0.99e308, 0.98e308, 0.97e308, 0.96e308, 0.95e308, 0.94e308, 0.93e308],
    "outside_option_mean": 0,
    "outside_option_sd": 4e307,
    "distance_cost": 0,
}


def test_simulate_error_removes_only_the_out_it_created(tmp_path, capsys):
    # the first cohort's surplus overflows in the first equilibrium, after --out exists
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "population": {**SMALL_CONFIG["population"], **DRAWN_OVERFLOW}}))
    fresh, existing = tmp_path / "fresh", tmp_path / "existing"
    existing.mkdir()
    for out in (fresh, existing):
        assert _run_cli(cfg, out) == 2
        message = "applicant 24 has a non-finite surplus: utility minus outside option overflows"
        assert capsys.readouterr().err == f"error: config: {message}\n"
    assert not fresh.exists()
    assert list(existing.iterdir()) == []


@pytest.mark.parametrize(
    "population, message",
    [
        ({"distance_cost": 1e308}, "bad config: the population's base utility in prefecture 0 is not finite"),
        (
            {"score_mean_base": 1e308, "urban_score_shift": 1e308},
            "bad config: the population's mean score in prefecture 12 is not finite",
        ),
        (
            {"prestige": [k * 1e307 for k in range(17, 9, -1)], "outside_option_mean": -1.7e308, "distance_cost": 0},
            "bad config: the population's base utility minus outside_option_mean in prefecture 0 is not finite",
        ),
        (DRAWN_OVERFLOW, "applicant 78 has a non-finite surplus: utility minus outside option overflows"),
        ({"score_sd": 1e300}, "bad config: score_sd must be at most 1e100, got 1e+300"),
        ({"score_sd": 2e100}, "bad config: score_sd must be at most 1e100, got 2e+100"),
        (
            {"score_mean_base": 2e100},
            "bad config: the population's mean score in prefecture 0 is 2e+100, beyond 1e100 in magnitude",
        ),
        (
            {"score_mean_base": 0, "urban_score_shift": -1e101},
            "bad config: the population's mean score in prefecture 0 is -3e+100, beyond 1e100 in magnitude",
        ),
    ],
    ids=[
        "distance cost",
        "score mean",
        "prestige minus outside mean",
        "drawn outside option",
        "score sd 1e300",
        "score sd 2e100",
        "score mean 2e100",
        "score mean -3e100",
    ],
)
def test_overflowing_population_is_config_error(tmp_path, capsys, population, message):
    # all but the drawn outside option are rejected as the config resolves,
    # that one where the surplus is formed; none may warn or crash on the way.
    # Scores beyond 1e100 ran on: with score_noise_sd 1e-100, score_sd 1e300
    # overflowed (score - cutoff) / score_noise_sd with a numpy warning
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"scale": 0.05, "population": population}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_cli(cfg, out, ("--seeds", "1")) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: config: {message}\n"
    assert not out.exists()


def _config_or_lock(tmp_path, locked, section, key, value):
    """SMALL_CONFIG with `key` of `section` set to `value`, as a config or as
    the config section of its lockfile."""
    if locked:
        config = _small_lock(tmp_path)
        config[section][key] = value
        path, payload = tmp_path / "manifest.lock", {"locked": True, "config": config}
    else:
        path, payload = tmp_path / "cfg.json", {**SMALL_CONFIG, section: {**SMALL_CONFIG.get(section, {}), key: value}}
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("locked", [False, True], ids=["config", "lockfile"])
def test_overflowing_negative_growth_is_config_error(tmp_path, capsys, locked):
    # -1e308 a year passed the cohort bound as -inf and failed with an
    # OverflowError traceback where the third cohort's size was rounded
    cfg = _config_or_lock(tmp_path, locked, "population", "applicant_growth_per_year", -1e308)
    where = "lockfile" if locked else "config"
    message = f"bad {where}: the 1904 cohort would have -inf applicants, not a finite number\n"
    _assert_rejected_at_resolution(cfg, tmp_path / "out", capsys, message)


@pytest.mark.parametrize("locked", [False, True], ids=["config", "lockfile"])
@pytest.mark.parametrize("noise", [1e-308, 1e308, 5e-101, 2e100], ids=str)
def test_score_noise_outside_its_range_is_config_error(tmp_path, capsys, locked, noise):
    # 1e-308 overflowed the standardized gaps and 1e308 the belief floor,
    # each with a numpy warning, and the run went on
    cfg = _config_or_lock(tmp_path, locked, "behavior", "score_noise_sd", noise)
    where = "lockfile" if locked else "config"
    message = f"bad {where}: score_noise_sd must be 0 or within [1e-100, 1e100], got {noise}\n"
    _assert_rejected_at_resolution(cfg, tmp_path / "out", capsys, message)


@pytest.mark.parametrize("noise", [1e-100, 1e100])
def test_score_noise_at_its_bounds_runs_without_numeric_warning(tmp_path, noise):
    # 1e100 leaves years non-converged, which only the cutoff warning reports
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"scale": 0.05, "behavior": {"score_noise_sd": noise}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_cli(cfg, out, ("--seeds", "1")) == 0
    assert [str(w.message) for w in caught if not str(w.message).startswith("cutoff iteration")] == []
    for _, outcome in read_year_outcomes_csv(out / "year_outcomes.csv"):
        values = [getattr(outcome, c) for c in OUTCOME_STATISTICS]
        assert all(math.isfinite(v) for v in values if v is not None)


@pytest.mark.parametrize(
    "seed, seeds, valid",
    [(-1, 1, False), (0, 1, True), (2**64 - 1, 1, True), (2**64 - 1, 2, False), (2**64, 1, False)],
)
def test_seeds_must_lie_in_the_64_bit_range(tmp_path, capsys, seed, seeds, valid):
    # SeedSequence takes 64-bit words: a seed outside them would repeat another's draws
    if valid:
        assert RunManifest(seed=seed, seeds=seeds).seed == seed
        return
    with pytest.raises(ConfigError, match=r"must lie within 0\.\.2\^64-1"):
        RunManifest(seed=seed, seeds=seeds)
    out = tmp_path / "out"
    assert main(["run", f"--seed={seed}", "--seeds", str(seeds), "--stages", "simulate", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: seeds ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("seeds", [0, 10**12])
def test_seed_count_outside_its_bound_is_config_error(tmp_path, capsys, seeds):
    # a mistyped count built its list of seeds after `--out` was made, and ran out of memory
    assert RunManifest(seeds=10**6).seeds == 10**6
    out = tmp_path / "out"
    assert main(["run", "--seeds", str(seeds), "--jobs", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: seeds count must be in 1..1000000, got ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@pytest.mark.parametrize(
    "stages", [("simulate,metrics,estimate",), ("simulate,metrics", "estimate")], ids=["one process", "staged"]
)
def test_seed_at_the_top_of_the_64_bit_range_is_estimated(config_path, tmp_path, stages):
    # the panel reader parsed the seed as int64, so every seed from 2^63 up failed the estimate stage
    out, seed = tmp_path / "out", 2**64 - 1
    for stage in stages:
        assert _run_cli(config_path, out, ("--seed", str(seed), "--seeds", "1", "--stages", stage)) == 0
    with open(out / "regressions.csv", newline="") as fh:
        assert {r["seed"] for r in csv.DictReader(fh)} == {str(seed), "pooled"}


@pytest.mark.parametrize(
    "population, noise",
    [
        ({"score_mean_base": 1e100, "score_sd": 1e100}, 1e-100),
        ({"score_mean_base": -1e100, "urban_score_shift": 1e100, "score_sd": 1e100}, 1e100),
    ],
    ids=["mean 1e100, noise 1e-100", "mean -1e100 + 1e100 edu, noise 1e100"],
)
def test_score_scale_at_its_bound_runs_without_numeric_warning(tmp_path, population, noise):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps({"scale": 0.05, "population": population, "behavior": {"score_noise_sd": noise}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_cli(cfg, out, ("--seeds", "1")) == 0
    assert [str(w.message) for w in caught if not str(w.message).startswith("cutoff iteration")] == []


def test_numeric_fields_checked_in_lockfile_and_kept_as_written(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"scale": 0.05, "population": {"score_sd": 10}, "behavior": {"tol": 1}}))
    config = resolve_config(good).as_dict()
    # an int for a float field is a number, and the lock keeps it as written
    assert json.dumps([config["population"]["score_sd"], config["behavior"]["tol"]]) == "[10, 1]"
    lock = tmp_path / "manifest.lock"
    for section, name, value in (("population", "applicants_per_year", 5.5), ("behavior", "damping", float("nan"))):
        lock.write_text(json.dumps({"locked": True, "config": {**config, section: {**config[section], name: value}}}))
        assert _run_cli(lock, tmp_path / "out", ("--stages", "simulate")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config: bad lockfile: {name} must be")
        assert err.count("\n") == 1


FUZZ_BASE = {
    "scale": 0.02,
    "population": {"year_start": 1900, "year_end": 1904, "prestige": list(DEFAULT_PRESTIGE)},
    "behavior": {},
    "capacities": [5] * 8,
    "groups": [[1, 3, 5, 7], [2, 4, 6, 8]],
}
# paths to the fields a mutation replaces, and to the lists whose elements it replaces
_FIELD_PATHS = [("scale",)] + [
    (section, f.name)
    for section, cls in (("population", PopulationConfig), ("behavior", BehaviorParams))
    for f in fields(cls)
]
_LIST_PATHS = [("capacities",), ("population", "prestige"), ("groups", 0), ("groups", 1)]
# wrong types, NaN, bools for numbers, out-of-range numbers and unknown school ids;
# a year far outside 1800-2100 is rejected before any schedule is built
_BAD_VALUES = (
    st.sampled_from(["5", None, {}, [], [1], True, False, math.nan, math.inf, -math.inf])
    | st.sampled_from([-1, 0, -0.5, 0.5, 1e308, -1e308, 9, 99, 10**9, 2**63])
    | st.integers(-(10**4), 10**4)
    | st.integers(-(10**12), 10**12)
    | st.floats(-1e4, 1e4)
)


@st.composite
def _mutated_configs(draw):
    """`FUZZ_BASE` with one field, or one element of a list field, replaced by a
    bad value, or a list field one element shorter or longer."""
    config = json.loads(json.dumps(FUZZ_BASE))
    path = draw(st.sampled_from(_FIELD_PATHS + _LIST_PATHS))
    *parents, last = path
    node = config
    for key in parents:
        node = node[key]
    value = draw(_BAD_VALUES)
    if path in _LIST_PATHS:
        items = node[last]
        edit = draw(st.sampled_from(["replace", "element", "append", "drop"]))
        if edit == "element":
            items[draw(st.integers(0, len(items) - 1))] = value
        elif edit == "append":
            items.append(value)
        elif edit == "drop":
            items.pop()
        else:
            node[last] = value
    else:
        node[last] = value
    return config


def _same_json(a, b) -> bool:
    """Equal JSON values, where a bool equals only the same bool and a
    number only an equal number."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    return all(isinstance(v, (int, float)) for v in (a, b)) and a == b


@settings(max_examples=300, deadline=None)
@given(_mutated_configs())
def test_mutated_config_is_rejected_or_locked_as_written(config):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(config))
        try:
            resolved = resolve_config(cfg)
        except (ConfigError, DomainError, InvariantError):
            return
        # the lock as `run` writes it; scale is not a field of it, but resolves into
        # applicants_per_year and the capacities
        lock_text = json.dumps(_lock_payload(RunManifest(config_path=str(cfg)), resolved), indent=2, sort_keys=True)
        locked = json.loads(lock_text)["config"]
        written = {
            "population": config["population"],
            "behavior": config["behavior"],
            "capacities": config["capacities"],
            "groups": [sorted(g) for g in config["groups"]],
        }
        held = {
            "population": {k: locked["population"][k] for k in config["population"]},
            "behavior": {k: locked["behavior"][k] for k in config["behavior"]},
            "capacities": [row[2] for row in locked["schools"]],
            "groups": locked["groups"],
        }
        assert _same_json(written, held)
        # and the lock replays to itself
        lock = Path(tmp) / "manifest.lock"
        lock.write_text(lock_text)
        assert json.dumps(resolve_config(lock).as_dict(), sort_keys=True) == json.dumps(locked, sort_keys=True)


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
    # the shipped rows, each under the id of its mirror row
    rows = [[len(prefs) - 1 - i, p.name, *p.coord, p.pop_weight, p.edu_index] for i, p in enumerate(prefs)]
    with open(tmp_path / "geo.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([GEOGRAPHY_COLUMNS, *rows])
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


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _assert_rejects_prestige(cfg, out, capsys, where="config"):
    assert _run_cli(cfg, out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: bad {where}: school prestige must be finite")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_non_finite_config_prestige_is_config_error(tmp_path, capsys, value):
    # a NaN prestige made every applicant skip the school, with exit 0
    prestige = [value, 8.8, 9.6, 9.0, 7.8, 8.2, 7.5, 8.5]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "population": {**SMALL_CONFIG["population"], "prestige": prestige}}))
    _assert_rejects_prestige(cfg, tmp_path / "out", capsys)


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_non_finite_schools_csv_prestige_is_config_error(tmp_path, capsys, value):
    cfg = _schools_config(tmp_path, 8)
    schools = list(resolve_config(cfg).scenario.schools)
    save_schools([replace(schools[0], prestige=value), *schools[1:]], tmp_path / "schools8.csv")
    _assert_rejects_prestige(cfg, tmp_path / "out", capsys)


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
def test_non_finite_lockfile_prestige_is_config_error(tmp_path, capsys, value):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SMALL_CONFIG))
    config = resolve_config(good).as_dict()
    config["schools"][0][3] = value
    lock = tmp_path / "manifest.lock"
    lock.write_text(json.dumps({"locked": True, "config": config}))
    _assert_rejects_prestige(lock, tmp_path / "out", capsys, where="lockfile")


def _small_lock(tmp_path):
    """The config section of SMALL_CONFIG's lockfile."""
    good = tmp_path / "good.json"
    good.write_text(json.dumps(SMALL_CONFIG))
    return resolve_config(good).as_dict()


def _assert_rejected_at_resolution(cfg, out, capsys, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_cli(cfg, out) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith(f"error: config: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


_GEOGRAPHY_NUMBERS = ["x_km", "y_km", "weight", "edu_index"]


@pytest.mark.parametrize("value", NON_FINITE, ids=str)
@pytest.mark.parametrize("column", _GEOGRAPHY_NUMBERS)
@pytest.mark.parametrize("locked", [False, True], ids=["csv", "lockfile"])
def test_non_finite_geography_number_is_config_error(tmp_path, capsys, locked, column, value):
    # a NaN weight exited 1 with "Probabilities contain NaN", a NaN x failed
    # only in the estimate stage, and an infinite edu_index stopped the
    # simulation at an applicant's non-finite score
    k = _GEOGRAPHY_NUMBERS.index(column)
    if locked:
        config = _small_lock(tmp_path)
        config["geography"][3][1 + k] = value
        cfg = tmp_path / "manifest.lock"
        cfg.write_text(json.dumps({"locked": True, "config": config}))
    else:
        prefs = default_prefectures()
        numbers = [*prefs[3].coord, prefs[3].pop_weight, prefs[3].edu_index]
        numbers[k] = value
        prefs[3] = replace(prefs[3], coord=tuple(numbers[:2]), pop_weight=numbers[2], edu_index=numbers[3])
        save_geography(prefs, tmp_path / "geo.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "geography": "geo.csv"}))
    where = "lockfile" if locked else "config"
    message = f"bad {where}: prefecture Miyagi has a non-finite x_km, y_km, weight or edu_index"
    _assert_rejected_at_resolution(cfg, tmp_path / "out", capsys, message)


@pytest.mark.parametrize("locked", [False, True], ids=["csv", "lockfile"])
def test_geography_whose_distances_overflow_is_config_error(tmp_path, capsys, locked):
    # the distance matrix overflowed with a numpy warning, and the run then
    # blamed the population's base utility in prefecture 5
    if locked:
        config = _small_lock(tmp_path)
        config["geography"][5][1:3] = [1e200, 1e200]
        cfg = tmp_path / "manifest.lock"
        cfg.write_text(json.dumps({"locked": True, "config": config}))
    else:
        prefs = default_prefectures()
        prefs[5] = replace(prefs[5], coord=(1e200, 1e200))
        save_geography(prefs, tmp_path / "geo.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "geography": "geo.csv"}))
    where = "lockfile" if locked else "config"
    message = f"bad {where}: prefecture coordinates spread 1e+200 km in x and 1e+200 km in y, more than 1e+100 km\n"
    _assert_rejected_at_resolution(cfg, tmp_path / "out", capsys, message)


@pytest.mark.parametrize("locked", [False, True], ids=["csv", "lockfile"])
def test_prefecture_name_on_two_rows_is_config_error(tmp_path, capsys, locked):
    # schools took a host name's last row and the Tokyo band its first: school 1
    # sat at row 47, outside the band, while `Scenario.tokyo` flagged row 12
    second = ("Tokyo", 500.0, 500.0, 1.0, 0.5)
    message = "prefecture rows 12 and 47 are both named 'Tokyo'"
    with pytest.raises(DomainError, match=message):
        build_scenario(0.05, prefectures=build_prefectures([*_PREFECTURE_TABLE, second]))
    if locked:
        config = _small_lock(tmp_path)
        config["geography"].append(list(second))
        cfg = tmp_path / "manifest.lock"
        cfg.write_text(json.dumps({"locked": True, "config": config}))
    else:
        prefs = [*default_prefectures(), Prefecture(second[0], second[1:3], False, *second[3:])]
        save_geography(prefs, tmp_path / "geo.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "geography": "geo.csv"}))
    where = "lockfile" if locked else "config"
    _assert_rejected_at_resolution(cfg, tmp_path / "out", capsys, f"bad {where}: {message}\n")


@pytest.mark.parametrize("max_iter", [1001, 10**11])
@pytest.mark.parametrize("locked", [False, True], ids=["config", "lockfile"])
def test_max_iter_above_bound_is_config_error(tmp_path, capsys, locked, max_iter):
    # every iteration of a non-converged year runs, so max_iter is bounded
    # at resolution; 10**11 used to run only by jumping over an exact cycle
    assert BehaviorParams(max_iter=1000).max_iter == 1000
    if locked:
        config = _small_lock(tmp_path)
        config["behavior"]["max_iter"] = max_iter
        cfg = tmp_path / "manifest.lock"
        cfg.write_text(json.dumps({"locked": True, "config": config}))
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_CONFIG, "behavior": {"max_iter": max_iter}}))
    where = "lockfile" if locked else "config"
    message = f"bad {where}: max_iter must be in 1..1000, got {max_iter}\n"
    _assert_rejected_at_resolution(cfg, tmp_path / "out", capsys, message)


# an IndexError traceback (exit 1) from `Scenario.__post_init__`, or, with a
# grouped year in the schedule, a message about the groups
EMPTY_SCHOOLS_POPULATION = {"year_start": 1900, "year_end": 1903}


def test_header_only_schools_csv_is_config_error(tmp_path, capsys):
    (tmp_path / "s.csv").write_text(",".join(SCHOOL_COLUMNS) + "\r\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scale": 0.05, "schools": "s.csv", "population": EMPTY_SCHOOLS_POPULATION}))
    _assert_rejected_at_resolution(cfg, tmp_path / "out", capsys, "bad config: empty school table\n")


def test_lockfile_without_schools_is_config_error(tmp_path, capsys):
    config = _small_lock(tmp_path)
    config["schools"], config["population"]["prestige"] = [], []
    lock = tmp_path / "manifest.lock"
    lock.write_text(json.dumps({"locked": True, "config": config}))
    _assert_rejected_at_resolution(lock, tmp_path / "out", capsys, "bad lockfile: empty school table\n")


def test_build_scenario_rejects_empty_schools():
    with pytest.raises(DomainError, match="^empty school table$"):
        build_scenario(0.05, population=EMPTY_SCHOOLS_POPULATION, schools=[])


def _set(k, value):
    def edit(row):
        row[k] = value
        return row

    return edit


@pytest.mark.parametrize(
    "table, edit",
    [
        ("schools", _set(2, 13.7)),
        ("schools", _set(2, "13")),
        ("schools", _set(1, True)),
        ("schools", _set(0, 1.0)),
        ("geography", _set(0, 5)),
        ("schools", lambda row: row + [0]),
        ("geography", lambda row: row + [0.0]),
        ("schools", lambda row: row[:3]),
    ],
    ids=[
        "capacity-fraction",
        "capacity-string",
        "prefecture-id-bool",
        "school-id-float",
        "name-number",
        "school-row-long",
        "geography-row-long",
        "school-row-short",
    ],
)
def test_lockfile_row_of_wrong_type_or_length_is_config_error(tmp_path, capsys, table, edit):
    # the first six ran: with capacity 13, school 1 hosted by prefecture 1, a
    # prefecture named 5, and the extra entry ignored
    config = _small_lock(tmp_path)
    config[table][0] = edit(config[table][0])
    lock = tmp_path / "manifest.lock"
    lock.write_text(json.dumps({"locked": True, "config": config}))
    _assert_rejected_at_resolution(lock, tmp_path / "out", capsys, f"bad lockfile: {table} row 0 must be [")


def test_schools_csv_row_of_wrong_length_is_config_error(tmp_path, capsys):
    # a value past the header's columns was ignored
    cfg = _schools_config(tmp_path, 8)
    path = tmp_path / "schools8.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([lines[0], lines[1].rstrip("\r\n") + ",7\r\n", *lines[2:]]))
    _assert_rejected_at_resolution(cfg, tmp_path / "out", capsys, f"{path}, line 2: every row must have 4 fields")


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
    from meritmatch.core import default_prefectures

    prefs = default_prefectures()
    # give Aomori the same coordinate as Tokyo; names and weights stay valid
    tokyo = next(p for p in prefs if p.name == "Tokyo")
    prefs = [replace(p, coord=tokyo.coord) if p.name == "Aomori" else p for p in prefs]
    geo = tmp_path / "geo.csv"
    save_geography(prefs, geo)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geography": str(geo)}))
    code = _run_cli(cfg, tmp_path / "out")
    assert code == 4
    assert capsys.readouterr().err == "error: invariant: duplicate_coord: prefectures 1 and 12 share a coordinate\n"


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_out_dir_ignores_environment(config_path, tmp_path, monkeypatch):
    # a run's inputs are its flags and its config: the variable that once overrode --out is ignored
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("MERITMATCH_OUT", str(env_dir))
    assert _run_cli(config_path, tmp_path / "out", ("--stages", "simulate")) == 0
    assert (tmp_path / "out" / "year_outcomes.csv").exists()
    assert not env_dir.exists()


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_jobs_parallel_matches_serial(config_path, tmp_path):
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert _run_cli(config_path, out1, ("--seeds", "2", "--jobs", "1")) == 0
    assert _run_cli(config_path, out2, ("--seeds", "2", "--jobs", "2")) == 0
    assert _read_all(out1) == _read_all(out2)


def test_jobs_default_to_usable_cpus(monkeypatch):
    assert RunManifest().jobs == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert RunManifest().jobs == 1


class _RecordingPool:
    """A stand-in for ProcessPoolExecutor that records the worker count it is
    asked for and runs each task in this process, so no process starts."""

    workers: list = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@pytest.mark.parametrize(
    "extra, cpus, workers",
    [
        (("--jobs", "64", "--seeds", "2"), 4, [2]),
        (("--jobs", "500", "--seeds", "3"), 2, [2]),
        (("--seeds", "2"), 4, [2]),
        (("--seeds", "2"), 1, []),
        (("--jobs", "1", "--seeds", "2"), 4, []),
        (("--jobs", "64"), 4, []),
    ],
    ids=["capped-by-seeds", "capped-by-cpus", "default", "default-one-cpu", "jobs-1", "one-seed"],
)
def test_pool_gets_at_most_one_worker_per_seed(config_path, tmp_path, monkeypatch, extra, cpus, workers):
    # the pools asked for with `cpus` usable CPUs; a fork pool starts every
    # worker at its first task, so more would only fork idle interpreters.
    # --jobs 1 and a one-seed run build none
    monkeypatch.setattr(_RecordingPool, "workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert _run_cli(config_path, tmp_path / "out", (*extra, "--stages", "simulate")) == 0
    assert _RecordingPool.workers == workers


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_diff_regimes_cli(config_path, tmp_path, capsys):
    out = tmp_path / "dr"
    assert _run_cli(config_path, out, ("--stages", "simulate")) == 0
    capsys.readouterr()  # drop the run command's output
    assert main(["diff-regimes", str(out / "year_outcomes.csv")]) == 0
    lines = capsys.readouterr().out.split("\r\n")
    assert lines.pop() == ""  # every line ends in CRLF, the last one too
    assert lines[0] == "metric,mean_centralized,mean_decentralized,difference,trend_coefficient,trend_p_value"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [
        "share_first_choice_school1",
        "mean_enrollment_distance_km",
        "tokyo_area_entrant_share",
    ]
    for r in rows:
        assert len(r) == 6
        assert all(field == repr(float(field)) for field in r[1:]), r


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


def test_diff_regimes_rejects_a_year_under_two_regimes(tmp_path, capsys):
    from meritmatch.metrics import YEAR_OUTCOME_COLUMNS

    # two seeds that disagree on 1903's regime: the series has no regime to give it
    path = tmp_path / "year_outcomes.csv"
    regimes = ["decentralized"] * 2 + ["centralized"] * 6 + ["decentralized"] * 2
    rows = [f"{s},{1900 + k},{regime},0.3,{200 + k},0.17,100,10" for s in (0, 1) for k, regime in enumerate(regimes)]
    rows[13] = rows[13].replace("centralized", "decentralized_unified_exam")
    path.write_text("\r\n".join([",".join(YEAR_OUTCOME_COLUMNS), *rows]) + "\r\n")
    assert main(["diff-regimes", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: artifact: year 1903 is under more than one regime: centralized, decentralized_unified_exam\n"
    )


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_diff_regimes_rejects_seeds_with_different_years(config_path, tmp_path, capsys):
    # averaging within year would mix one seed's 1900 with two seeds' later years
    out = tmp_path / "out"
    assert _run_cli(config_path, out, ("--seeds", "2", "--stages", "simulate")) == 0
    path = out / "year_outcomes.csv"
    path.write_text("".join(l for l in path.read_text().splitlines(True) if not l.startswith("1,1900,")))
    capsys.readouterr()  # drop the run command's output
    assert main(["diff-regimes", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: artifact: seed 1 and seed 0 differ in years [1900]\n"


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@pytest.mark.parametrize("column, value", [(3, "nan"), (4, "inf"), (5, "-inf")])
def test_non_finite_statistic_is_artifact_error(config_path, tmp_path, capsys, column, value):
    # both readers of year_outcomes.csv reject it before writing anything
    from meritmatch.metrics import YEAR_OUTCOME_COLUMNS

    out = tmp_path / "out"
    assert _run_cli(config_path, out, ("--seeds", "2", "--stages", "simulate,metrics")) == 0
    path = out / "year_outcomes.csv"
    lines = path.read_text().split("\n")
    fields = lines[4].split(",")  # seed 0, 1903
    fields[column] = value
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines))
    capsys.readouterr()  # drop the run command's output
    assert _run_cli(config_path, out, ("--seeds", "2", "--stages", "estimate")) == 2
    assert main(["diff-regimes", str(path)]) == 2
    assert not (out / "regressions.csv").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    name = YEAR_OUTCOME_COLUMNS[column]
    assert captured.err == f"error: artifact: {path}, line 5: {name} must be finite, got {float(value)!r}\n" * 2


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@pytest.mark.parametrize(
    "column, value, message",
    [
        (3, "1e308", "share_first_choice_school1 must be in 0..1, got 1e+308"),
        (4, "1e308", "mean_enrollment_distance_km must be in 0..1e+100, got 1e+308"),
        (5, "1.5", "tokyo_area_entrant_share must be in 0..1, got 1.5"),
        (4, "-1", "mean_enrollment_distance_km must be in 0..1e+100, got -1.0"),
        (6, "-1", "entrants_total and unassigned_total must be in 0..10000000"),
    ],
    ids=["share 1e308", "distance 1e308", "share above 1", "negative distance", "negative count"],
)
def test_statistic_outside_its_range_is_artifact_error(config_path, tmp_path, capsys, column, value, message):
    # 1e308 overflowed the trend fit with numpy warnings; the others were estimated
    out = tmp_path / "out"
    assert _run_cli(config_path, out, ("--seeds", "2", "--stages", "simulate,metrics")) == 0
    path = out / "year_outcomes.csv"
    lines = path.read_text().split("\n")
    fields = lines[4].split(",")  # seed 0, 1903
    fields[column] = value
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines))
    capsys.readouterr()  # drop the run command's output
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_cli(config_path, out, ("--seeds", "2", "--stages", "estimate")) == 2
        assert main(["diff-regimes", str(path)]) == 2
    assert [str(w.message) for w in caught] == []
    assert not (out / "regressions.csv").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: artifact: {path}, line 5: {message}\n" * 2


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@pytest.mark.parametrize(
    "corrupt",
    [
        lambda data: b"\xff\xfe" + data,
        lambda data: data + b"\xff",
        lambda data: data + b"0," + b"9" * 131073 + b"\r\n",
    ],
    ids=["leading byte-order mark", "trailing 0xff", "over-long field"],
)
def test_unreadable_outcome_file_is_artifact_error(config_path, tmp_path, capsys, corrupt):
    # bytes that do not decode and a field past the csv module's limit
    out = tmp_path / "out"
    assert _run_cli(config_path, out, ("--seeds", "2", "--stages", "simulate,metrics")) == 0
    path = out / "year_outcomes.csv"
    path.write_bytes(corrupt(path.read_bytes()))
    capsys.readouterr()  # drop the run command's output
    estimate = ["run", "--config", str(config_path), "--out", str(out), "--seeds", "2", "--stages", "estimate"]
    for argv in (estimate, ["diff-regimes", str(path)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: artifact: cannot read outcome file {path}: ")
        assert captured.err.count("\n") == 1
    assert not (out / "regressions.csv").exists()


def test_trend_metric_missing_in_every_year_is_named(tmp_path, capsys):
    # nobody applies, so every statistic is missing; this failed inside Newey-West
    # ("lag 3 must be >= 0 and smaller than the series length 0")
    population = {**SMALL_CONFIG["population"], "outside_option_mean": 100.0}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "population": population}))
    assert _run_cli(cfg, tmp_path / "out", ("--seed", "3")) == 2
    err = capsys.readouterr().err
    assert err == "error: config: seed 3: trend metric share_first_choice_school1 is missing in every year\n"


def test_diff_regimes_metric_missing_in_every_year(tmp_path, capsys):
    from meritmatch.metrics import YEAR_OUTCOME_COLUMNS

    path = tmp_path / "year_outcomes.csv"
    regimes = ["decentralized"] * 2 + ["centralized"] * 6 + ["decentralized"] * 2
    rows = [f"0,{1900 + k},{regime},0.3,,0.17,100,10" for k, regime in enumerate(regimes)]
    path.write_text("\r\n".join([",".join(YEAR_OUTCOME_COLUMNS), *rows]) + "\r\n")
    assert main(["diff-regimes", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: artifact: trend metric mean_enrollment_distance_km is missing in every year\n"


def test_diff_regimes_trend_error_names_the_metric(tmp_path, capsys):
    from meritmatch.metrics import YEAR_OUTCOME_COLUMNS

    # the metric is missing in every centralized year only, so what is left of
    # the series has no centralized year
    path = tmp_path / "year_outcomes.csv"
    regimes = ["decentralized"] * 2 + ["centralized"] * 6 + ["decentralized"] * 4
    rows = [
        f"0,{1900 + k},{regime},0.3,{'' if regime == 'centralized' else 200 + k},0.17,100,10"
        for k, regime in enumerate(regimes)
    ]
    path.write_text("\r\n".join([",".join(YEAR_OUTCOME_COLUMNS), *rows]) + "\r\n")
    assert main(["diff-regimes", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: artifact: trend metric mean_enrollment_distance_km: no within-variation in regressor(s): centralized\n"
    )


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_artifact_headers_are_stable(config_path, tmp_path):
    from meritmatch.metrics import PANEL_COLUMNS

    out = tmp_path / "hdr"
    assert _run_cli(config_path, out) == 0
    def header(name):
        return (out / name).read_text().splitlines()[0]

    # literal: the year outcome and regression headers are derived from their row dataclasses
    assert header("year_outcomes.csv") == (
        "seed,year,regime,share_first_choice_school1,mean_enrollment_distance_km,"
        "tokyo_area_entrant_share,entrants_total,unassigned_total"
    )
    assert header("panel_all.csv") == ",".join(PANEL_COLUMNS)
    for s in range(1, 9):
        assert header(f"panel_school_{s}.csv") == ",".join(PANEL_COLUMNS)
    assert header("regressions.csv") == "spec_id,seed,coefficient,estimate,std_error,t_stat,p_value,n_obs,n_clusters"


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
    with pytest.raises(ConfigError, match="metrics stage needs simulate"):
        RunManifest(stages=("metrics",))
    with pytest.raises(ConfigError, match="estimate needs the metrics stage"):
        RunManifest(stages=("simulate", "estimate"))


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

    # a failed run into a fresh directory leaves none
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
    assert not out.exists()  # removed: the run created it

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


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_simulating_run_leaves_no_artifact_of_an_earlier_run(config_path, tmp_path):
    # regressions.csv of seeds 0-1 stayed beside the panels and outcomes of seeds 5-6
    out = tmp_path / "out"
    assert _run_cli(config_path, out, ("--seeds", "2")) == 0
    (out / "notes.tmp").write_text("kept\n")
    later = ("--seed", "5", "--seeds", "2", "--stages")
    assert _run_cli(config_path, out, (*later, "simulate,metrics")) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*ARTIFACTS[:-1], "notes.tmp"])
    assert _run_cli(config_path, out, (*later, "estimate")) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*ARTIFACTS, "notes.tmp"])
    assert _run_cli(config_path, out, (*later, "simulate")) == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.lock", "notes.tmp", "year_outcomes.csv"]


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_schools_in_reverse_id_order_give_the_same_artifacts(tmp_path):
    # every layer reads the schools by id, not by their place in the file
    schools = build_scenario(0.05).schools
    outs = {}
    for name, table in (("forward", schools), ("reverse", schools[::-1])):
        save_schools(table, tmp_path / f"{name}.csv")
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"scale": 0.05, "schools": f"{name}.csv"}))
        assert _run_cli(cfg, tmp_path / name, ("--seeds", "3")) == 0
        outs[name] = _read_all(tmp_path / name)
    locks = [json.loads(outs[name].pop("manifest.lock")) for name in ("forward", "reverse")]
    assert outs["forward"] == outs["reverse"]
    # the lock keeps the file's order of the schools table
    assert locks[1]["config"]["schools"] == locks[0]["config"]["schools"][::-1]


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
    """A corruption setting field `index` of the first data row to `value`,
    or to `value` of the field if it is callable."""

    def corrupt(lines):
        fields = lines[1].rstrip("\n").split(",")
        fields[index] = value(fields[index]) if callable(value) else value
        return [lines[0], ",".join(fields) + "\n"] + lines[2:]

    return corrupt


def _rows_where(column, key, edits):
    """A corruption of every data row whose field `column` is `key`: field i
    is set to `edits[i]`, or to `edits[i]` of the row's fields if callable."""

    def corrupt(lines):
        rows = [line.rstrip("\n").split(",") for line in lines[1:]]
        for fields in (f for f in rows if f[column] == key):
            old = list(fields)
            for i, value in edits.items():
                fields[i] = value(old) if callable(value) else value
        return [lines[0], *(",".join(fields) + "\n" for fields in rows)]

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
        ("panel_school_3.csv", lambda lines: lines[:2] + lines[236:237] + lines[2:236] + lines[237:]),  # a seed-1 row
        ("year_outcomes.csv", lambda lines: lines[:1] + lines[6:] + lines[1:6]),  # seed 1's rows before seed 0's
        ("panel_school_3.csv", _rows_where(1, "26", {6: "1"})),  # Osaka is 43 km from school 3, in Kyoto
        ("panel_school_3.csv", _rows_where(1, "0", {7: "1"})),  # Hokkaido
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
        "panel seed rows interleaved",
        "outcome seed blocks swapped",
        "school panel located_in differs",
        "school panel within_100km differs",
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


PANEL_FILES = ["panel_all.csv"] + [f"panel_school_{s}.csv" for s in range(1, 9)]
_COUNT_RULE = "must be a whole number in 0..10000000"


def _rebuilt(column, seed=0):
    return (
        f"column {column} differs, for seed {seed}, from the panels rebuilt from the school panels' entrants"
        " and panel_all.csv's graduates"
    )


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@pytest.mark.parametrize(
    "names, corrupt, message",
    [
        *(
            (PANEL_FILES, _first_row_field_to(10, v), f"middle_school_grads {_COUNT_RULE}")
            for v in ("nan", "inf", "-inf", "1e308", "-14.0", "14.5")
        ),
        (PANEL_FILES, _first_row_field_to(4, "-3"), f"entrants {_COUNT_RULE}"),
        (["panel_all.csv"], _first_row_field_to(4, lambda old: str(int(old) + 1)), _rebuilt("entrants")),
        (PANEL_FILES, _rows_where(2, "1901", {5: "1"}), _rebuilt("centralized")),
        (PANEL_FILES, _rows_where(1, "13", {8: lambda f: f[9], 9: lambda f: f[8]}), _rebuilt("tokyo")),  # Kanagawa
    ],
    ids=[
        "nan",
        "inf",
        "-inf",
        "1e308",
        "negative",
        "fractional",
        "negative entrants",
        "entrants not the sum",
        "decentralized year centralized",
        "tokyo and near_tokyo swapped",
    ],
)
def test_estimate_rejects_panel_counts_no_run_writes(config_path, tmp_path, capsys, names, corrupt, message):
    # the same edit of every panel file passes the shared-column check; without
    # the count and rebuild checks a NaN or infinite count was blamed on
    # collinear regressors (a config error), after a numpy warning for the
    # infinities and 1e308, and the other edits were estimated
    out = tmp_path / "out"
    assert _run_cli(config_path, out, ("--seeds", "2", "--stages", "simulate,metrics")) == 0
    for name in names:
        path = out / name
        path.write_text("".join(corrupt(path.read_text().splitlines(keepends=True))))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _run_cli(config_path, out, ("--seeds", "2", "--stages", "estimate")) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"error: artifact: {out / 'panel_all.csv'}: {message}\n"
    assert not (out / "regressions.csv").exists()


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
                    assert not col.flags.writeable  # its own column, which `build_panel` marks read-only
                else:
                    assert col is panel[None][c]
        for c in ("year", "centralized", "middle_school_grads"):
            with pytest.raises(ValueError, match="read-only"):
                panel[3][c][0] = 1


def _fresh_python(code, timeout=120):
    """stdout of `code` run in a new interpreter that imports meritmatch from src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats alone took about half of a cold start
    code = "import sys, meritmatch.cli; print('scipy.stats' in sys.modules)"
    assert _fresh_python(code).strip() == "False"


def test_no_run_loads_scipy_linalg(tmp_path):
    # scipy.linalg's LAPACK wrappers cost ~6.4 MB of RSS in every process that imports it
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scale": 0.05}))
    out = tmp_path / "out"
    code = (
        "import sys, meritmatch.cli\n"
        "after_import = 'scipy.linalg' in sys.modules\n"
        "from meritmatch.config import RunManifest\n"
        "from meritmatch.pipeline import run\n"
        f"run(RunManifest(config_path={str(cfg)!r}, out_dir={str(out)!r}))\n"
        "print(after_import, 'scipy.linalg' in sys.modules)\n"
    )
    assert _fresh_python(code, timeout=300).split() == ["False", "False"]
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)


def test_cli_import_loads_no_scipy():
    # scipy.special cost ~0.3 s and ~21 MB of every process that imported it;
    # nor is the normal CDF table built at import
    code = "import sys, meritmatch.cli; print('scipy' in sys.modules, meritmatch.strategy._phi_table.cache_info().currsize)"
    assert _fresh_python(code).split() == ["False", "0"]


def test_cli_import_loads_no_process_pool():
    # concurrent.futures, and the logging it imports, load only for a pool
    code = "import sys, meritmatch.cli; print('concurrent.futures' in sys.modules, 'logging' in sys.modules)"
    assert _fresh_python(code).split() == ["False", "False"]


@pytest.mark.parametrize(
    "noise, jobs", [(14.0, 1), (14.0, 2), (0.0, 2)], ids=["noisy-jobs1", "noisy-jobs2", "noiseless-jobs2"]
)
def test_simulate_loads_no_scipy(tmp_path, noise, jobs):
    # a best response evaluates the normal CDF without scipy, in the calling
    # process and in pool workers alike; the calling process builds the CDF
    # table only when it computes noisy best responses itself
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scale": 0.05, "behavior": {"score_noise_sd": noise}}))
    code = (
        "import sys, warnings\n"
        "warnings.simplefilter('ignore')\n"
        "from meritmatch.config import RunManifest\n"
        "from meritmatch.pipeline import run\n"
        f"run(RunManifest(config_path={str(cfg)!r}, out_dir={str(tmp_path / 'out')!r}, seeds={jobs}, jobs={jobs},"
        " stages=('simulate',)))\n"
        "print('scipy' in sys.modules, sys.modules['meritmatch.strategy']._phi_table.cache_info().currsize)\n"
    )
    assert _fresh_python(code, timeout=300).split() == ["False", "1" if noise and jobs == 1 else "0"]
    assert (tmp_path / "out" / "year_outcomes.csv").exists()


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_estimate_only_run_loads_no_scipy(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"scale": 0.05}))
    out = tmp_path / "out"
    run(RunManifest(config_path=str(cfg), out_dir=str(out), stages=("simulate", "metrics")))
    code = (
        "import sys\n"
        "from meritmatch.config import RunManifest\n"
        "from meritmatch.pipeline import run\n"
        f"run(RunManifest(config_path={str(cfg)!r}, out_dir={str(out)!r}, stages=('estimate',)))\n"
        "print('scipy' in sys.modules, sys.modules['meritmatch.strategy']._phi_table.cache_info().currsize)\n"
    )
    assert _fresh_python(code, timeout=300).split() == ["False", "0"]
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)

"""Every input fails with its documented exit code.

Three property tests, each calling `cli.main` in process. The first covers the
numeric input surface of `meritmatch run`: each example sets one population
or behavior key, `capacities[0]` or `prestige[0]` to a value of its type, an
extreme value or a non-finite one, draws `--seed` and `--seeds` up to 2^64,
and runs `--stages simulate` with `--jobs 1`, on `{"scale": 0.05}` over
1900-1901. Its properties are those of the `cli` module docstring: exit 0,
2, 3 or 4; one `error: <category>: ` line on failure; `--out` as it was
found after a failure; no warning but the cutoff-iteration one, which
reports a cycling equilibrium rather than a defect of the input checks.

The second, with the same properties, covers the tables: each example makes
one edit of the geography, school or group table of `{"scale": 0.05}` over
1900-1903 (a field set to an extreme, non-finite or another row's value, a
prefecture renamed, a row dropped or repeated, a table emptied) and runs it
from geography and school CSVs that a config names, or from a lockfile.

The third covers the artifacts the estimate stage reads back: each example
corrupts one field of one row of year_outcomes.csv or of one panel file, or
`manifest.lock`'s `seed`, `seeds` or `version_hash`, in a copy of one 2-seed
`{"scale": 0.05}` simulate,metrics run, and runs `run --stages estimate` and
`diff-regimes` on it. Each exits 0, 2 or 3, a failure with one
`error: <category>: ` line and no regressions.csv, without a warning; a run
that succeeds writes only finite numbers.
"""

import contextlib
import copy
import csv
import io
import json
import math
import os
import shutil
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritmatch.cli import main
from meritmatch.config import GEOGRAPHY_COLUMNS, SCHOOL_COLUMNS, ResolvedConfig, build_scenario
from meritmatch.metrics import read_year_outcomes_csv
from meritmatch.popgen import DEFAULT_GROUPS, DEFAULT_PRESTIGE
from meritmatch.strategy import BehaviorParams

EXTREMES = [1e308, -1e308, 1e-308, 0, -1, 10**30, 2**63]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]

# key -> values of its type that run in well under a second at scale 0.05
# (larger cohorts, capacities and schedules are left to the extremes)
TYPED = {
    "population.applicants_per_year": st.integers(1, 2000),
    "population.score_mean_base": st.floats(-100, 100),
    "population.score_sd": st.floats(0, 50),
    "population.urban_score_shift": st.floats(-20, 20),
    "population.distance_cost": st.floats(0, 0.1),
    "population.preference_noise_sd": st.floats(0, 10),
    "population.outside_option_mean": st.floats(-10, 20),
    "population.outside_option_sd": st.floats(0, 5),
    "population.year_start": st.integers(1899, 1902),
    "population.year_end": st.integers(1899, 1902),
    "population.applicant_growth_per_year": st.floats(-1, 3),
    "behavior.score_noise_sd": st.floats(0, 50),
    "behavior.max_iter": st.integers(1, 200),
    "behavior.tol": st.floats(0.01, 5),
    "behavior.damping": st.floats(0.05, 1),
    "capacities[0]": st.integers(-1, 600),
    "prestige[0]": st.floats(-20, 20),
}

# half the counts are valid and small; the others are below 1 or above the bound of 10^6
SEEDS = st.booleans().flatmap(lambda ok: st.integers(1, 2) if ok else st.integers(-1, 0) | st.integers(10**6 + 1, 2**64))


def _config(key: str, value) -> dict:
    population = {"year_start": 1900, "year_end": 1901}
    config = {"scale": 0.05, "population": population}
    if key == "capacities[0]":
        config["capacities"] = [value] + [13] * 7  # 13 is the default 251 seats at scale 0.05
    elif key == "prestige[0]":
        population["prestige"] = [value, *DEFAULT_PRESTIGE[1:]]
    else:
        section, name = key.split(".")
        config.setdefault(section, {})[name] = value
    return config


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(TYPED)).flatmap(
        lambda key: st.tuples(st.just(key), st.one_of(TYPED[key], st.sampled_from(EXTREMES + NON_FINITE)))
    ),
    st.integers(-1, 2**64),
    SEEDS,
    st.booleans(),
)
def test_every_numeric_input_exits_with_a_documented_code(setting, seed, seeds, out_exists):
    key, value = setting
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(_config(key, value), fh)
        _assert_documented_exit(["--config", cfg, "--seed", str(seed), "--seeds", str(seeds)], tmp, out_exists)


def _assert_documented_exit(args, tmp, out_exists):
    """Run `run` with `args`, `--stages simulate --jobs 1` and `--out` a
    directory in `tmp`, which holds a file of the user's if `out_exists`, in
    process, and check the properties of the module docstring."""
    out = os.path.join(tmp, "out")
    if out_exists:
        os.mkdir(out)
        with open(os.path.join(out, "keep.txt"), "w") as fh:
            fh.write("a file of the user's")
    before = sorted(os.listdir(out)) if out_exists else None
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", *args, "--out", out, "--stages", "simulate", "--jobs", "1"])
    assert code in (0, 2, 3, 4)
    assert [str(w.message) for w in caught if not str(w.message).startswith("cutoff iteration")] == []
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
        read_year_outcomes_csv(os.path.join(out, "year_outcomes.csv"))  # every statistic finite
        return
    category = {2: ("config", "artifact"), 3: ("io",), 4: ("invariant",)}[code]
    assert err.count("\n") == 1 and err.startswith(tuple(f"error: {c}: " for c in category)), err
    assert (sorted(os.listdir(out)) if os.path.exists(out) else None) == before


# the tables of the resolved `{"scale": 0.05}` scenario over 1900-1903, as a
# lockfile holds them: geography rows [name, x_km, y_km, weight, edu_index],
# school rows [id, prefecture_id, capacity, prestige], and the two groups
TABLES_POPULATION = {"year_start": 1900, "year_end": 1903}
TABLES = ResolvedConfig(build_scenario(0.05, TABLES_POPULATION), BehaviorParams(), DEFAULT_GROUPS).as_dict()
# the fields of a row an edit may set, and the values it sets them to; None
# stands for the same field of another row
EDITED_FIELDS = {"geography": range(1, 5), "schools": range(4), "groups": range(4)}
EDIT_VALUES = {
    "geography": [1e308, -1e308, 0, -1, float("nan"), None],
    "schools": [*EXTREMES, *NON_FINITE, None],
    "groups": [*EXTREMES, *NON_FINITE, None],
}
EDIT_KINDS = {
    "geography": ["set", "rename", "drop", "repeat", "empty"],
    "schools": ["set", "drop", "repeat", "empty"],
    "groups": ["set", "drop", "repeat", "empty"],
}


@st.composite
def table_edits(draw):
    """A copy of `TABLES` with one edit: a field of a row set to an extreme
    value or another row's, a prefecture renamed to Tokyo or to another's
    name, a row dropped or repeated, or a table emptied."""
    table = draw(st.sampled_from(sorted(EDIT_KINDS)))
    kind = draw(st.sampled_from(EDIT_KINDS[table]))
    tables = copy.deepcopy({key: TABLES[key] for key in EDIT_KINDS})
    rows = tables[table]
    row, other = (draw(st.integers(0, len(rows) - 1)) for _ in range(2))
    if kind == "set":
        column = draw(st.sampled_from(EDITED_FIELDS[table]))
        value = draw(st.sampled_from(EDIT_VALUES[table]))
        rows[row][column] = rows[other][column] if value is None else value
    elif kind == "rename":
        rows[row][0] = draw(st.sampled_from(["Tokyo", rows[other][0]]))
    elif kind == "drop":
        del rows[row]
    elif kind == "repeat":
        rows.insert(row, copy.deepcopy(rows[row]))
    else:
        rows.clear()
    return tables


def _write_rows(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@settings(max_examples=200, deadline=None)
@given(table_edits(), st.booleans(), st.booleans())
def test_every_table_edit_exits_with_a_documented_code(tables, locked, out_exists):
    # the tables go into geography and school CSVs that a config names, or
    # into a lockfile, whose population prestige follows the schools' rows
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        if locked:
            population = {**TABLES["population"], "prestige": [row[3] for row in tables["schools"]]}
            config = {**TABLES, **tables, "population": population}
            document = {"locked": True, "config": config}
        else:
            geography = [[k, *row] for k, row in enumerate(tables["geography"])]
            _write_rows(os.path.join(tmp, "geo.csv"), GEOGRAPHY_COLUMNS, geography)
            _write_rows(os.path.join(tmp, "schools.csv"), SCHOOL_COLUMNS, tables["schools"])
            document = {"scale": 0.05, "population": TABLES_POPULATION, "groups": tables["groups"]}
            document.update(geography="geo.csv", schools="schools.csv")
        with open(cfg, "w") as fh:
            json.dump(document, fh)
        _assert_documented_exit(["--config", cfg], tmp, out_exists)


PANEL_FILES = ["panel_all.csv"] + [f"panel_school_{s}.csv" for s in range(1, 9)]
# the values a corrupted field takes; None stands for the same field of another row (or lockfile key)
CORRUPT_VALUES = ["", "nan", "inf", "-1", "1e308", str(2**63), "text", None]
LOCK_KEYS = ("seed", "seeds", "version_hash")


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """The config and the output directory of a 2-seed `{"scale": 0.05}`
    simulate,metrics run, and the number of data rows of each CSV in it."""
    root = tmp_path_factory.mktemp("simulated")
    cfg, out = root / "cfg.json", root / "out"
    cfg.write_text(json.dumps({"scale": 0.05}))
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        assert main(["run", "--config", str(cfg), "--out", str(out), "--seeds", "2", "--stages", "simulate,metrics"]) == 0
    assert all(str(w.message).startswith("cutoff iteration") for w in caught)
    sizes = {name: (out / name).read_bytes().count(b"\r\n") - 1 for name in ["year_outcomes.csv", *PANEL_FILES]}
    return cfg, out, sizes


def _corrupt_csv(path, row, column, other, value):
    lines = path.read_bytes().split(b"\r\n")  # CRLF-terminated, header first
    fields = [line.split(b",") for line in lines]
    fields[1 + row][column] = fields[1 + other][column] if value is None else value.encode()
    path.write_bytes(b"\r\n".join(b",".join(f) for f in fields))


def _corrupt_lock(path, key, value):
    lock = json.loads(path.read_text())
    parsed = {"": "", "nan": math.nan, "inf": math.inf, "text": "text"}
    if value is None:
        lock[key] = lock[LOCK_KEYS[(LOCK_KEYS.index(key) + 1) % len(LOCK_KEYS)]]
    else:
        lock[key] = parsed[value] if value in parsed else json.loads(value)
    path.write_text(json.dumps(lock))


def _finite_numbers(text):
    """Every field of the CSV `text` that parses as a number is finite."""
    for row in csv.reader(io.StringIO(text)):
        for field in row:
            try:
                value = float(field)
            except ValueError:
                continue
            assert math.isfinite(value), row


@settings(max_examples=200, deadline=None)
@given(
    target=st.sampled_from(["year_outcomes.csv", *PANEL_FILES, "manifest.lock"]),
    row=st.integers(0, 10**6),
    other=st.integers(0, 10**6),
    column=st.integers(0, 10**6),
    value=st.sampled_from(CORRUPT_VALUES),
)
def test_every_corrupted_artifact_exits_with_a_documented_code(simulated, target, row, other, column, value):
    cfg, simulated_out, sizes = simulated
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        shutil.copytree(simulated_out, out)
        path = Path(out) / target
        if target == "manifest.lock":
            _corrupt_lock(path, LOCK_KEYS[column % len(LOCK_KEYS)], value)
        else:
            n_columns = path.read_bytes().split(b"\r\n", 1)[0].count(b",") + 1
            _corrupt_csv(path, row % sizes[target], column % n_columns, other % sizes[target], value)
        for argv in (
            ["run", "--config", str(cfg), "--out", out, "--seeds", "2", "--stages", "estimate"],
            ["diff-regimes", os.path.join(out, "year_outcomes.csv")],
        ):
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                with contextlib.redirect_stdout(stdout):
                    code = main(argv)
            assert [str(w.message) for w in caught] == [], argv
            assert code in (0, 2, 3), argv
            err = stderr.getvalue()
            if code == 0:
                assert err == ""
                written = stdout.getvalue() if argv[0] == "diff-regimes" else (Path(out) / "regressions.csv").read_text()
                _finite_numbers(written)
                continue
            category = {2: ("config", "artifact"), 3: ("io",)}[code]
            assert err.count("\n") == 1 and err.startswith(tuple(f"error: {c}: " for c in category)), err
            if argv[0] == "run":
                assert not os.path.exists(os.path.join(out, "regressions.csv"))

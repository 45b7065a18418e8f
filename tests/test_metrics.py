import csv
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritmatch.config import build_scenario
from meritmatch.core import DomainError, Regime, RegimeKind, SeededRng, build_prefectures, default_prefectures
from meritmatch.mechanisms import Applications, PreferenceList, run_decentralized, run_meritocratic_boston

from conftest import assignment_of, cohort_of, mk_applicant
from oracles import csv_writer_panel_csv, panel_to_columns, row_build_panel, walked_year_counts, walked_year_outcome
from meritmatch.metrics import (
    PANEL_COLUMNS,
    PANEL_FLAGS,
    YEAR_OUTCOME_COLUMNS,
    YearOutcome,
    build_panel,
    read_panel_csv,
    read_year_outcomes_csv,
    write_panel_csv,
    write_year_outcomes_csv,
    year_counts,
    year_outcome,
)
from meritmatch.popgen import generate_applicants
from meritmatch.pipeline import simulate_seed
from meritmatch.strategy import BehaviorParams, single_applications, submit_applications


@pytest.fixture(scope="module")
def small_run():
    sc = build_scenario(0.05, {"year_start": 1900, "year_end": 1903})
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = simulate_seed(sc, BehaviorParams(), seed=0)
    return sc, res


def test_year_outcome_everyone_unassigned():
    sc = build_scenario(0.01)
    apps = Applications.of([PreferenceList(0, (1,)), PreferenceList(1, (2,))])
    assignment = assignment_of(unassigned=[0, 1])
    cohort = cohort_of([mk_applicant(0, 50.0, 8, birth=12), mk_applicant(1, 50.0, 8, birth=0)])
    out = year_outcome(apps, assignment, sc, cohort, 1900, RegimeKind.DECENTRALIZED)
    assert out.share_first_choice_school1 == 0.5
    assert out.mean_enrollment_distance_km is None
    assert out.tokyo_area_entrant_share is None
    assert out.entrants_total == 0
    assert out.unassigned_total == 2


def test_year_outcome_single_tokyo_admit():
    sc = build_scenario(0.01)
    tokyo = next(i for i, p in enumerate(sc.prefectures) if p.name == "Tokyo")
    apps = Applications.of([PreferenceList(0, (1, 2))])
    assignment = assignment_of([(0, 1, 1)])
    cohort = cohort_of([mk_applicant(0, 50.0, 8, birth=tokyo)])
    out = year_outcome(apps, assignment, sc, cohort, 1902, RegimeKind.CENTRALIZED)
    assert out.share_first_choice_school1 == 1.0
    assert out.mean_enrollment_distance_km == 0.0  # school 1 sits in Tokyo
    assert out.tokyo_area_entrant_share == 1.0
    assert out.entrants_total == 1


def test_year_outcome_no_applications():
    sc = build_scenario(0.01)
    none, empty = Applications.of([]), assignment_of()
    out = year_outcome(none, empty, sc, cohort_of([]), 1900, RegimeKind.DECENTRALIZED)
    assert out.share_first_choice_school1 is None


def _bits(outcome):
    """A YearOutcome's fields, floats as their exact hex form."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(outcome))


def _assert_match_placement_walk(apps, assignment, cohort, sc):
    where = (sc.prefectures, sc.schools)
    got = year_outcome(apps, assignment, sc, cohort, 1900, RegimeKind.CENTRALIZED)
    want = walked_year_outcome(apps, assignment, *where, cohort, 1900, RegimeKind.CENTRALIZED)
    assert _bits(got) == _bits(want)
    for counts, walked in zip(year_counts(assignment, cohort, sc), walked_year_counts(assignment, cohort, *where)):
        assert counts.dtype == walked.dtype
        assert np.array_equal(counts, walked)


@st.composite
def placed_years(draw, max_applicants=40):
    """A cohort born anywhere on the default geography, and an assignment of
    part of it: no, one or many entrants in any admission order (Boston's is
    round-major, not id order), each at any school and rank."""
    n = draw(st.integers(0, max_applicants))
    births = draw(st.lists(st.integers(0, 46), min_size=n, max_size=n))
    cohort = cohort_of([mk_applicant(i, 50.0, 8, birth=b) for i, b in enumerate(births)])
    k = min(n, draw(st.sampled_from([0, 1, n]) | st.integers(0, n)))
    order = draw(st.permutations(range(n)))[:k]
    placed = [(i, draw(st.integers(1, 8)), draw(st.integers(1, 8))) for i in order]
    apps = Applications.of([PreferenceList(i, (s,)) for i, s, _ in placed])
    return apps, assignment_of(placed, set(range(n)) - set(order)), cohort


@settings(max_examples=300, deadline=None)
@given(placed_years())
def test_year_arrays_match_placement_walk(year):
    # bit for bit: distances are summed in admission order, as the walk adds them
    _assert_match_placement_walk(*year, build_scenario(0.01))


def test_year_arrays_match_placement_walk_on_mechanism_output():
    sc = build_scenario(0.05)
    cohort = generate_applicants(sc, 1900, SeededRng(0))
    lists = submit_applications(cohort, Regime(RegimeKind.CENTRALIZED, 1900))
    boston = run_meritocratic_boston(sc.schools, cohort, lists, SeededRng(1))
    assert (np.diff(boston.ids) < 0).any()  # admitted round by round, not in id order
    _assert_match_placement_walk(lists, boston, cohort, sc)
    beliefs = np.full(8, 60.0)
    singles = single_applications(cohort, beliefs, BehaviorParams())
    _assert_match_placement_walk(singles, run_decentralized(sc.schools, cohort, singles, SeededRng(1)), cohort, sc)


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_default_decentralized_distance_in_calibration_band():
    sc = build_scenario(population={"year_start": 1900, "year_end": 1900})
    res = simulate_seed(sc, BehaviorParams(), seed=0)
    out = res.outcomes[0]
    assert out.regime == RegimeKind.DECENTRALIZED
    assert 150.0 <= out.mean_enrollment_distance_km <= 250.0


def _assert_columns_equal(got, expected):
    assert got.keys() == expected.keys()
    for name, col in expected.items():
        assert got[name].dtype == col.dtype, name
        assert np.array_equal(got[name], col), name


def _empty_counts(sc):
    """The entrant and graduate counts of a seed of `sc` in which nobody applies."""
    shape = (len(sc.schedule), *sc.school_km.shape)
    return np.zeros(shape, dtype=np.int64), np.zeros(shape[:2], dtype=np.int64)


@pytest.mark.parametrize("which", ["small_run", "empty"])
def test_build_panel_matches_row_oracle(which, request):
    if which == "small_run":
        sc, res = request.getfixturevalue("small_run")
        counts = res.entrants, res.graduates
    else:
        sc = build_scenario(0.01)
        counts = _empty_counts(sc)
    panels = build_panel(*counts, sc)
    rows = row_build_panel(*counts, sc.schedule, sc.prefectures, sc.schools)
    assert list(panels) == [None] + sorted(s.id for s in sc.schools)
    for key, cols in panels.items():
        _assert_columns_equal(cols, panel_to_columns([r for r in rows if r.school_id == key]))


def test_accounting_identity(small_run):
    sc, res = small_run
    panels = build_panel(res.entrants, res.graduates, sc)
    everyone = panels[None]
    for out in res.outcomes:
        total = everyone["entrants"][everyone["year"] == out.year].sum()
        assert total == out.entrants_total
        # school panels add up to the all-school panel per prefecture
        for pid in range(0, 47, 7):

            def entrants_at(cols):
                return cols["entrants"][(cols["year"] == out.year) & (cols["prefecture_id"] == pid)].item()

            school_sum = sum(entrants_at(cols) for key, cols in panels.items() if key is not None)
            assert school_sum == entrants_at(everyone)


def test_flag_geometry(small_run):
    sc, res = small_run
    panels = build_panel(res.entrants, res.graduates, sc)
    tokyo = next(i for i, p in enumerate(sc.prefectures) if p.name == "Tokyo")
    host_of_1 = next(s for s in sc.schools if s.id == 1).prefecture_id
    assert host_of_1 == tokyo
    urban = np.array([p.urban for p in sc.prefectures])
    for key, cols in panels.items():
        located_in, within_100km = cols["located_in"] == 1.0, cols["within_100km"] == 1.0
        is_tokyo, near_tokyo = cols["tokyo"] == 1.0, cols["near_tokyo"] == 1.0
        in_tokyo = cols["prefecture_id"] == tokyo
        assert not np.any(located_in & within_100km)  # bands are exclusive
        if key == 1:
            assert np.array_equal(located_in, in_tokyo)
        assert np.all(is_tokyo[in_tokyo]) and not np.any(near_tokyo[in_tokyo])
        assert np.all(urban[cols["prefecture_id"][is_tokyo | near_tokyo]])


def test_panel_tokyo_area_is_urban_on_the_band_edge():
    # Okinawa moved to 100 km from Tokyo by math.hypot, which `build_prefectures`
    # uses; the square root of summed squares puts it at 100.00000000000001 km
    rows = [(p.name, *p.coord, p.pop_weight, p.edu_index) for p in default_prefectures()]
    rows[46] = ("Okinawa", 252.39960028128806, -34.31725703790303, *rows[46][3:])
    prefs = build_prefectures(rows)
    assert prefs[46].urban
    sc = build_scenario(0.05, {"year_start": 1901, "year_end": 1902}, prefectures=prefs)
    cols = build_panel(*_empty_counts(sc), sc)[None]
    assert np.array_equal(cols["tokyo_area"], np.tile([float(p.urban) for p in prefs], 2))
    assert cols["near_tokyo"][46] == 1.0


def test_centralized_flag_follows_schedule(small_run):
    sc, res = small_run
    for cols in build_panel(res.entrants, res.graduates, sc).values():
        assert np.array_equal(cols["centralized"] == 1.0, cols["year"] >= 1902)


def test_panel_row_count_is_47_by_31():
    sc = build_scenario(0.01)
    panels = build_panel(*_empty_counts(sc), sc)
    assert len(panels[None]["year"]) == 1457  # 47 prefectures x 31 years
    assert len(panels) == 9  # plus one panel per school
    for cols in panels.values():
        assert {len(col) for col in cols.values()} == {1457}


def test_build_panel_needs_both_regimes():
    # a schedule of decentralized years only (1900-1901), then of centralized years only
    for start, end in ((1900, 1901), (1902, 1903)):
        sc = build_scenario(0.01, {"year_start": start, "year_end": end})
        with pytest.raises(DomainError, match="both centralized and decentralized"):
            build_panel(*_empty_counts(sc), sc)


def test_csv_roundtrip(tmp_path, small_run):
    sc, res = small_run
    panels = build_panel(res.entrants, res.graduates, sc)
    panel_path = tmp_path / "panel_all.csv"
    write_panel_csv(panel_path, {0: panels[None]})
    loaded = read_panel_csv(panel_path)
    assert set(loaded) == set(PANEL_COLUMNS) - {"school_id"}  # only the columns the file holds
    assert loaded.pop("seed").tolist() == [0] * len(panels[None]["year"])
    _assert_columns_equal(loaded, {c: panels[None][c] for c in loaded})

    # the whole file's columns in row order, each seed's rows one slice
    school_path = tmp_path / "panel_school_3.csv"
    write_panel_csv(school_path, {4: panels[3], 2: panels[3]}, 3)
    loaded = read_panel_csv(school_path, 3)
    size = len(panels[3]["year"])
    assert loaded.pop("seed").tolist() == [4] * size + [2] * size
    for k in range(2):
        seed_rows = {c: col[k * size : (k + 1) * size] for c, col in loaded.items()}
        _assert_columns_equal(seed_rows, {c: panels[3][c] for c in loaded})
    assert all(not col.flags.writeable for col in loaded.values())
    with pytest.raises(DomainError):
        read_panel_csv(school_path)  # written for school 3, read as the all-schools panel

    out_path = tmp_path / "year_outcomes.csv"
    write_year_outcomes_csv(out_path, [(0, o) for o in res.outcomes])
    assert read_year_outcomes_csv(out_path) == [(0, o) for o in res.outcomes]


def _same_panel_bytes(path, panels, school_id):
    write_panel_csv(path / "rows.csv", panels, school_id)
    csv_writer_panel_csv(path / "csv_writer.csv", panels, school_id)
    return (path / "rows.csv").read_bytes() == (path / "csv_writer.csv").read_bytes()


@pytest.mark.parametrize("school_id", [None, 3])
def test_panel_csv_bytes_match_csv_writer(tmp_path, small_run, school_id):
    sc, res = small_run
    cols = build_panel(res.entrants, res.graduates, sc)[school_id]
    grads = cols["middle_school_grads"].copy()
    grads[:3] = [0.0, 1e16, 123456789.0]
    for panels in ({}, {0: cols}, {7: cols, 2: {**cols, "middle_school_grads": grads}, -1: cols}):
        assert _same_panel_bytes(tmp_path, panels, school_id)


@st.composite
def _panel_files(draw):
    """Panels of 0-5 rows under 0-3 seeds, with any float for middle_school_grads."""
    seeds = draw(st.lists(st.integers(-(2**40), 2**40), unique=True, max_size=3))
    panels = {}
    for seed in seeds:
        n = draw(st.integers(0, 5))
        ints = st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n)
        cast = st.lists(st.floats(-1e15, 1e15), min_size=n, max_size=n)  # entrants and flags go through int64
        cols = {c: np.array(draw(ints), dtype=np.int64) for c in ("prefecture_id", "year")}
        cols.update({c: np.array(draw(cast), dtype=float) for c in ("entrants",) + PANEL_FLAGS})
        cols["middle_school_grads"] = np.array(draw(st.lists(st.floats(), min_size=n, max_size=n)), dtype=float)
        panels[seed] = cols
    return panels, draw(st.none() | st.integers(0, 10**6))


@settings(max_examples=100, deadline=None)
@given(_panel_files())
def test_panel_csv_bytes_match_csv_writer_on_any_values(files):
    with tempfile.TemporaryDirectory() as tmp:
        assert _same_panel_bytes(Path(tmp), *files)


@st.composite
def _outcome_rows(draw):
    keys = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(1800, 2000)), unique=True, max_size=6))
    # the reader rejects a NaN or infinite statistic (`test_outcome_reader_rejects_non_finite_statistic`)
    # and one outside its range, 0..1 for a share and 0..1e100 km for the distance
    # (`test_cli.py::test_statistic_outside_its_range_is_artifact_error`)
    share, distance = st.none() | st.floats(0, 1), st.none() | st.floats(0, 1e100)
    count = st.integers(0, 10**6)
    fields = st.tuples(st.sampled_from(RegimeKind), share, distance, share, count, count)
    return [(seed, YearOutcome(year, *draw(fields))) for seed, year in keys]


@settings(max_examples=50, deadline=None)
@given(_outcome_rows())
def test_year_outcomes_csv_round_trip(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "year_outcomes.csv"
        write_year_outcomes_csv(path, rows)
        assert read_year_outcomes_csv(path) == rows


def test_csv_headers_are_stable(tmp_path):
    write_year_outcomes_csv(tmp_path / "a.csv", [])
    write_panel_csv(tmp_path / "b.csv", {})
    assert (tmp_path / "a.csv").read_text().strip() == ",".join(YEAR_OUTCOME_COLUMNS)
    assert (tmp_path / "b.csv").read_text().strip() == ",".join(PANEL_COLUMNS)


def test_csv_uses_crlf_line_endings(tmp_path):
    path = tmp_path / "a.csv"
    write_year_outcomes_csv(path, [])
    assert path.read_bytes().endswith(b"\r\n")


def test_missing_distance_serialized_as_empty_field(tmp_path):
    sc = build_scenario(0.01)
    out = year_outcome(
        Applications.of([PreferenceList(0, (2,))]),
        assignment_of(unassigned=[0]),
        sc,
        cohort_of([mk_applicant(0, 50.0, 8, birth=0)]),
        1900,
        RegimeKind.DECENTRALIZED,
    )
    path = tmp_path / "y.csv"
    write_year_outcomes_csv(path, [(0, out)])
    with open(path, newline="") as fh:
        rec = next(csv.DictReader(fh))
    assert rec["mean_enrollment_distance_km"] == ""
    assert read_year_outcomes_csv(path) == [(0, out)]


def test_reader_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DomainError):
        read_panel_csv(path)
    with pytest.raises(DomainError):
        read_year_outcomes_csv(path)


@pytest.mark.parametrize(
    "row",
    [
        "0,0,1900,,x,0,0,0,0,0,2.0",  # entrants not an integer
        "0,0,1900,,1,2,0,0,0,0,2.0",  # flag neither 0 nor 1
        "0,0,1900,,1,0,0,0,0,0,abc",  # graduates not a number
        "0,0,1900,4,1,0,0,0,0,0,2.0",  # a school row in the all-schools panel
        "0,0,1900,,1,0,0,0,0,0",  # short row
        "0,0,1900,,1,0,0,0,0,0,2.0,7",  # long row
        "0,0,1900,,1.5,0,0,0,0,0,2.0",  # entrants written as a float
        "0,0,1e3,,1,0,0,0,0,0,2.0",  # year written as a float
        "0,,1900,,1,0,0,0,0,0,2.0",  # empty prefecture_id
        "\r\n0,1,1900,,1,0,0,0,0,0,2.0",  # blank line
    ],
)
def test_panel_reader_rejects_malformed_rows(tmp_path, row):
    path = tmp_path / "panel_all.csv"
    path.write_text(",".join(PANEL_COLUMNS) + "\r\n0,2,1900,,1,0,0,0,0,0,2.0\r\n" + row + "\r\n")
    with pytest.raises(DomainError):
        read_panel_csv(path)


def test_outcome_reader_rejects_unparsable_value(tmp_path):
    path = tmp_path / "year_outcomes.csv"
    path.write_text(",".join(YEAR_OUTCOME_COLUMNS) + "\r\n0,1900,decentralized,0.5,,,x,3\r\n")
    with pytest.raises(DomainError):
        read_year_outcomes_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "Infinity"])
@pytest.mark.parametrize("column", [3, 4, 5])
def test_outcome_reader_rejects_non_finite_statistic(tmp_path, column, value):
    # the writer leaves a missing statistic empty and never writes one of these
    fields = ["0", "1901", "decentralized", "0.5", "200.0", "0.25", "2", "3"]
    fields[column] = value
    path = tmp_path / "year_outcomes.csv"
    rows = [",".join(YEAR_OUTCOME_COLUMNS), "0,1900,decentralized,0.5,200.0,0.25,2,3", ",".join(fields)]
    path.write_text("\r\n".join(rows) + "\r\n")
    with pytest.raises(DomainError) as info:
        read_year_outcomes_csv(path)
    assert str(info.value) == f"{path}, line 3: {YEAR_OUTCOME_COLUMNS[column]} must be finite, got {float(value)!r}"


def test_outcome_reader_rejects_extra_field(tmp_path):
    path = tmp_path / "year_outcomes.csv"
    path.write_text(",".join(YEAR_OUTCOME_COLUMNS) + "\r\n0,1900,decentralized,0.5,,,2,3,9\r\n")
    with pytest.raises(DomainError) as info:
        read_year_outcomes_csv(path)
    assert str(info.value) == f"{path}, line 2: every row must have 8 fields"  # the location once


def test_outcome_reader_skips_blank_lines(tmp_path):
    # as the geography and school readers do; a line number still counts them
    path = tmp_path / "year_outcomes.csv"
    rows = ["0,1900,decentralized,0.5,,,2,3", "", "0,1901,centralized,0.5,,,2,3", "", "0,1901,centralized,,,,2,3"]
    path.write_text("\r\n".join(["", ",".join(YEAR_OUTCOME_COLUMNS), *rows]) + "\r\n")
    with pytest.raises(DomainError) as info:
        read_year_outcomes_csv(path)
    assert str(info.value) == f"{path}, line 7: a second row for seed 0, year 1901"
    path.write_text("\r\n".join(["", ",".join(YEAR_OUTCOME_COLUMNS), *rows[:3], ""]) + "\r\n")
    assert [(seed, o.year, o.regime) for seed, o in read_year_outcomes_csv(path)] == [
        (0, 1900, RegimeKind.DECENTRALIZED),
        (0, 1901, RegimeKind.CENTRALIZED),
    ]


def test_outcome_reader_rejects_repeated_seed_year(tmp_path):
    path = tmp_path / "year_outcomes.csv"
    rows = ["0,1900,decentralized,0.5,,,2,3", "1,1900,decentralized,0.5,,,2,3", "0,1900,decentralized,0.5,,,2,3"]
    path.write_text("\r\n".join([",".join(YEAR_OUTCOME_COLUMNS), *rows]) + "\r\n")
    with pytest.raises(DomainError, match=r"line 4: a second row for seed 0, year 1900") as info:
        read_year_outcomes_csv(path)
    assert str(path) in str(info.value)


def test_panel_reader_rejects_longer_school_id(tmp_path):
    path = tmp_path / "panel_school_3.csv"
    path.write_text(",".join(PANEL_COLUMNS) + "\r\n0,0,1900,3,1,0,0,0,0,0,2.0\r\n0,1,1900,33,1,0,0,0,0,0,2.0\r\n")
    with pytest.raises(DomainError, match="school_id"):
        read_panel_csv(path, 3)


def test_panel_tokyo_area(small_run):
    sc, res = small_run
    cols = build_panel(res.entrants, res.graduates, sc)[None]
    assert np.array_equal(
        cols["tokyo_area"], np.maximum(cols["tokyo"], cols["near_tokyo"])
    )
    assert cols["entrants"].dtype == float
    urban_count = int(cols["tokyo_area"][: 47].sum())
    assert urban_count == 7

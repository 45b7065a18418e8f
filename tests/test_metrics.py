import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritmatch.core import Assignment, DomainError, Placement, RegimeKind, SeededRng
from meritmatch.mechanisms import Applications, PreferenceList

from conftest import cohort_of, mk_applicant
from oracles import panel_to_columns, row_build_panel
from meritmatch.metrics import (
    PANEL_COLUMNS,
    YEAR_OUTCOME_COLUMNS,
    YearOutcome,
    build_panel,
    read_panel_csv,
    read_year_outcomes_csv,
    write_panel_csv,
    write_year_outcomes_csv,
    year_outcome,
    year_record,
)
from meritmatch.popgen import build_scenario, generate_applicants
from meritmatch.pipeline import simulate_seed
from meritmatch.strategy import BehaviorParams


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
    apps = Applications.of([PreferenceList(1, (1,)), PreferenceList(2, (2,))])
    assignment = Assignment(placed={}, unassigned=frozenset({1, 2}))
    cohort = cohort_of([mk_applicant(1, 50.0, 8, birth=12), mk_applicant(2, 50.0, 8, birth=0)])
    out = year_outcome(apps, assignment, sc.prefectures, sc.schools, cohort, 1900, RegimeKind.DECENTRALIZED)
    assert out.share_first_choice_school1 == 0.5
    assert out.mean_enrollment_distance_km is None
    assert out.tokyo_area_entrant_share is None
    assert out.entrants_total == 0
    assert out.unassigned_total == 2


def test_year_outcome_single_tokyo_admit():
    sc = build_scenario(0.01)
    tokyo = next(p for p in sc.prefectures if p.name == "Tokyo")
    apps = Applications.of([PreferenceList(1, (1, 2))])
    assignment = Assignment(
        placed={1: Placement(school_id=1, preference_rank_obtained=1)},
        unassigned=frozenset(),
    )
    cohort = cohort_of([mk_applicant(1, 50.0, 8, birth=tokyo.id)])
    out = year_outcome(apps, assignment, sc.prefectures, sc.schools, cohort, 1902, RegimeKind.CENTRALIZED)
    assert out.share_first_choice_school1 == 1.0
    assert out.mean_enrollment_distance_km == 0.0  # school 1 sits in Tokyo
    assert out.tokyo_area_entrant_share == 1.0
    assert out.entrants_total == 1


def test_year_outcome_no_applications():
    sc = build_scenario(0.01)
    none, empty = Applications.of([]), Assignment({}, frozenset())
    out = year_outcome(none, empty, sc.prefectures, sc.schools, cohort_of([]), 1900, RegimeKind.DECENTRALIZED)
    assert out.share_first_choice_school1 is None


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


def _empty_records(sc):
    empty = Assignment({}, frozenset())
    return [year_record(empty, cohort_of([]), sc.prefectures, sc.schools, r.year, r.kind) for r in sc.schedule]


@pytest.mark.parametrize("which", ["small_run", "empty"])
def test_build_panel_matches_row_oracle(which, request):
    if which == "small_run":
        sc, res = request.getfixturevalue("small_run")
        records = res.records
    else:
        sc = build_scenario(0.01)
        records = _empty_records(sc)
    panels = build_panel(records, sc.prefectures, sc.schools)
    rows = row_build_panel(records, sc.prefectures, sc.schools)
    assert list(panels) == [None] + sorted(s.id for s in sc.schools)
    for key, cols in panels.items():
        _assert_columns_equal(cols, panel_to_columns([r for r in rows if r.school_id == key]))


def test_accounting_identity(small_run):
    sc, res = small_run
    panels = build_panel(res.records, sc.prefectures, sc.schools)
    everyone = panels[None]
    for rec, out in zip(res.records, res.outcomes):
        total = everyone["entrants"][everyone["year"] == rec.year].sum()
        assert total == out.entrants_total
        # school panels add up to the all-school panel per prefecture
        for pid in range(0, 47, 7):

            def entrants_at(cols):
                return cols["entrants"][(cols["year"] == rec.year) & (cols["prefecture_id"] == pid)].item()

            school_sum = sum(entrants_at(cols) for key, cols in panels.items() if key is not None)
            assert school_sum == entrants_at(everyone)


def test_flag_geometry(small_run):
    sc, res = small_run
    panels = build_panel(res.records, sc.prefectures, sc.schools)
    tokyo = next(p for p in sc.prefectures if p.name == "Tokyo")
    host_of_1 = next(s for s in sc.schools if s.id == 1).prefecture_id
    assert host_of_1 == tokyo.id
    urban = np.array([p.urban for p in sc.prefectures])
    for key, cols in panels.items():
        located_in, within_100km = cols["located_in"] == 1.0, cols["within_100km"] == 1.0
        is_tokyo, near_tokyo = cols["tokyo"] == 1.0, cols["near_tokyo"] == 1.0
        in_tokyo = cols["prefecture_id"] == tokyo.id
        assert not np.any(located_in & within_100km)  # bands are exclusive
        if key == 1:
            assert np.array_equal(located_in, in_tokyo)
        assert np.all(is_tokyo[in_tokyo]) and not np.any(near_tokyo[in_tokyo])
        assert np.all(urban[cols["prefecture_id"][is_tokyo | near_tokyo]])


def test_centralized_flag_follows_schedule(small_run):
    sc, res = small_run
    for cols in build_panel(res.records, sc.prefectures, sc.schools).values():
        assert np.array_equal(cols["centralized"] == 1.0, cols["year"] >= 1902)


def test_panel_row_count_is_47_by_31():
    sc = build_scenario(0.01)
    panels = build_panel(_empty_records(sc), sc.prefectures, sc.schools)
    assert len(panels[None]["year"]) == 1457  # 47 prefectures x 31 years
    assert len(panels) == 9  # plus one panel per school
    for cols in panels.values():
        assert {len(col) for col in cols.values()} == {1457}


def test_build_panel_needs_both_regimes():
    sc = build_scenario(0.01)
    rec = year_record(
        Assignment({}, frozenset()), cohort_of([]), sc.prefectures, sc.schools, 1900, RegimeKind.DECENTRALIZED
    )
    with pytest.raises(DomainError):
        build_panel([rec], sc.prefectures, sc.schools)
    with pytest.raises(DomainError):
        build_panel([rec, rec], sc.prefectures, sc.schools)  # duplicate years


def test_csv_roundtrip(tmp_path, small_run):
    sc, res = small_run
    panels = build_panel(res.records, sc.prefectures, sc.schools)
    panel_path = tmp_path / "panel_all.csv"
    write_panel_csv(panel_path, {0: panels[None]})
    loaded = read_panel_csv(panel_path)
    assert list(loaded) == [0]
    _assert_columns_equal(loaded[0], panels[None])

    school_path = tmp_path / "panel_school_3.csv"
    write_panel_csv(school_path, {4: panels[3], 2: panels[3]}, 3)
    loaded = read_panel_csv(school_path, 3)
    assert list(loaded) == [4, 2]
    for cols in loaded.values():
        _assert_columns_equal(cols, panels[3])
    with pytest.raises(DomainError):
        read_panel_csv(school_path)  # written for school 3, read as the all-schools panel

    out_path = tmp_path / "year_outcomes.csv"
    write_year_outcomes_csv(out_path, [(0, o) for o in res.outcomes])
    assert read_year_outcomes_csv(out_path) == [(0, o) for o in res.outcomes]


@st.composite
def _outcome_rows(draw):
    keys = draw(st.lists(st.tuples(st.integers(-5, 5), st.integers(1800, 2000)), unique=True, max_size=6))
    statistic = st.none() | st.floats(allow_nan=False)
    count = st.integers(0, 10**6)
    fields = st.tuples(st.sampled_from(RegimeKind), statistic, statistic, statistic, count, count)
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
        Applications.of([PreferenceList(1, (2,))]),
        Assignment({}, frozenset({1})),
        sc.prefectures,
        sc.schools,
        cohort_of([mk_applicant(1, 50.0, 8, birth=0)]),
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
        "1,0,1900,,1,0,0,0,0,0,2.0\r\n0,1,1900,,1,0,0,0,0,0,2.0",  # seed 0's rows split by seed 1
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


def test_outcome_reader_rejects_extra_field(tmp_path):
    path = tmp_path / "year_outcomes.csv"
    path.write_text(",".join(YEAR_OUTCOME_COLUMNS) + "\r\n0,1900,decentralized,0.5,,,2,3,9\r\n")
    with pytest.raises(DomainError) as info:
        read_year_outcomes_csv(path)
    assert str(info.value) == f"{path}, line 2: every row must have 8 fields"  # the location once


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
    cols = build_panel(res.records, sc.prefectures, sc.schools)[None]
    assert np.array_equal(
        cols["tokyo_area"], np.maximum(cols["tokyo"], cols["near_tokyo"])
    )
    assert cols["entrants"].dtype == float
    urban_count = int(cols["tokyo_area"][: 47].sum())
    assert urban_count == 7

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from meritmatch.config import build_scenario, load_geography, load_schools
from meritmatch.core import (
    _PREFECTURE_TABLE,
    Applicant,
    DomainError,
    Prefecture,
    School,
    SeededRng,
    build_prefectures,
    default_prefectures,
    distance_matrix,
    validate_market,
)

from conftest import cohort_of, save_geography, save_schools


def _pref(name, x, y, urban=False, w=0.5, edu=0.3):
    return Prefecture(name=name, coord=(x, y), urban=urban, pop_weight=w, edu_index=edu)


def test_distance_identity():
    p = _pref("P0", 12.0, -7.0)
    assert distance_matrix([p]).tolist() == [[0.0]]


def test_distance_3_4_5():
    a = _pref("P0", 0.0, 0.0)
    b = _pref("P1", 3.0, 4.0)
    assert distance_matrix([a, b]).tolist() == [[0.0, 5.0], [5.0, 0.0]]


def test_distance_matrix_indexes_prefectures_by_row():
    # entry (i, j) is the distance between rows i and j, in whatever order the rows come
    small = [("A", 5.0, -1.0, 1.0, 0.2), ("Tokyo", 0.0, 0.0, 2.0, 1.0), ("B", 3.0, 4.0, 1.0, 0.2)]
    for rows in (_PREFECTURE_TABLE[::-1], small):
        d = distance_matrix(build_prefectures(rows))
        for (i, a), (j, b) in itertools.product(enumerate(rows), repeat=2):
            assert d[i, j] == pytest.approx(math.hypot(a[1] - b[1], a[2] - b[2]), rel=1e-15, abs=0.0)


def test_tokyo_kanagawa_within_urban_band():
    prefs = default_prefectures()
    row = {p.name: i for i, p in enumerate(prefs)}
    # hand calculation from the shipped table: (152.4, -34.6) vs (147.9, -61.4)
    expected = math.hypot(152.4 - 147.9, -34.6 - (-61.4))
    assert distance_matrix(prefs)[row["Tokyo"], row["Kanagawa"]] == pytest.approx(expected)
    assert expected <= 100.0 and prefs[row["Kanagawa"]].urban


def test_distance_is_a_metric_on_default_geography():
    prefs = default_prefectures()
    d = distance_matrix(prefs)
    n = len(prefs)
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    off = d[~np.eye(n, dtype=bool)]
    assert np.all(off > 0)
    # triangle inequality over all ordered triples: d[i,k] <= d[i,j] + d[j,k]
    assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-9)


def test_exactly_seven_urban_prefectures():
    prefs = default_prefectures()
    urban = sorted(p.name for p in prefs if p.urban)
    assert urban == ["Chiba", "Gunma", "Ibaraki", "Kanagawa", "Saitama", "Tochigi", "Tokyo"]
    tokyo = next(p for p in prefs if p.name == "Tokyo")
    for p in prefs:
        assert p.urban == (math.hypot(p.coord[0] - tokyo.coord[0], p.coord[1] - tokyo.coord[1]) <= 100.0)


def test_pop_weights_sum_to_one():
    prefs = default_prefectures()
    assert sum(p.pop_weight for p in prefs) == pytest.approx(1.0, abs=1e-9)


def test_validate_market_default_is_clean():
    sc = build_scenario(0.01)
    assert validate_market(sc.prefectures, sc.schools) == []


def test_validate_market_flags_nonpositive_capacity():
    sc = build_scenario(0.01)
    bad = list(sc.schools)
    bad[0] = School(id=1, prefecture_id=bad[0].prefecture_id, capacity=0, prestige=bad[0].prestige)
    violations = validate_market(sc.prefectures, bad)
    assert any(v.startswith("nonpositive_capacity: ") for v in violations)


def test_validate_market_flags_unnormalized_weights():
    prefs = default_prefectures()
    shrunk = [replace(p, pop_weight=p.pop_weight * 0.9) for p in prefs]
    violations = validate_market(shrunk, [])
    assert any(v.startswith("weights_not_normalized: ") for v in violations)


def test_validate_market_flags_nan_weight_sum():
    # abs(nan - 1) > 1e-9 is False, so a NaN weight passed the sum check
    prefs = default_prefectures()
    prefs[3] = replace(prefs[3], pop_weight=math.nan)
    assert "weights_not_normalized" in {v.split(":")[0] for v in validate_market(prefs, [])}


def test_validate_market_reports_a_repeated_school_id_once():
    sc = build_scenario(0.01)
    repeated = [sc.schools[0], replace(sc.schools[1], id=1)]
    assert [v.split(":")[0] for v in validate_market(sc.prefectures, repeated)] == ["school_ids"]


def test_validate_market_collects_multiple_violations():
    prefs = default_prefectures()
    shrunk = [replace(p, pop_weight=p.pop_weight * 0.5) for p in prefs]
    schools = [School(id=1, prefecture_id=999, capacity=-3, prestige=1.0)]
    violations = validate_market(shrunk, schools)
    codes = {v.split(":")[0] for v in violations}
    assert {"weights_not_normalized", "nonpositive_capacity", "unknown_prefecture"} <= codes
    # applicants are checked where their cohort is built
    bad_applicant = Applicant(id=0, birth_prefecture=0, score=float("nan"), utility=(1.0,), outside_option=0.0)
    with pytest.raises(DomainError, match="applicant 0 has non-finite score"):
        cohort_of([bad_applicant])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
@pytest.mark.parametrize("column", ["utility", "outside option"])
def test_cohort_rejects_non_finite_surplus(column, value):
    # a best response needs finite surpluses
    applicants = [Applicant(i, 0, 50.0, utility=(1.0, 2.0), outside_option=0.0) for i in range(3)]
    if column == "utility":
        applicants[1] = replace(applicants[1], utility=(1.0, value))
    else:
        applicants[1] = replace(applicants[1], outside_option=value)
    with pytest.raises(DomainError, match=f"applicant 1 has non-finite {column}"):
        cohort_of(applicants)


def test_seeded_rng_reproducible_and_stream_separated():
    a = SeededRng(seed=42, stream_id=7).generator().random(5)
    b = SeededRng(seed=42, stream_id=7).generator().random(5)
    c = SeededRng(seed=42, stream_id=8).generator().random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seeded_rng_substreams_are_stable():
    root = SeededRng(seed=3)
    s1 = root.substream("popgen", 1900)
    s2 = root.substream("popgen", 1900)
    s3 = root.substream("popgen", 1901)
    s4 = root.substream("lottery", 1900)
    assert s1 == s2
    assert s1 != s3 and s1 != s4
    assert np.array_equal(s1.generator().random(3), s2.generator().random(3))


@pytest.mark.parametrize("seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_seeded_rng_rejects_values_outside_64_bits(seed, stream_id):
    # masked to 64 bits, -1 drew as 2^64 - 1 and 2^64 as 0
    with pytest.raises(DomainError, match=r"outside 0\.\.2\^64-1"):
        SeededRng(seed, stream_id)


def test_seeded_rng_seeds_each_word_as_given():
    top = 2**64 - 1
    expected = np.random.default_rng(np.random.SeedSequence((top, top))).random(3)
    assert np.array_equal(SeededRng(top, top).generator().random(3), expected)


def test_geography_roundtrip(tmp_path):
    prefs = default_prefectures()
    path = tmp_path / "geo.csv"
    save_geography(prefs, path)
    loaded = load_geography(path)
    assert loaded == prefs


def test_geography_bad_header_rejected(tmp_path):
    path = tmp_path / "geo.csv"
    path.write_text("id,name,x,y\n0,Tokyo,0,0\n")
    with pytest.raises(DomainError):
        load_geography(path)


def test_geography_requires_tokyo():
    with pytest.raises(DomainError):
        build_prefectures([("Somewhere", 0.0, 0.0, 1.0, 0.3)])


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
@pytest.mark.parametrize("column", range(1, 5), ids=["x_km", "y_km", "weight", "edu_index"])
def test_build_prefectures_rejects_non_finite_numbers(column, value):
    rows = [["Tokyo", 0.0, 0.0, 1.0, 1.0], ["Chiba", 30.0, 0.0, 1.0, 0.5]]
    rows[1][column] = value
    with pytest.raises(DomainError, match="prefecture Chiba has a non-finite x_km, y_km, weight or edu_index"):
        build_prefectures(rows)


def test_schools_roundtrip(tmp_path):
    sc = build_scenario(0.01)
    path = tmp_path / "schools.csv"
    save_schools(sc.schools, path)
    assert load_schools(path) == list(sc.schools)


def test_default_schools_prestige_order_matches_selectivity():
    sc = build_scenario()
    by_id = {s.id: s.prestige for s in sc.schools}
    order = sorted(by_id, key=lambda sid: -by_id[sid])
    assert order == [1, 3, 4, 2, 8, 6, 5, 7]
    assert by_id[1] == max(by_id.values())


def test_default_schools_capacity_total():
    sc = build_scenario()
    assert sum(s.capacity for s in sc.schools) == 2008
    assert len({s.capacity for s in sc.schools}) == 1  # uniform split

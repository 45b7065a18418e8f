import csv
import json
import pickle
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from meritmatch.cli import main
from meritmatch.config import build_scenario
from meritmatch import pipeline
from meritmatch.pipeline import simulate_seed
from meritmatch.core import DomainError, Regime, RegimeKind, SeededRng
from meritmatch.popgen import (
    DEFAULT_GROUPS,
    PopulationConfig,
    generate_applicants,
    regime_schedule,
)
from meritmatch.strategy import BehaviorParams, submit_applications

from conftest import truthful_ranking

GOLDEN = Path(__file__).parent / "golden"


def test_no_distance_cost_no_noise_forces_school1_first():
    sc = build_scenario(0.02, {"distance_cost": 0.0, "preference_noise_sd": 0.0})
    apps = generate_applicants(sc, 1900, SeededRng(1))
    for a in apps:
        assert truthful_ranking(a).ranked[0] == 1


def test_zero_urban_shift_equalizes_scores():
    sc = build_scenario(population={"urban_score_shift": 0.0, "applicants_per_year": 100_000})
    apps = generate_applicants(sc, 1900, SeededRng(0))
    urban_ids = {i for i, p in enumerate(sc.prefectures) if p.urban}
    urban = np.array([a.score for a in apps if a.birth_prefecture in urban_ids])
    rural = np.array([a.score for a in apps if a.birth_prefecture not in urban_ids])
    se = np.sqrt(urban.var() / len(urban) + rural.var() / len(rural))
    assert abs(urban.mean() - rural.mean()) < 3 * se


def test_tokyo_area_applicant_share_matches_configured_mass():
    sc = build_scenario()
    apps = generate_applicants(sc, 1900, SeededRng(0))
    urban_ids = {i for i, p in enumerate(sc.prefectures) if p.urban}
    mass = sum(p.pop_weight for p in sc.prefectures if p.urban)
    share = sum(1 for a in apps if a.birth_prefecture in urban_ids) / len(apps)
    se = np.sqrt(mass * (1 - mass) / len(apps))
    assert abs(share - mass) < 3 * se


def test_yearly_counts_match_golden_exactly():
    sc = build_scenario()
    expected = {}
    with open(GOLDEN / "popgen_counts_seed0.csv", newline="") as fh:
        for rec in csv.DictReader(fh):
            expected[(int(rec["year"]), int(rec["prefecture_id"]))] = int(rec["count"])
    for year in (1900, 1915):
        apps = generate_applicants(sc, year, SeededRng(0))
        counts = Counter(a.birth_prefecture for a in apps)
        for pid in range(47):
            assert counts.get(pid, 0) == expected[(year, pid)]


def test_cohorts_deterministic_per_seed_and_year():
    sc = build_scenario(0.01)
    a = generate_applicants(sc, 1903, SeededRng(7))
    b = generate_applicants(sc, 1903, SeededRng(7))
    c = generate_applicants(sc, 1904, SeededRng(7))
    d = generate_applicants(sc, 1903, SeededRng(8))
    assert list(a) == list(b)
    assert list(a) != list(c)
    assert list(a) != list(d)


def test_cohort_draw_independent_of_other_streams():
    sc = build_scenario(0.01)
    root = SeededRng(2)
    direct = generate_applicants(sc, 1905, root)
    root.substream("lottery", 1905).generator().random(1000)  # unrelated draws
    again = generate_applicants(sc, 1905, root)
    assert list(direct) == list(again)


def test_applicant_ids_unique_and_utilities_sized():
    sc = build_scenario(0.01)
    apps = generate_applicants(sc, 1900, SeededRng(0))
    assert len({a.id for a in apps}) == len(apps)
    assert all(len(a.utility) == 8 for a in apps)


def test_share_metrics_stable_under_population_doubling():
    base, doubled = [], []
    for seed in range(20):
        for scale, sink in ((0.02, base), (0.04, doubled)):
            sc = build_scenario(scale)
            apps = generate_applicants(sc, 1900, SeededRng(seed))
            truthful = list(submit_applications(apps, Regime(RegimeKind.CENTRALIZED, 1900)))
            sink.append(sum(1 for t in truthful if t.ranked[0] == 1) / len(truthful))
    base, doubled = np.array(base), np.array(doubled)
    se = np.sqrt(base.var(ddof=1) / 20 + doubled.var(ddof=1) / 20)
    assert abs(base.mean() - doubled.mean()) <= 2 * se


def test_regime_schedule_chronology():
    by_year = {r.year: r for r in regime_schedule()}
    assert by_year[1900].kind == RegimeKind.DECENTRALIZED
    assert by_year[1901].kind == RegimeKind.DECENTRALIZED_UNIFIED_EXAM
    assert by_year[1902].kind == RegimeKind.CENTRALIZED
    assert by_year[1907].kind == RegimeKind.CENTRALIZED
    assert by_year[1908].kind == RegimeKind.DECENTRALIZED_UNIFIED_EXAM
    assert by_year[1917].kind == RegimeKind.CENTRALIZED
    assert by_year[1919].kind == RegimeKind.DECENTRALIZED_UNIFIED_EXAM
    assert by_year[1926].kind == RegimeKind.GROUPED_CENTRALIZED
    assert by_year[1927].kind == RegimeKind.GROUPED_CENTRALIZED
    assert by_year[1928].kind == RegimeKind.DECENTRALIZED_UNIFIED_EXAM
    kinds = Counter(r.kind for r in regime_schedule())
    assert kinds[RegimeKind.CENTRALIZED] == 8
    assert kinds[RegimeKind.GROUPED_CENTRALIZED] == 2
    assert kinds[RegimeKind.DECENTRALIZED] == 1
    assert kinds[RegimeKind.DECENTRALIZED_UNIFIED_EXAM] == 20
    assert by_year[1926].groups == DEFAULT_GROUPS
    assert by_year[1902].groups is None


def test_config_validation():
    with pytest.raises(DomainError):
        PopulationConfig(applicants_per_year=0)
    with pytest.raises(DomainError):
        PopulationConfig(score_sd=-1)
    with pytest.raises(DomainError):
        PopulationConfig(year_start=1910, year_end=1900)
    with pytest.raises(DomainError):
        build_scenario(0.0)


def test_prestige_length_checked_when_the_scenario_is_built(tmp_path, capsys):
    # the scenario's prestige comes from its schools, so a short vector never reaches a draw
    message = "expected 8 capacities and prestige values"
    with pytest.raises(DomainError, match=message):
        build_scenario(population={"prestige": [1.0, 2.0]})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"population": {"prestige": [1.0, 2.0]}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: config: bad config: {message}\n"
    assert not (tmp_path / "out").exists()


def test_growth_toggle_changes_cohort_size():
    cfg = PopulationConfig(applicants_per_year=1000, applicant_growth_per_year=0.1)
    assert cfg.cohort_size(1900) == 1000
    assert cfg.cohort_size(1905) == 1500
    flat = PopulationConfig(applicants_per_year=1000)
    assert flat.cohort_size(1930) == 1000



SCENARIO_ARRAYS = ("weights", "urban", "tokyo", "hosts", "school_km", "mean_score", "base_utility")


def test_scenario_arrays_are_in_id_order():
    sc = build_scenario(0.05)
    flipped = build_scenario(0.05, schools=sc.schools[::-1])
    assert [s.id for s in flipped.schools] == list(range(8, 0, -1))
    for name in SCENARIO_ARRAYS:
        assert np.array_equal(getattr(flipped, name), getattr(sc, name)), name
    tokyo = next(i for i, p in enumerate(sc.prefectures) if p.name == "Tokyo")
    assert sc.school_km.shape == (47, 8) and sc.school_km[tokyo, 0] == 0.0  # school 1 sits in Tokyo
    assert sc.tokyo.nonzero()[0].tolist() == [tokyo]
    # the draw's means are the population's formula, bit for bit, in prefecture row and school id order
    pop = flipped.population
    for p, pref in enumerate(flipped.prefectures):
        assert flipped.mean_score[p] == pop.score_mean_base + pop.urban_score_shift * pref.edu_index
        for s in flipped.schools:
            k = s.id - 1
            assert flipped.base_utility[p, k] == s.prestige - pop.distance_cost * flipped.school_km[p, k]


def test_scenario_arrays_are_read_only():
    sc = build_scenario()
    for copy in (sc, pickle.loads(pickle.dumps(sc))):  # a pool worker's copy too
        for name in SCENARIO_ARRAYS:
            assert not getattr(copy, name).flags.writeable, name
    # every year of a seed reads the same arrays; an in-place write to one would raise here
    assert len(simulate_seed(sc, BehaviorParams(), seed=0).records) == 31


def test_simulate_seed_holds_one_year_at_a_time(monkeypatch):
    # a year's cohort, applications and assignment used to stay alive through the next year's draw
    drawn = []
    draw = pipeline.generate_applicants

    def tracked(scenario, year, rng):
        assert [ref() for ref in drawn] == [None] * len(drawn), f"an earlier cohort is alive when {year}'s is drawn"
        cohort = draw(scenario, year, rng)
        drawn.append(weakref.ref(cohort))
        return cohort

    monkeypatch.setattr(pipeline, "generate_applicants", tracked)
    sc = build_scenario(population={"year_end": 1903})
    assert {r.kind.is_centralized for r in sc.schedule} == {False, True}
    assert len(simulate_seed(sc, BehaviorParams(), seed=0).records) == len(drawn) == 4

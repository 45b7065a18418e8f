import csv
from dataclasses import replace

import numpy as np
import pytest

from meritmatch.config import GEOGRAPHY_COLUMNS, SCHOOL_COLUMNS
from meritmatch.core import Applicant, Assignment, Cohort, School
from meritmatch.mechanisms import PreferenceList
from meritmatch.strategy import _grouped_lists, ranked_lists


def mk_applicant(aid: int, score: float, n_schools: int = 3, birth: int = 0) -> Applicant:
    return Applicant(
        id=aid,
        birth_prefecture=birth,
        score=score,
        utility=(0.0,) * n_schools,
        outside_option=0.0,
    )


def mk_schools(*capacities: int) -> list[School]:
    # prestige strictly decreasing in id; hosts are arbitrary valid prefectures
    return [
        School(id=i + 1, prefecture_id=0, capacity=c, prestige=10.0 - i)
        for i, c in enumerate(capacities)
    ]


def cohort_of(applicants) -> Cohort:
    """The cohort of a sequence of `Applicant`s, whose ids must be 0..n-1 in
    order: an applicant's id is its cohort row, and no applicant is
    relabelled here."""
    rows = list(applicants)
    if [a.id for a in rows] != list(range(len(rows))):
        raise ValueError(f"applicant ids must be 0..n-1 in order, got {[a.id for a in rows]}")
    return Cohort(
        birth=np.array([a.birth_prefecture for a in rows], dtype=np.int64),
        score=np.array([a.score for a in rows], dtype=float),
        utility=np.array([a.utility for a in rows], dtype=float).reshape(len(rows), -1 if rows else 0),
        outside=np.array([a.outside_option for a in rows], dtype=float),
    )


def assignment_of(placed=(), unassigned=()) -> Assignment:
    """The Assignment of (applicant id, school id, rank) rows in admission
    order, with the unassigned ids."""
    ids, school_ids, ranks = np.array(list(placed), dtype=np.int64).reshape(-1, 3).T
    return Assignment(ids, school_ids, ranks, np.array(sorted(unassigned), dtype=np.int64))


def lottery_of(prefs, rng) -> dict[int, float]:
    """The lottery a mechanism run draws from `rng`: one uniform number per
    submitter of `prefs`, in increasing id order."""
    ids = sorted(p.applicant_id for p in prefs)
    return dict(zip(ids, rng.generator().random(len(ids)).tolist()))


def _ranking_of_one(lists, applicant):
    """The list `lists` gives `applicant` as the one row of a cohort, under
    the applicant's own id; () when it submits none."""
    rows = list(lists(cohort_of([replace(applicant, id=0)])))
    return PreferenceList(applicant.id, rows[0].ranked if rows else ())


def truthful_ranking(applicant):
    """One applicant's truthful list, possibly empty, through `ranked_lists`."""
    return _ranking_of_one(lambda cohort: ranked_lists(cohort.utility, cohort.outside), applicant)


def grouped_ranking(applicant, groups):
    """One applicant's one-school-per-group list, through the cohort code."""
    return _ranking_of_one(lambda cohort: _grouped_lists(cohort, groups), applicant)


def save_geography(prefectures, path):
    """Write prefectures in the CSV form `load_geography` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(GEOGRAPHY_COLUMNS)
        writer.writerows([p.id, p.name, p.coord[0], p.coord[1], p.pop_weight, p.edu_index] for p in prefectures)


def save_schools(schools, path):
    """Write schools in the CSV form `load_schools` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCHOOL_COLUMNS)
        writer.writerows([s.id, s.prefecture_id, s.capacity, s.prestige] for s in schools)


@pytest.fixture
def xyz_instance():
    """Three schools with one seat each: x, y and z are applicants 0, 1 and
    2, and z's list is truncated to [2, 3]."""
    schools = mk_schools(1, 1, 1)
    applicants = cohort_of([
        mk_applicant(0, 100.0),
        mk_applicant(1, 90.0),
        mk_applicant(2, 80.0),
    ])
    prefs = [
        PreferenceList(applicant_id=0, ranked=(1, 2, 3)),
        PreferenceList(applicant_id=1, ranked=(1, 2, 3)),
        PreferenceList(applicant_id=2, ranked=(2, 3)),
    ]
    return schools, applicants, prefs

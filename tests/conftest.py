import csv

import numpy as np
import pytest

from meritmatch.config import GEOGRAPHY_COLUMNS, SCHOOL_COLUMNS
from meritmatch.core import Applicant, Assignment, Cohort, School
from meritmatch.strategy import _grouped_lists, _truthful_lists


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
    """The cohort of a sequence of `Applicant`s, rows in increasing id."""
    rows = sorted(applicants, key=lambda a: a.id)
    return Cohort(
        ids=np.array([a.id for a in rows], dtype=np.int64),
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


def truthful_ranking(applicant):
    """One applicant's truthful list, possibly empty, through the cohort code."""
    return next(iter(_truthful_lists(cohort_of([applicant]))))


def grouped_ranking(applicant, groups):
    """One applicant's one-school-per-group list, through the cohort code."""
    return next(iter(_grouped_lists(cohort_of([applicant]), groups)))


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
    """Three schools with one seat each; z's list is truncated to [2, 3]."""
    from meritmatch.mechanisms import PreferenceList

    schools = mk_schools(1, 1, 1)
    applicants = cohort_of([
        mk_applicant(1, 100.0),
        mk_applicant(2, 90.0),
        mk_applicant(3, 80.0),
    ])
    prefs = [
        PreferenceList(applicant_id=1, ranked=(1, 2, 3)),
        PreferenceList(applicant_id=2, ranked=(1, 2, 3)),
        PreferenceList(applicant_id=3, ranked=(2, 3)),
    ]
    return schools, applicants, prefs

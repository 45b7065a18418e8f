import csv

import pytest

from meritmatch.core import GEOGRAPHY_COLUMNS, SCHOOL_COLUMNS, Applicant, Cohort, School
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


def truthful_ranking(applicant):
    """One applicant's truthful list, possibly empty, through the cohort code."""
    return next(iter(_truthful_lists(Cohort.of([applicant]))))


def grouped_ranking(applicant, groups):
    """One applicant's one-school-per-group list, through the cohort code."""
    return next(iter(_grouped_lists(Cohort.of([applicant]), groups)))


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
    applicants = [
        mk_applicant(1, 100.0),
        mk_applicant(2, 90.0),
        mk_applicant(3, 80.0),
    ]
    prefs = [
        PreferenceList(applicant_id=1, ranked=(1, 2, 3)),
        PreferenceList(applicant_id=2, ranked=(1, 2, 3)),
        PreferenceList(applicant_id=3, ranked=(2, 3)),
    ]
    return schools, applicants, prefs

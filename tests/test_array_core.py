"""The array mechanisms and rankings against the scalar code they replaced
(`tests/oracles.py`), on small markets with forced score, lottery and utility
ties, including the order in which placements are admitted; and every input
check the array path keeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritmatch.core import Applicant, Cohort, DomainError, Regime, RegimeKind
from meritmatch.mechanisms import (
    Applications,
    PreferenceList,
    SingleApplication,
    run_decentralized,
    run_immediate_acceptance,
    run_meritocratic_boston,
    run_serial_dictatorship_da,
)
from meritmatch.strategy import submit_applications

from conftest import grouped_ranking, mk_applicant, mk_schools, truthful_ranking
from oracles import per_school_top, scalar_boston_rounds, scalar_grouped_ranking, scalar_truthful_ranking


@st.composite
def tied_markets(draw, max_schools=4, max_applicants=8):
    """Scores in {1, 2, 3} and lottery draws in {0, 0.5}, so whole priority
    classes tie down to the id; ids are sparse, lists arrive in any order and
    may be empty, and some applicants submit nothing."""
    n_schools = draw(st.integers(1, max_schools))
    caps = draw(st.lists(st.integers(1, 3), min_size=n_schools, max_size=n_schools))
    ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=max_applicants, unique=True))
    applicants = [mk_applicant(i, float(draw(st.integers(1, 3))), n_schools) for i in ids]
    prefs = []
    for i in draw(st.permutations(ids)):
        if draw(st.booleans()) or not prefs:
            order = draw(st.permutations(range(1, n_schools + 1)))
            prefs.append(PreferenceList(i, tuple(order[: draw(st.integers(0, n_schools))])))
    lottery = {i: draw(st.sampled_from([0.0, 0.5])) for i in ids}
    return mk_schools(*caps), applicants, prefs, lottery


@settings(max_examples=300, deadline=None)
@given(tied_markets())
def test_boston_matches_scalar_rounds_in_admission_order(market):
    schools, applicants, prefs, lottery = market
    for runner, capped in ((run_meritocratic_boston, True), (run_immediate_acceptance, False)):
        got = runner(schools, applicants, prefs, lottery=lottery)
        want = scalar_boston_rounds(schools, applicants, prefs, lottery, merit_capped=capped)
        assert list(got.placed.items()) == list(want.placed.items())
        assert got.unassigned == want.unassigned


@settings(max_examples=300, deadline=None)
@given(tied_markets())
def test_decentralized_matches_per_school_sort_in_id_order(market):
    schools, applicants, prefs, lottery = market
    apps = [SingleApplication(p.applicant_id, p.ranked[0]) for p in prefs if p.ranked]
    got = run_decentralized(schools, applicants, apps, lottery=lottery)
    placed, unassigned = per_school_top(schools, applicants, apps, lottery)
    assert list(got.placed) == sorted(placed)
    assert {a: p.school_id for a, p in got.placed.items()} == placed
    assert got.unassigned == frozenset(unassigned)


@st.composite
def tied_cohorts(draw, max_schools=6, max_applicants=8):
    """Utilities, outside options and scores from {0, 1, 2}: equal utilities
    and utilities equal to the outside option are common. The schools are
    split into two nonempty groups."""
    n_schools = draw(st.integers(2, max_schools))
    values = st.sampled_from([0.0, 1.0, 2.0])
    applicants = [
        Applicant(
            id=i,
            birth_prefecture=0,
            score=draw(values),
            utility=tuple(draw(st.lists(values, min_size=n_schools, max_size=n_schools))),
            outside_option=draw(values),
        )
        for i in range(draw(st.integers(1, max_applicants)))
    ]
    first = frozenset(draw(st.sets(st.integers(1, n_schools), min_size=1, max_size=n_schools - 1)))
    return applicants, (first, frozenset(range(1, n_schools + 1)) - first)


@settings(max_examples=300, deadline=None)
@given(tied_cohorts())
def test_rankings_match_scalar_code(cohort):
    applicants, groups = cohort
    truthful = [scalar_truthful_ranking(a) for a in applicants]
    grouped = [scalar_grouped_ranking(a, groups) for a in applicants]
    centralized = submit_applications(Cohort.of(applicants), Regime(RegimeKind.CENTRALIZED, 1902))
    two_lists = submit_applications(Cohort.of(applicants), Regime(RegimeKind.GROUPED_CENTRALIZED, 1926, groups))
    assert list(centralized) == [p for p in truthful if p.ranked]
    assert list(two_lists) == [p for p in grouped if p.ranked]
    assert [truthful_ranking(a) for a in applicants] == truthful
    assert [grouped_ranking(a, groups) for a in applicants] == grouped


def test_cohort_and_applications_round_trip():
    applicants = [mk_applicant(7, 2.0, 3, birth=4), mk_applicant(3, 1.0, 3, birth=5)]
    prefs = [PreferenceList(7, (2, 1)), PreferenceList(3, ())]
    assert list(Cohort.of(applicants)) == sorted(applicants, key=lambda a: a.id)
    assert list(Applications.of(prefs)) == sorted(prefs, key=lambda p: p.applicant_id)
    assert list(Applications.of([SingleApplication(5, 2)])) == [PreferenceList(5, (2,))]


# -- input checks ---------------------------------------------------------------

LIST_CASES = {
    "duplicate applicant id": ([mk_applicant(1, 5.0), mk_applicant(1, 4.0)], [(1, (1,))]),
    "unknown applicant": ([mk_applicant(1, 5.0)], [(2, (1,))]),
    "school listed twice": ([mk_applicant(1, 5.0)], [(1, (1, 1))]),
    "unknown school": ([mk_applicant(1, 5.0)], [(1, (4,))]),
    "two lists": ([mk_applicant(1, 5.0), mk_applicant(2, 4.0)], [(1, (1,)), (2, (2,)), (1, (2,))]),
}


@pytest.mark.parametrize("case", sorted(LIST_CASES))
@pytest.mark.parametrize("runner", [run_meritocratic_boston, run_immediate_acceptance, run_serial_dictatorship_da])
def test_ranked_list_checks(runner, case):
    applicants, lists = LIST_CASES[case]
    with pytest.raises(DomainError):
        runner(mk_schools(1, 1, 1), applicants, [PreferenceList(i, r) for i, r in lists])


@pytest.mark.parametrize("case", sorted(set(LIST_CASES) - {"school listed twice"}))
def test_single_application_checks(case):
    applicants, lists = LIST_CASES[case]
    with pytest.raises(DomainError):
        run_decentralized(mk_schools(1, 1, 1), applicants, [SingleApplication(i, r[0]) for i, r in lists])


def test_checks_hold_for_array_input():
    cohort = Cohort.of([mk_applicant(1, 5.0), mk_applicant(2, 4.0)])
    one = np.array([1, 2])
    with pytest.raises(DomainError):  # unknown school
        run_meritocratic_boston(mk_schools(1, 1), cohort, Applications(one, np.array([[1], [9]]), np.ones(2, int)))
    with pytest.raises(DomainError):  # school listed twice
        run_meritocratic_boston(mk_schools(1, 1), cohort, Applications(one, np.array([[1, 2], [2, 2]]), one))
    with pytest.raises(DomainError):  # two lists
        Applications(np.array([1, 1]), np.array([[1], [2]]), np.ones(2, int))
    with pytest.raises(DomainError):  # a list of two schools is not a single application
        run_decentralized(mk_schools(1, 1), cohort, Applications(one, np.array([[1, 0], [1, 2]]), one))
    with pytest.raises(DomainError):
        run_decentralized([], cohort, [])

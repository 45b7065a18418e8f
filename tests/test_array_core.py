"""The array mechanisms and rankings against the scalar code they replaced
(`tests/oracles.py`), on small markets with forced score and utility ties,
including the order in which placements are admitted; and every input check
the array path keeps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritmatch.core import Applicant, DomainError, Regime, RegimeKind, School, SeededRng
from meritmatch.mechanisms import (
    Applications,
    PreferenceList,
    _priority,
    run_decentralized,
    run_immediate_acceptance,
    run_meritocratic_boston,
    run_serial_dictatorship_da,
)
from meritmatch.strategy import submit_applications

from conftest import cohort_of, grouped_ranking, lottery_of, mk_applicant, mk_schools, truthful_ranking
from oracles import per_school_top, scalar_boston_rounds, scalar_grouped_ranking, scalar_truthful_ranking


@st.composite
def tied_markets(draw, max_schools=4, max_applicants=8):
    """Scores in {1, 2, 3}, so whole score classes tie and the lottery decides;
    the submitters are a sparse subset of the cohort's rows, lists arrive in
    any order and may be empty."""
    n_schools = draw(st.integers(1, max_schools))
    caps = draw(st.lists(st.integers(1, 3), min_size=n_schools, max_size=n_schools))
    n = draw(st.integers(1, max_applicants))
    applicants = cohort_of([mk_applicant(i, float(draw(st.integers(1, 3))), n_schools) for i in range(n)])
    prefs = []
    for i in draw(st.permutations(range(n))):
        if draw(st.booleans()) or not prefs:
            order = draw(st.permutations(range(1, n_schools + 1)))
            prefs.append(PreferenceList(i, tuple(order[: draw(st.integers(0, n_schools))])))
    return mk_schools(*caps), applicants, prefs, SeededRng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(tied_markets())
def test_boston_matches_scalar_rounds_in_admission_order(market):
    schools, applicants, prefs, rng = market
    for runner, capped in ((run_meritocratic_boston, True), (run_immediate_acceptance, False)):
        got = runner(schools, applicants, prefs, rng)
        placed, unassigned = scalar_boston_rounds(schools, applicants, prefs, lottery_of(prefs, rng), merit_capped=capped)
        assert list(got.placed.items()) == list(placed.items())
        assert got.unassigned.tolist() == sorted(unassigned)


@settings(max_examples=300, deadline=None)
@given(tied_markets())
def test_decentralized_matches_per_school_sort_in_id_order(market):
    schools, applicants, prefs, rng = market
    apps = [PreferenceList(p.applicant_id, p.ranked[:1]) for p in prefs if p.ranked]
    got = run_decentralized(schools, applicants, apps, rng)
    placed, unassigned = per_school_top(schools, applicants, apps, lottery_of(apps, rng))
    assert list(got.placed) == sorted(placed)
    assert {a: p.school_id for a, p in got.placed.items()} == placed
    assert got.unassigned.tolist() == sorted(unassigned)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([1.0, 2.0, 3.0, -0.0, 0.0]), st.sampled_from([0.0, 0.5])), max_size=30))
def test_priority_matches_lexsort(rows):
    # whole runs of equal scores and equal draws, so the row decides
    scores, ties = np.array(rows, dtype=float).reshape(-1, 2).T
    expected = np.lexsort((np.arange(len(rows)), ties, -scores))
    assert _priority(scores, ties).tolist() == expected.tolist()


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
    centralized = submit_applications(cohort_of(applicants), Regime(RegimeKind.CENTRALIZED, 1902))
    two_lists = submit_applications(cohort_of(applicants), Regime(RegimeKind.GROUPED_CENTRALIZED, 1926, groups))
    assert list(centralized) == [p for p in truthful if p.ranked]
    assert list(two_lists) == [p for p in grouped if p.ranked]
    assert [truthful_ranking(a) for a in applicants] == truthful
    assert [grouped_ranking(a, groups) for a in applicants] == grouped


def test_cohort_and_applications_round_trip():
    applicants = [mk_applicant(0, 2.0, 3, birth=4), mk_applicant(1, 1.0, 3, birth=5)]
    prefs = [PreferenceList(1, (2, 1)), PreferenceList(0, ())]
    assert list(cohort_of(applicants)) == applicants
    assert list(Applications.of(prefs)) == sorted(prefs, key=lambda p: p.applicant_id)


# -- input checks ---------------------------------------------------------------

# a submitter's id is its cohort row: "unknown applicant" submits row len(cohort)
LIST_CASES = {
    "unknown applicant": ([mk_applicant(0, 5.0)], [(1, (1,))]),
    "negative row": ([mk_applicant(0, 5.0)], [(-1, (1,))]),
    "empty cohort": ([], [(0, (1,))]),
    "school listed twice": ([mk_applicant(0, 5.0)], [(0, (1, 1))]),
    "unknown school": ([mk_applicant(0, 5.0)], [(0, (4,))]),
    "school 0": ([mk_applicant(0, 5.0)], [(0, (0,))]),
    "negative school": ([mk_applicant(0, 5.0)], [(0, (-1,))]),
    "two lists": ([mk_applicant(0, 5.0), mk_applicant(1, 4.0)], [(0, (1,)), (1, (2,)), (0, (2,))]),
}


@pytest.mark.parametrize("case", sorted(LIST_CASES))
@pytest.mark.parametrize("runner", [run_meritocratic_boston, run_immediate_acceptance, run_serial_dictatorship_da])
def test_ranked_list_checks(runner, case):
    applicants, lists = LIST_CASES[case]
    with pytest.raises(DomainError):
        runner(mk_schools(1, 1, 1), cohort_of(applicants), [PreferenceList(i, r) for i, r in lists], SeededRng(0))


@pytest.mark.parametrize("case", sorted(set(LIST_CASES) - {"school listed twice"}))
def test_single_application_checks(case):
    applicants, lists = LIST_CASES[case]
    with pytest.raises(DomainError):
        run_decentralized(mk_schools(1, 1, 1), cohort_of(applicants), [PreferenceList(i, r[:1]) for i, r in lists], SeededRng(0))


@pytest.mark.parametrize("runner", [run_meritocratic_boston, run_serial_dictatorship_da, run_decentralized])
def test_school_ids_must_be_one_to_s(runner):
    # a school's market index is its id - 1
    schools = [School(2, 0, 1, 9.0), School(3, 0, 1, 8.0)]
    with pytest.raises(DomainError, match=r"school ids must be 1\.\.S, got \[2, 3\]"):
        runner(schools, cohort_of([mk_applicant(0, 5.0)]), [PreferenceList(0, (2,))], SeededRng(0))


@settings(max_examples=100, deadline=None)
@given(tied_markets())
def test_school_order_does_not_matter(market):
    schools, applicants, prefs, rng = market
    singles = [PreferenceList(p.applicant_id, p.ranked[:1]) for p in prefs if p.ranked]
    for runner, lists in (
        (run_meritocratic_boston, prefs),
        (run_serial_dictatorship_da, prefs),
        (run_decentralized, singles),
    ):
        forward, backward = (runner(s, applicants, lists, rng) for s in (schools, schools[::-1]))
        for name in ("ids", "school_ids", "ranks", "unassigned"):
            assert np.array_equal(getattr(forward, name), getattr(backward, name))


def test_checks_hold_for_array_input():
    cohort = cohort_of([mk_applicant(0, 5.0), mk_applicant(1, 4.0)])
    rows, lengths, rng = np.array([0, 1]), np.array([1, 2]), SeededRng(0)
    with pytest.raises(DomainError):  # unknown school
        run_meritocratic_boston(mk_schools(1, 1), cohort, Applications(rows, np.array([[1], [9]]), np.ones(2, int)), rng)
    with pytest.raises(DomainError):  # school listed twice
        run_meritocratic_boston(mk_schools(1, 1), cohort, Applications(rows, np.array([[1, 2], [2, 2]]), lengths), rng)
    with pytest.raises(DomainError):  # two lists
        Applications(np.array([0, 0]), np.array([[1], [2]]), np.ones(2, int))
    with pytest.raises(DomainError):  # a list of two schools is not a single application
        run_decentralized(mk_schools(1, 1), cohort, Applications(rows, np.array([[1, 0], [1, 2]]), lengths), rng)
    with pytest.raises(DomainError):
        run_decentralized([], cohort, [], rng)

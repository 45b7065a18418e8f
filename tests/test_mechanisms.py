import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meritmatch.core import Applicant, DomainError, Regime, RegimeKind, SeededRng
from meritmatch.mechanisms import (
    PreferenceList,
    _market,
    run_decentralized,
    run_grouped_centralized,
    run_immediate_acceptance,
    run_meritocratic_boston,
    run_serial_dictatorship_da,
    select_merit_pool,
)
from meritmatch.strategy import submit_applications

from conftest import cohort_of, lottery_of, mk_applicant, mk_schools
from oracles import per_school_top, printed_steps_assignment

RNG = SeededRng(0)


# -- merit pool ----------------------------------------------------------------


def _pool(capacity, applicants, rng=RNG):
    """The merit pool of one school with `capacity` seats that every
    applicant lists; returns (pool ids, pool)."""
    prefs = [PreferenceList(a.id, (1,)) for a in applicants]
    market = _market(mk_schools(capacity), cohort_of(applicants), prefs, rng)
    pool = select_merit_pool(market)
    return set(market.ids[pool.rows].tolist()), pool


def test_merit_pool_no_ties():
    selected, pool = _pool(2, [mk_applicant(0, 90), mk_applicant(1, 80), mk_applicant(2, 70)])
    assert selected == {0, 1}
    assert pool.cutoff_score == 80
    assert not pool.lottery_used


def test_merit_pool_lottery_on_tie():
    apps = [mk_applicant(0, 90), mk_applicant(1, 80), mk_applicant(2, 80)]
    picks = set()
    for seed in range(20):
        selected, pool = _pool(2, apps, SeededRng(seed))
        assert 0 in selected
        assert pool.lottery_used
        assert pool.cutoff_score == 80
        picks |= selected - {0}
    assert picks == {1, 2}  # both tied applicants win sometimes


def test_merit_pool_boundary_all_selected():
    selected, pool = _pool(5, [mk_applicant(0, 90), mk_applicant(1, 80)])
    assert selected == {0, 1}
    assert pool.cutoff_score == -math.inf
    assert not pool.lottery_used


def test_merit_pool_requires_positive_capacity():
    with pytest.raises(DomainError):
        _pool(0, [mk_applicant(0, 1)])


def test_merit_pool_ranks_submitters_only():
    # the top scorer finds no school acceptable and submits no list: the pool
    # is the top two submitters, cut at the second submitter's score
    schools = mk_schools(1, 1)
    cohort = cohort_of([
        Applicant(0, 0, 100.0, (1.0, 1.0), 2.0),
        Applicant(1, 0, 90.0, (2.0, 1.0), 0.0),
        Applicant(2, 0, 80.0, (1.0, 2.0), 0.0),
        Applicant(3, 0, 70.0, (2.0, 1.0), 0.0),
    ])
    apps = submit_applications(cohort, Regime(RegimeKind.CENTRALIZED, 1902))
    assert apps.ids.tolist() == [1, 2, 3]
    market = _market(schools, cohort, apps, RNG)
    pool = select_merit_pool(market)
    assert market.ids[pool.rows].tolist() == [1, 2]
    assert pool.cutoff_score == 80.0
    assert not pool.lottery_used
    a = run_meritocratic_boston(schools, cohort, apps, RNG)
    assert {i: p.school_id for i, p in a.placed.items()} == {1: 1, 2: 2}
    assert a.unassigned.tolist() == [3]


def test_each_run_draws_the_lottery_once(xyz_instance, monkeypatch):
    schools, applicants, prefs = xyz_instance
    draws = []
    generator = SeededRng.generator

    def counted(rng):
        draws.append(rng)
        return generator(rng)

    monkeypatch.setattr(SeededRng, "generator", counted)
    groups = (frozenset({1, 2}), frozenset({3}))
    run_meritocratic_boston(schools, applicants, prefs, RNG)
    run_immediate_acceptance(schools, applicants, prefs, RNG)
    run_serial_dictatorship_da(schools, applicants, prefs, RNG)
    run_grouped_centralized(schools, applicants, [PreferenceList(0, (1, 3))], groups, RNG)
    run_decentralized(schools, applicants, [PreferenceList(0, (1,))], RNG)
    assert draws == [RNG] * 5


# -- merit-capped Boston ---------------------------------------------------------


def test_merit_boston_xyz_trace(xyz_instance):
    schools, applicants, prefs = xyz_instance
    a = run_meritocratic_boston(schools, applicants, prefs, RNG)
    assert a.placed[0].school_id == 1 and a.placed[0].preference_rank_obtained == 1
    assert a.placed[2].school_id == 2 and a.placed[2].preference_rank_obtained == 1
    assert a.placed[1].school_id == 3 and a.placed[1].preference_rank_obtained == 3
    assert a.unassigned.tolist() == []


def test_merit_boston_single_school():
    schools = mk_schools(1)
    applicants = cohort_of([mk_applicant(0, 90, 1), mk_applicant(1, 80, 1)])
    prefs = [PreferenceList(0, (1,)), PreferenceList(1, (1,))]
    a = run_meritocratic_boston(schools, applicants, prefs, RNG)
    assert a.placed[0].school_id == 1
    assert a.unassigned.tolist() == [1]


def test_merit_boston_full_lists_nobody_unassigned():
    schools = mk_schools(2, 2)
    applicants = cohort_of([mk_applicant(i, 50 + i, 2) for i in range(4)])
    prefs = [PreferenceList(i, (1, 2)) for i in range(4)]
    a = run_meritocratic_boston(schools, applicants, prefs, RNG)
    assert a.unassigned.tolist() == []
    assert len(a.placed) == 4


def test_merit_boston_empty_prefs():
    a = run_meritocratic_boston(mk_schools(1), cohort_of([mk_applicant(0, 1, 1)]), [], RNG)
    assert a.placed == {} and a.unassigned.tolist() == []


def test_merit_boston_matches_printed_steps_on_random_instances():
    gen = np.random.default_rng(1234)
    for trial in range(400):
        n_schools = int(gen.integers(1, 5))
        caps = [int(gen.integers(1, 3)) for _ in range(n_schools)]
        schools = mk_schools(*caps)
        n = int(gen.integers(1, 8))
        scores = gen.choice([1.0, 2.0, 3.0, 4.0], size=n)
        applicants = cohort_of([mk_applicant(i, float(scores[i]), n_schools) for i in range(n)])
        prefs = []
        for i in range(n):
            length = int(gen.integers(1, n_schools + 1))
            ranked = tuple(int(s) for s in gen.permutation(n_schools)[:length] + 1)
            prefs.append(PreferenceList(i, ranked))
        rng = SeededRng(1234, trial)
        tie = lottery_of(prefs, rng)

        mine = run_meritocratic_boston(schools, applicants, prefs, rng)
        placed, unassigned, pool = printed_steps_assignment(schools, applicants, prefs, tie)
        # round r of the printed steps admits at the r-th school of the list
        assert {a: (p.school_id, p.preference_rank_obtained) for a, p in mine.placed.items()} == placed
        assert mine.unassigned.tolist() == sorted(unassigned)
        assert set(mine.placed) <= pool


# -- serial dictatorship ---------------------------------------------------------


def test_serial_dictatorship_xyz(xyz_instance):
    schools, applicants, prefs = xyz_instance
    a = run_serial_dictatorship_da(schools, applicants, prefs, RNG)
    assert a.placed[0].school_id == 1
    assert a.placed[1].school_id == 2
    assert a.placed[2].school_id == 3
    assert a.placed[2].preference_rank_obtained == 2  # z listed (2, 3)


def test_serial_dictatorship_empty():
    a = run_serial_dictatorship_da(mk_schools(1), cohort_of([]), [], RNG)
    assert a.placed == {} and a.unassigned.tolist() == []


def test_serial_dictatorship_single_applicant_gets_first_choice():
    schools = mk_schools(1, 1)
    a = run_serial_dictatorship_da(schools, cohort_of([mk_applicant(0, 10, 2)]), [PreferenceList(0, (2, 1))], RNG)
    assert a.placed[0].school_id == 2
    assert a.placed[0].preference_rank_obtained == 1


def test_xyz_divergent_placements_same_set(xyz_instance):
    schools, applicants, prefs = xyz_instance
    boston = run_meritocratic_boston(schools, applicants, prefs, RNG)
    da = run_serial_dictatorship_da(schools, applicants, prefs, RNG)
    placements_b = {a: p.school_id for a, p in boston.placed.items()}
    placements_d = {a: p.school_id for a, p in da.placed.items()}
    assert placements_b != placements_d
    assert set(boston.placed) == set(da.placed)


# -- pure Boston -----------------------------------------------------------------


def test_immediate_acceptance_equals_merit_boston_when_pool_not_binding(xyz_instance):
    schools, applicants, prefs = xyz_instance
    pure = run_immediate_acceptance(schools, applicants, prefs, RNG)
    merit = run_meritocratic_boston(schools, applicants, prefs, RNG)
    assert pure.placed == merit.placed


def test_pure_boston_admits_outside_merit_pool():
    # two seats, three applicants; the low scorer uniquely lists school 2,
    # which nobody else wants
    schools = mk_schools(1, 1)
    applicants = cohort_of([mk_applicant(0, 90, 2), mk_applicant(1, 80, 2), mk_applicant(2, 10, 2)])
    prefs = [
        PreferenceList(0, (1,)),
        PreferenceList(1, (1,)),
        PreferenceList(2, (2,)),
    ]
    pure = run_immediate_acceptance(schools, applicants, prefs, RNG)
    merit = run_meritocratic_boston(schools, applicants, prefs, RNG)
    assert 2 in pure.placed  # school 2 takes the only applicant who asked
    assert 2 not in merit.placed  # outside the top-2 pool
    assert set(merit.placed) == {0}  # applicant 1's list is exhausted


def test_pure_boston_single_applicant():
    schools = mk_schools(1, 1)
    a = run_immediate_acceptance(schools, cohort_of([mk_applicant(0, 5, 2)]), [PreferenceList(0, (2, 1))], RNG)
    assert a.placed[0].school_id == 2


# -- decentralized ---------------------------------------------------------------


def test_decentralized_rejects_lowest():
    schools = mk_schools(2)
    applicants = cohort_of([mk_applicant(0, 90, 1), mk_applicant(1, 80, 1), mk_applicant(2, 70, 1)])
    apps = [PreferenceList(i, (1,)) for i in range(3)]
    a = run_decentralized(schools, applicants, apps, RNG)
    assert set(a.placed) == {0, 1}
    assert a.unassigned.tolist() == [2]


def test_decentralized_undersubscribed_admits_anyone():
    schools = mk_schools(2, 2)
    a = run_decentralized(schools, cohort_of([mk_applicant(0, 1.0, 2)]), [PreferenceList(0, (2,))], RNG)
    assert a.placed[0].school_id == 2


def test_decentralized_misses_talent_when_split_badly(xyz_instance):
    # x and y both pick school 1 (one seat): y loses despite outscoring z
    schools, applicants, _ = xyz_instance
    apps = [PreferenceList(0, (1,)), PreferenceList(1, (1,)), PreferenceList(2, (2,))]
    a = run_decentralized(schools, applicants, apps, RNG)
    assert set(a.placed) == {0, 2}
    assert 1 in a.unassigned


def test_decentralized_duplicate_application_rejected():
    schools = mk_schools(1)
    applicants = cohort_of([mk_applicant(0, 1, 1)])
    with pytest.raises(DomainError):
        run_decentralized(schools, applicants, [PreferenceList(0, (1,)), PreferenceList(0, (1,))], RNG)


def test_decentralized_matches_per_school_sort():
    gen = np.random.default_rng(99)
    for trial in range(200):
        n_schools = int(gen.integers(1, 5))
        caps = [int(gen.integers(1, 4)) for _ in range(n_schools)]
        schools = mk_schools(*caps)
        n = int(gen.integers(1, 12))
        scores = gen.choice([1.0, 2.0, 3.0], size=n)
        applicants = cohort_of([mk_applicant(i, float(scores[i]), n_schools) for i in range(n)])
        apps = [PreferenceList(i, (int(gen.integers(1, n_schools + 1)),)) for i in range(n)]
        rng = SeededRng(99, trial)
        tie = lottery_of(apps, rng)
        mine = run_decentralized(schools, applicants, apps, rng)
        placed, unassigned = per_school_top(schools, applicants, apps, tie)
        assert {a: p.school_id for a, p in mine.placed.items()} == placed
        assert mine.unassigned.tolist() == sorted(unassigned)


# -- grouped centralized ---------------------------------------------------------


def test_grouped_single_entries_reduce_to_merit_boston():
    schools = mk_schools(1, 1, 1, 1)
    groups = (frozenset({1, 3}), frozenset({2, 4}))
    applicants = cohort_of([mk_applicant(i, 10.0 * (i + 1), 4) for i in range(5)])
    prefs = [PreferenceList(i, (1 + ((i + 1) % 4),)) for i in range(5)]
    grouped = run_grouped_centralized(schools, applicants, prefs, groups, RNG)
    plain = run_meritocratic_boston(schools, applicants, prefs, RNG)
    assert grouped.placed == plain.placed
    assert grouped.unassigned.tolist() == plain.unassigned.tolist()


def test_grouped_all_in_one_group_matches_decentralized_on_pool():
    # single-entry lists with groups ({all}, {}) is not a valid partition, so
    # model "one choice each" with every second group entry empty: compare with
    # the decentralized rule restricted to the merit pool, under the same lottery
    gen = np.random.default_rng(5)
    for trial in range(100):
        caps = [int(gen.integers(1, 3)) for _ in range(3)]
        schools = mk_schools(*caps)
        n = int(gen.integers(1, 9))
        applicants = cohort_of([mk_applicant(i, float(gen.choice([1.0, 2.0, 3.0, 4.0])), 3) for i in range(n)])
        prefs = [PreferenceList(i, (int(gen.integers(1, 4)),)) for i in range(n)]
        rng = SeededRng(5, trial)
        groups = (frozenset({1, 2}), frozenset({3}))
        grouped = run_grouped_centralized(schools, applicants, prefs, groups, rng)

        market = _market(schools, applicants, prefs, rng)
        pool = set(market.ids[select_merit_pool(market).rows].tolist())
        pool_prefs = [p for p in prefs if p.applicant_id in pool]
        placed, _ = per_school_top(schools, applicants, pool_prefs, lottery_of(prefs, rng))
        assert {a: p.school_id for a, p in grouped.placed.items()} == placed


def test_grouped_xyz_trace(xyz_instance):
    schools, applicants, _ = xyz_instance
    groups = (frozenset({1, 2}), frozenset({3}))
    prefs = [
        PreferenceList(0, (1, 3)),
        PreferenceList(1, (1, 3)),
        PreferenceList(2, (2, 3)),
    ]
    a = run_grouped_centralized(schools, applicants, prefs, groups, RNG)
    assert a.placed[0].school_id == 1
    assert a.placed[2].school_id == 2
    assert a.placed[1].school_id == 3


def test_grouped_rejects_two_schools_from_one_group(xyz_instance):
    schools, applicants, _ = xyz_instance
    groups = (frozenset({1, 2}), frozenset({3}))
    with pytest.raises(DomainError):
        run_grouped_centralized(schools, applicants, [PreferenceList(0, (1, 2))], groups, RNG)


def test_grouped_requires_partition(xyz_instance):
    schools, applicants, _ = xyz_instance
    with pytest.raises(DomainError):
        run_grouped_centralized(schools, applicants, [], (frozenset({1}), frozenset({3})), RNG)
    # an empty group: the library and config resolution agree it is no partition
    empty = (frozenset({1, 2, 3}), frozenset())
    with pytest.raises(DomainError, match="two nonempty parts"):
        run_grouped_centralized(schools, applicants, [], empty, RNG)
    with pytest.raises(DomainError, match="two nonempty parts"):
        submit_applications(applicants, Regime(RegimeKind.GROUPED_CENTRALIZED, 1926, empty))


# -- admitted sets ---------------------------------------------------------------


def test_admitted_set_empty():
    a = run_meritocratic_boston(mk_schools(1), cohort_of([]), [], RNG)
    assert set(a.placed) == set()
    assert a.unassigned.tolist() == []


def test_admitted_set_xyz(xyz_instance):
    schools, applicants, prefs = xyz_instance
    assert set(run_meritocratic_boston(schools, applicants, prefs, RNG).placed) == {0, 1, 2}


# -- shared lottery ----------------------------------------------------------------


def test_same_rng_gives_same_pool_across_mechanisms():
    applicants = cohort_of([mk_applicant(i, 5.0, 2) for i in range(6)])  # all tied
    prefs = [PreferenceList(i, (1, 2)) for i in range(6)]
    schools = mk_schools(1, 1)
    rng = SeededRng(77)
    b = run_meritocratic_boston(schools, applicants, prefs, rng)
    d = run_serial_dictatorship_da(schools, applicants, prefs, rng)
    assert set(b.placed) == set(d.placed)


# -- truncated-list counterexample -------------------------------------------------


def test_truncated_lists_can_split_admitted_sets():
    # A(1), B(1), C(1); x ranks (2, 1), y ranks (2, 3), z ranks (3,).
    schools = mk_schools(1, 1, 1)
    applicants = cohort_of([mk_applicant(0, 100, 3), mk_applicant(1, 90, 3), mk_applicant(2, 80, 3)])
    prefs = [
        PreferenceList(0, (2, 1)),
        PreferenceList(1, (2, 3)),
        PreferenceList(2, (3,)),
    ]
    boston = run_meritocratic_boston(schools, applicants, prefs, RNG)
    da = run_serial_dictatorship_da(schools, applicants, prefs, RNG)
    assert set(boston.placed) == {0, 2}
    assert set(da.placed) == {0, 1}
    assert set(boston.placed) != set(da.placed)


# -- property tests ---------------------------------------------------------------


@st.composite
def market_instances(draw, max_schools=4, max_cap=2, max_applicants=6, complete=False):
    n_schools = draw(st.integers(1, max_schools))
    caps = draw(st.lists(st.integers(1, max_cap), min_size=n_schools, max_size=n_schools))
    n = draw(st.integers(1, max_applicants))
    scores = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    perms = list(itertools.permutations(range(1, n_schools + 1)))
    prefs = []
    for i in range(n):
        order = draw(st.sampled_from(perms))
        if complete:
            ranked = order
        else:
            length = draw(st.integers(1, n_schools))
            ranked = order[:length]
        prefs.append(PreferenceList(i, tuple(ranked)))
    applicants = cohort_of([mk_applicant(i, float(scores[i]), n_schools) for i in range(n)])
    return mk_schools(*caps), applicants, prefs, SeededRng(draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=300, deadline=None)
@given(market_instances())
def test_capacity_feasibility_all_mechanisms(instance):
    schools, applicants, prefs, rng = instance
    for runner in (run_meritocratic_boston, run_immediate_acceptance, run_serial_dictatorship_da):
        a = runner(schools, applicants, prefs, rng)
        counts = {}
        for p in a.placed.values():
            counts[p.school_id] = counts.get(p.school_id, 0) + 1
        for s in schools:
            assert counts.get(s.id, 0) <= s.capacity
        # placed and unassigned partition the submitters
        submitters = {p.applicant_id for p in prefs}
        assert set(a.placed) | set(a.unassigned) == submitters
        assert not set(a.placed) & set(a.unassigned)


@settings(max_examples=300, deadline=None)
@given(market_instances())
def test_merit_containment(instance):
    # the pool is the top total-capacity submitters by (score, draw, id), and
    # every entrant is in it
    schools, applicants, prefs, rng = instance
    tie = lottery_of(prefs, rng)
    score = {x.id: x.score for x in applicants}
    want = sorted(tie, key=lambda i: (-score[i], tie[i], i))[: sum(s.capacity for s in schools)]
    market = _market(schools, applicants, prefs, rng)
    assert market.ids[select_merit_pool(market).rows].tolist() == want
    a = run_meritocratic_boston(schools, applicants, prefs, rng)
    assert set(a.placed) <= set(want)


@settings(max_examples=300, deadline=None)
@given(market_instances(complete=True))
def test_set_equivalence_complete_lists(instance):
    schools, applicants, prefs, rng = instance
    b = run_meritocratic_boston(schools, applicants, prefs, rng)
    d = run_serial_dictatorship_da(schools, applicants, prefs, rng)
    assert set(b.placed) == set(d.placed)


@settings(max_examples=300, deadline=None)
@given(market_instances())
def test_boston_round_equals_rank_and_monotone(instance):
    schools, applicants, prefs, rng = instance
    for runner in (run_meritocratic_boston, run_immediate_acceptance):
        a = runner(schools, applicants, prefs, rng)
        ranked = {p.applicant_id: p.ranked for p in prefs}
        for aid, placement in a.placed.items():
            assert ranked[aid][placement.preference_rank_obtained - 1] == placement.school_id


@settings(max_examples=300, deadline=None)
@given(market_instances(complete=True))
def test_serial_dictatorship_stability(instance):
    # no applicant prefers a school that admitted someone with lower
    # tie-broken score priority
    schools, applicants, prefs, rng = instance
    a = run_serial_dictatorship_da(schools, applicants, prefs, rng)
    lottery = lottery_of(prefs, rng)
    score = {x.id: x.score for x in applicants}
    prio = {x.id: (-score[x.id], lottery[x.id], x.id) for x in applicants}
    admitted_by_school = {}
    for aid, p in a.placed.items():
        admitted_by_school.setdefault(p.school_id, []).append(aid)
    caps = {s.id: s.capacity for s in schools}
    ranked = {p.applicant_id: p.ranked for p in prefs}
    for p in prefs:
        aid = p.applicant_id
        current_rank = a.placed[aid].preference_rank_obtained if aid in a.placed else len(p.ranked) + 1
        for rank, sid in enumerate(p.ranked, start=1):
            if rank >= current_rank:
                break
            # aid prefers sid to their placement: sid must be full of
            # higher-priority applicants
            winners = admitted_by_school.get(sid, [])
            assert len(winners) == caps[sid]
            assert all(prio[w] < prio[aid] for w in winners)


def test_random_instance_equivalence_battery():
    # 10^4 random complete-list instances: merit-Boston and the serial
    # dictatorship admit the same set under a shared lottery
    gen = np.random.default_rng(2024)
    orders_by_s = {s: list(itertools.permutations(range(1, s + 1))) for s in (1, 2, 3, 4)}
    for trial in range(10_000):
        n_schools = int(gen.integers(1, 5))
        caps = [int(gen.integers(1, 3)) for _ in range(n_schools)]
        schools = mk_schools(*caps)
        n = int(gen.integers(1, 7))
        if gen.random() < 0.5:
            scores = gen.choice([1.0, 2.0], size=n)  # heavy ties
        else:
            scores = gen.permutation(np.arange(1.0, n + 1.0))
        applicants = cohort_of([mk_applicant(i, float(scores[i]), n_schools) for i in range(n)])
        orders = orders_by_s[n_schools]
        prefs = [
            PreferenceList(i, orders[int(gen.integers(0, len(orders)))]) for i in range(n)
        ]
        rng = SeededRng(2024, trial)
        b = run_meritocratic_boston(schools, applicants, prefs, rng)
        d = run_serial_dictatorship_da(schools, applicants, prefs, rng)
        assert set(b.placed) == set(d.placed)

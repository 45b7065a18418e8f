import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from meritmatch import strategy
from meritmatch.config import build_scenario
from meritmatch.core import Applicant, Cohort, DomainError, Regime, RegimeKind, SeededRng
from meritmatch.mechanisms import PreferenceList
from meritmatch.popgen import DEFAULT_GROUPS, generate_applicants
from meritmatch.strategy import (
    BehaviorParams,
    _realized_cutoffs,
    equilibrium_cutoffs,
    single_applications,
    submit_applications,
)

from conftest import cohort_of, grouped_ranking, mk_schools, truthful_ranking
from oracles import (
    admit_probability,
    admitted_cutoffs,
    argsort_truthful_lists,
    choose_single_application,
    lexsort_equilibrium_cutoffs,
    lexsort_grouped_lists,
    scipy_best_response,
)

GOLDEN = Path(__file__).parent / "golden"


def _app(aid, score, utility, outside=0.0, birth=0):
    return Applicant(id=aid, birth_prefecture=birth, score=score, utility=tuple(utility), outside_option=outside)


# -- truthful ranking -----------------------------------------------------------


def test_truthful_ranking_abstains_when_nothing_beats_outside():
    a = _app(1, 50, (1.0, 2.0), outside=3.0)
    assert truthful_ranking(a).ranked == ()


def test_truthful_ranking_orders_by_utility():
    a = _app(1, 50, (5.0, 3.0, 4.0), outside=0.0)
    assert truthful_ranking(a).ranked == (1, 3, 2)


def test_truthful_ranking_ties_break_to_lower_school_id():
    a = _app(1, 50, (4.0, 5.0, 5.0), outside=0.0)
    assert truthful_ranking(a).ranked == (2, 3, 1)


# -- admit probability (scalar reference in oracles.py) -----------------------------


def test_admit_probability_half_at_cutoff():
    assert admit_probability(60.0, 60.0, 5.0) == pytest.approx(0.5)


def test_admit_probability_step_at_sigma_zero():
    assert admit_probability(61.0, 60.0, 0.0) == 1.0
    assert admit_probability(59.0, 60.0, 0.0) == 0.0
    assert admit_probability(60.0, 60.0, 0.0) == 0.5


def test_admit_probability_one_sigma():
    assert admit_probability(65.0, 60.0, 5.0) == pytest.approx(0.8413, abs=2e-4)


def test_admit_probability_no_cutoff():
    assert admit_probability(1.0, -math.inf, 3.0) == 1.0
    assert admit_probability(1.0, -math.inf, 0.0) == 1.0


# -- single application choice (scalar reference in oracles.py) ----------------------


def test_choose_single_only_one_acceptable_school():
    beliefs = (0.0, 0.0)
    a = _app(1, 50, (5.0, -1.0), outside=0.0)
    app = choose_single_application(a, beliefs, BehaviorParams(score_noise_sd=5.0))
    assert app == PreferenceList(applicant_id=1, ranked=(1,))


def test_choose_single_abstains():
    beliefs = (0.0, 0.0)
    a = _app(1, 50, (-1.0, -2.0), outside=0.0)
    assert choose_single_application(a, beliefs, BehaviorParams()) is None


def test_choose_single_expected_value_arithmetic():
    # P = (0.1, 0.9), surpluses (10, 6) -> EV (1.0, 5.4) -> school 2
    sigma = 10.0
    z = 1.2815515655446004  # Phi(z) = 0.9
    beliefs = (50 + z * sigma, 50 - z * sigma)
    a = _app(1, 50.0, (10.0, 6.0), outside=0.0)
    app = choose_single_application(a, beliefs, BehaviorParams(score_noise_sd=sigma))
    assert app.ranked == (2,)


def test_choose_single_high_sigma_limit_takes_best_school():
    # probabilities flatten to ~1/2 -> argmax utility (risk taking)
    beliefs = (80.0, 10.0)
    a = _app(1, 50.0, (10.0, 6.0), outside=0.0)
    app = choose_single_application(a, beliefs, BehaviorParams(score_noise_sd=1e6))
    assert app.ranked == (1,)


def test_choose_single_affine_invariance():
    gen = np.random.default_rng(8)
    params = BehaviorParams(score_noise_sd=7.0)
    beliefs = (60.0, 50.0, 40.0)
    for _ in range(200):
        u = gen.normal(5, 3, size=3)
        out = gen.normal(0, 2)
        score = gen.normal(50, 10)
        a = _app(1, score, u, outside=out)
        base = choose_single_application(a, beliefs, params)
        k = gen.uniform(0.1, 10)
        # scale surpluses by k: utility' - outside' = k (utility - outside)
        a2 = _app(1, score, out + k * (u - out), outside=out)
        scaled = choose_single_application(a2, beliefs, params)
        assert (base is None) == (scaled is None)
        if base is not None:
            assert base.ranked == scaled.ranked


# -- equilibrium -------------------------------------------------------------------


def test_equilibrium_trivial_when_capacity_exceeds_demand():
    schools = mk_schools(5, 5)
    apps = cohort_of([_app(i, 50 + i, (6.0, 5.0), outside=0.0) for i in range(3)])
    beliefs, iters, resid = equilibrium_cutoffs(schools, apps, BehaviorParams(score_noise_sd=5.0))
    assert beliefs.tolist() == [-math.inf, -math.inf]
    assert iters == 1
    assert resid == 0.0


def test_equilibrium_one_school_cutoff_is_marginal_score():
    schools = mk_schools(1)
    apps = cohort_of([_app(0, 90.0, (10.0,)), _app(1, 80.0, (10.0,))])
    params = BehaviorParams(score_noise_sd=1.0, tol=1e-6, max_iter=100)
    beliefs, iters, resid = equilibrium_cutoffs(schools, apps, params)
    assert resid < params.tol
    assert beliefs[0] == pytest.approx(90.0, abs=1e-4)


def test_equilibrium_default_scenario_golden():
    sc = build_scenario()
    params = BehaviorParams()
    apps = generate_applicants(sc, 1900, SeededRng(0))
    beliefs, iters, resid = equilibrium_cutoffs(sc.schools, apps, params)
    golden = json.loads((GOLDEN / "equilibrium_seed0.json").read_text())
    assert resid < params.tol
    assert iters == golden["iterations"]
    assert golden["school_ids"] == list(range(1, len(beliefs) + 1))
    assert np.allclose(beliefs, golden["cutoffs"], atol=1e-9)
    # the most selective school carries the highest cutoff
    assert beliefs[0] == beliefs.max()


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_equilibrium_deterministic_given_seed():
    sc = build_scenario(0.05)
    apps = generate_applicants(sc, 1900, SeededRng(3))
    params = BehaviorParams()
    r1 = equilibrium_cutoffs(sc.schools, apps, params)
    r2 = equilibrium_cutoffs(sc.schools, apps, params)
    assert r1[0].tobytes() == r2[0].tobytes() and r1[1:] == r2[1:]


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_equilibrium_damping_one_is_undamped():
    schools = mk_schools(1, 1)
    apps = cohort_of([_app(i, 40.0 + 5 * i, (8.0, 6.0), outside=0.0) for i in range(5)])
    params = BehaviorParams(score_noise_sd=4.0, damping=1.0, tol=1e-300, max_iter=7)
    beliefs, _, _ = equilibrium_cutoffs(schools, apps, params)

    # manual undamped iteration with the same floor convention
    from meritmatch.strategy import _belief_floor, _best_response

    scores, utils, outside = apps.score, apps.utility, apps.outside
    floor = _belief_floor(scores, 4.0)
    ties = np.zeros(len(apps))
    caps = np.array([1, 1])
    cut = np.full(2, floor)
    under = np.ones(2, dtype=bool)
    for _ in range(7):
        choice = _best_response(scores, np.ascontiguousarray((utils - outside[:, None]).T), 4.0)(cut)
        realized = admitted_cutoffs(choice, scores, ties, caps)
        under = np.isneginf(realized)
        cut = np.where(under, floor, realized)
    expected = np.where(under, -np.inf, cut)
    assert np.allclose(beliefs, expected)


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_equilibrium_shift_invariance():
    sc = build_scenario(0.05)
    params = BehaviorParams()
    apps = generate_applicants(sc, 1905, SeededRng(4))
    shift = 25.0
    shifted = cohort_of(
        [Applicant(a.id, a.birth_prefecture, a.score + shift, a.utility, a.outside_option) for a in apps]
    )
    base, _, _ = equilibrium_cutoffs(sc.schools, apps, params)
    moved, _, _ = equilibrium_cutoffs(sc.schools, shifted, params)
    for c0, c1 in zip(base.tolist(), moved.tolist()):
        if math.isinf(c0):
            assert math.isinf(c1)
        else:
            assert c1 - c0 == pytest.approx(shift, abs=1e-8)
    # admission probabilities for any fixed applicant are unchanged
    a0 = next(iter(apps))
    for c0, c1 in zip(base.tolist(), moved.tolist()):
        p0 = admit_probability(a0.score, c0, params.score_noise_sd)
        p1 = admit_probability(a0.score + shift, c1, params.score_noise_sd)
        assert p1 == pytest.approx(p0, abs=1e-9)
    # and the chosen applications coincide
    apps0 = single_applications(apps, base, params)
    apps1 = single_applications(shifted, moved, params)
    assert list(apps0) == list(apps1)


# -- the normal CDF and the screened best response --------------------------------


def test_ndtr_is_scipy_ndtr_bit_for_bit():
    from scipy.special import ndtr

    rng = np.random.default_rng(0)
    # cephes' branch edges |a| = 1, sqrt(2) and 8 sqrt(2) (|x| = 1/sqrt(2), 1 and
    # 8 with x = a / sqrt(2)), where exp underflows, and the table's ends
    edges = [0.0, 1.0, math.sqrt(2), 8 * math.sqrt(2), -math.sqrt(2 * strategy._MAXLOG), 40.0, 9.0, 9 + 1 / 256]
    edges = np.array(edges + [-e for e in edges])
    near = np.concatenate([np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    x = np.concatenate(
        [
            rng.uniform(-45, 12, 100_000),
            rng.normal(0, 3, 50_000),
            edges,
            near,
            near + rng.uniform(-1e-9, 1e-9, len(near)),
            [math.inf, -math.inf, math.nan],
        ]
    )
    ported = np.array([strategy._ndtr(a) for a in x.tolist()])
    assert ported.tobytes() == ndtr(x).tobytes()


def _screened(x):
    t = (x - strategy._PHI_LO) * strategy._PHI_STEPS
    strategy._screened_phi(t, np.empty(t.shape, dtype=np.intp))
    return t


def test_phi_table_is_ndtr_on_its_grid():
    values, slopes = strategy._phi_table()
    grid = strategy._PHI_LO + np.arange(strategy._PHI_POINTS) / strategy._PHI_STEPS
    assert (grid[0], grid[-1]) == (-9.0, 9 + 2**-8)
    assert values.tobytes() == np.array([strategy._ndtr(x) for x in grid.tolist()]).tobytes()
    assert slopes.tobytes() == np.append(np.diff(values), 0.0).tobytes()


def test_screened_phi_is_within_its_bound():
    from scipy.special import ndtr

    # a dense grid past both table ends, and every point halfway between two
    # of the table's, where linear interpolation errs most
    lo, steps = strategy._PHI_LO, strategy._PHI_STEPS
    x = np.concatenate(
        [np.linspace(-50, 15, 1_000_001), lo + (np.arange(strategy._PHI_POINTS) + 0.5) / steps, [-np.inf, np.inf]]
    )
    error = np.abs(_screened(x) - ndtr(x))
    assert error.max() <= strategy._PHI_ERROR
    # the bound is not loose by much: h^2 / 8 * phi(1) = 4.62e-7
    assert error.max() > 0.9 * strategy._PHI_ERROR


# |x| = 1 is where the CDF curves most; there the table errs most halfway
# between two points, upward below 0 and downward above
_WORST_BELOW, _WORST_ABOVE = -1 + 1 / 512, 1 + 1 / 512


@st.composite
def contested_markets(draw):
    """Rows whose two best expected values differ by about the screen's
    tolerance or less: exact ties, gaps from zero to a few tolerances on
    either side, rows deep in the lower tail (where every screened value is
    ~0), and rows with non-positive surpluses; every surplus is finite, as a
    `Cohort`'s are. Optionally two cutoffs sit where row 0 meets the screen's
    largest errors, of opposite sign. Returns (scores, surplus, sigma,
    cutoffs, split row)."""
    n_schools = draw(st.integers(2, 5))
    sigma = draw(st.sampled_from([0.5, 1.0, 14.0]) | st.floats(0.1, 50))
    umax = draw(st.sampled_from([1.0, 7.5]) | st.floats(0.01, 100))
    cutoff = st.sampled_from([-math.inf, math.inf, 40.0, 45.0]) | st.floats(-50, 150)
    cutoffs = np.array(draw(st.lists(cutoff, min_size=n_schools, max_size=n_schools)))
    j, k = draw(st.sampled_from(list(itertools.permutations(range(n_schools), 2))))
    s0 = draw(st.floats(0, 100))
    if draw(st.booleans()):
        cutoffs[j], cutoffs[k] = s0 - sigma * _WORST_BELOW, s0 - sigma * _WORST_ABOVE
    finite_cutoffs = cutoffs[np.isfinite(cutoffs)]
    filler = st.sampled_from([0.0, -1.0]) | st.floats(-umax, umax)
    scores, rows = [], []
    n = draw(st.integers(1, 10))
    for i in range(n):
        kind = draw(st.sampled_from(["pair", "tie", "tail", "any"]))
        score = s0 if i == 0 else draw(st.floats(0, 100))
        if kind == "tail" and len(finite_cutoffs):
            score = float(finite_cutoffs.min()) - sigma * draw(st.floats(6, 45))
        row = [draw(filler) for _ in range(n_schools)]
        if kind == "pair":
            # expected values ev[b] - ev[a] = gap under the exact CDF, with the
            # larger surplus umax
            p = strategy._ndtr((score - cutoffs[j]) / sigma), strategy._ndtr((score - cutoffs[k]) / sigma)
            a, b = (j, k) if p[0] <= p[1] else (k, j)
            gap = draw(st.sampled_from([0.0, 1e-3, 0.25, 0.45, 0.55, 0.99, 1.01, 2.0, 5.0]))
            gap *= draw(st.sampled_from([1, -1])) * 2 * strategy._PHI_ERROR * umax
            row[a] = umax
            row[b] = min(umax, (min(p) * umax + gap) / max(p)) if max(p) > 0 else umax
        elif kind == "tie":
            row[j] = row[k] = draw(st.floats(0.01, umax))
        elif kind == "tail":
            row = [draw(st.floats(0.01, umax)) for _ in range(n_schools)]
        scores.append(score)
        rows.append(row)
    return np.array(scores), np.array(rows), sigma, cutoffs, draw(st.integers(0, n))


# row 0 prefers school 1 by 2e-8 under the exact CDF, but the screen makes
# school 0 lead by ~5.3e-7, between half the tolerance and the tolerance
_P0, _P1 = strategy._ndtr(_WORST_BELOW), strategy._ndtr(_WORST_ABOVE)
_CLOSE = (np.array([0.0]), np.array([[1.0, (_P0 + 2e-8) / _P1]]), 1.0, -np.array([_WORST_BELOW, _WORST_ABOVE]), 1)


# school 0 is unacceptable and every cutoff lies 40 sigma or more above the
# score: the exact CDF is 0.0, and school 1's screened top lies within the
# tolerance of school 0's weight 0
_BELOW_ZERO_WEIGHT = (np.array([0.0]), np.array([[-1.0, 2.0]]), 1.0, np.array([40.0, 41.0]), 0)
# a score 2e11 sigma from 0, where the rounding of the table coordinate alone
# would make the screen prefer school 1 by more than the tolerance
_FAR_FROM_ZERO = (
    np.array([140000000000.52603]),
    np.array([[1.0, 0.44714281815347334]]),
    0.7,
    np.array([140000000000.62445, 139999999998.79956]),
    1,
)
# sigma so small that the scaled scores and the infinite cutoff overflow
_TINY_SIGMA = (np.array([50.0]), np.array([[1.0, 2.0]]), 1e-300, np.array([40.0, np.inf]), 0)


@settings(max_examples=500, deadline=None)
@given(contested_markets())
@example(_CLOSE)
@example(_BELOW_ZERO_WEIGHT)
@example(_FAR_FROM_ZERO)
@example(_TINY_SIGMA)
def test_screened_best_response_matches_scipy_ndtr(market):
    scores, surplus, sigma, cutoffs, split = market
    ev = np.empty(surplus.T.shape)
    expected, exact = scipy_best_response(scores, surplus, sigma, cutoffs)
    choose = strategy._best_response(scores, np.ascontiguousarray(surplus.T), sigma, ev)
    choose(cutoffs, 0, split)
    choice = choose(cutoffs, split)
    assert choice.tolist() == expected.tolist()
    # what `_choice_radius` relies on: every expected value of a row with a
    # choice within _PHI_ERROR * umax of the exact one
    umax = surplus.max(initial=0.0)
    cells = (choice >= 0)[:, None] & np.isfinite(exact)
    assert np.abs(ev.T[cells] - exact[cells]).max(initial=0.0) <= strategy._PHI_ERROR * umax


# -- cutoffs as order statistics ---------------------------------------------------


@st.composite
def school_choices(draw, max_schools=4, max_applicants=12):
    """Choices of -1 (abstain) or a 0-based school, scores in {1, 2, 3} so
    whole groups tie, lottery draws in {0, 0.5}, capacities from 0 to above
    demand; some schools end up chosen by nobody."""
    n_schools = draw(st.integers(1, max_schools))
    n = draw(st.integers(0, max_applicants))
    choice = np.array(draw(st.lists(st.integers(-1, n_schools - 1), min_size=n, max_size=n)), dtype=np.int64)
    scores = np.array(draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)), dtype=float)
    ties = np.array(draw(st.lists(st.sampled_from([0.0, 0.5]), min_size=n, max_size=n)))
    caps = np.array(draw(st.lists(st.integers(0, max_applicants + 1), min_size=n_schools, max_size=n_schools)))
    return choice, scores, ties, caps, draw(st.permutations(range(n)))


@settings(max_examples=300, deadline=None)
@given(school_choices())
def test_realized_cutoff_is_capacity_th_score(market):
    choice, scores, ties, caps, shuffle = market
    # rows in decreasing score, equal scores in an arbitrary order
    order = np.lexsort((np.array(shuffle, dtype=np.int64), -scores))
    choice, scores = choice[order], scores[order]
    realized, decided = _realized_cutoffs(choice, scores, caps)
    expected = admitted_cutoffs(choice, scores, ties[order], caps)
    assert realized.tobytes() == expected.tobytes()
    # the first `decided` rows, and no fewer, decide every filled school's cutoff
    assert _realized_cutoffs(choice[:decided], scores[:decided], caps)[0].tobytes() == realized.tobytes()
    if decided:
        assert _realized_cutoffs(choice[: decided - 1], scores[: decided - 1], caps)[0].tobytes() != realized.tobytes()


@st.composite
def single_application_markets(draw, max_schools=3, max_applicants=10):
    n_schools = draw(st.integers(1, max_schools))
    n = draw(st.integers(1, max_applicants))
    score = st.one_of(st.integers(40, 44).map(float), st.floats(0, 100))
    applicants = [
        _app(
            i,
            draw(score),
            [float(draw(st.integers(0, 6))) for _ in range(n_schools)],
            outside=float(draw(st.integers(0, 3))),
        )
        for i in range(n)
    ]
    schools = mk_schools(*draw(st.lists(st.integers(0, 4), min_size=n_schools, max_size=n_schools)))
    params = BehaviorParams(
        score_noise_sd=draw(st.sampled_from([0.0, 1.0, 5.0, 14.0])),
        max_iter=draw(st.integers(1, 200)),
        tol=draw(st.sampled_from([0.25, 1e-6])),
        damping=draw(st.sampled_from([0.3, 0.5, 1.0])),
    )
    initial = None
    if draw(st.booleans()):
        cut = st.one_of(st.just(-math.inf), st.floats(-50, 150))
        initial = np.array([draw(cut) for _ in range(n_schools)])
    return schools, applicants, params, initial


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@settings(max_examples=300, deadline=None)
@given(single_application_markets(), st.randoms(use_true_random=False))
def test_equilibrium_matches_lexsort_loop(market, random):
    schools, applicants, params, initial = market
    cohort = cohort_of(applicants)
    ties = np.array([random.random() for _ in range(len(cohort))])
    beliefs, iterations, residual = equilibrium_cutoffs(schools, cohort, params, initial=initial)
    expected, expected_iterations, expected_residual = lexsort_equilibrium_cutoffs(
        schools, cohort, params, ties, initial
    )
    assert beliefs.tobytes() == expected.tobytes()
    assert (iterations, residual) == (expected_iterations, expected_residual)


def _count_best_responses(monkeypatch):
    """Count `equilibrium_cutoffs`' best-response calls by kind: "full" (all
    rows), "prefix" (the rows from 0 down to a deciding row) and "rest" (the
    rows after a prefix, when a school fell short of its capacity in it)."""
    calls = {"full": 0, "prefix": 0, "rest": 0}
    best_response = strategy._best_response

    def counted_best_response(scores, *args):
        choose = best_response(scores, *args)

        def counted(cutoffs, start=0, stop=None):
            kind = "rest" if start else "full" if stop in (None, len(scores)) else "prefix"
            calls[kind] += 1
            return choose(cutoffs, start, stop)

        return counted

    monkeypatch.setattr(strategy, "_best_response", counted_best_response)
    return calls


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_equilibrium_matches_lexsort_loop_on_scaled_scenario(monkeypatch):
    # warm-started years at scale 0.05, most of which end at max_iter; the
    # iteration limits put max_iter at several offsets into each year's cycle,
    # and one year runs to the bound on max_iter.
    # Seed 0's years also take the path that completes a prefix.
    calls = _count_best_responses(monkeypatch)
    sc = build_scenario(0.05)
    runs = [(seed, max_iter, 1906) for seed, max_iter in itertools.product((3, 0), (37, 100, 250))]
    for seed, max_iter, year_end in [*runs, (3, 1000, 1901)]:
        params = BehaviorParams(max_iter=max_iter)
        beliefs, at_max_iter = None, 0
        for year in range(1900, year_end):
            cohort = generate_applicants(sc, year, SeededRng(seed))
            ties = SeededRng(year).generator().random(len(cohort))
            expected = lexsort_equilibrium_cutoffs(sc.schools, cohort, params, ties, beliefs)
            beliefs, iterations, residual = equilibrium_cutoffs(sc.schools, cohort, params, initial=beliefs)
            assert beliefs.tobytes() == expected[0].tobytes()
            assert (iterations, residual) == expected[1:]
            at_max_iter += iterations == max_iter
        assert at_max_iter > 0
    # iterations decided by the prefix alone, and iterations that completed it
    assert calls["prefix"] > calls["rest"] > 0


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_equilibrium_reuses_certified_best_responses(monkeypatch):
    # a non-converged year: once its realized cutoffs repeat, most iterations
    # take a certified state's realized cutoffs instead of best responses
    calls = _count_best_responses(monkeypatch)
    sc = build_scenario(0.05)
    params = BehaviorParams()
    cohort = generate_applicants(sc, 1900, SeededRng(3))
    ties = SeededRng(1900).generator().random(len(cohort))
    expected, expected_iterations, expected_residual = lexsort_equilibrium_cutoffs(sc.schools, cohort, params, ties)
    assert expected_residual >= params.tol

    def evaluations():
        calls.update(full=0, prefix=0, rest=0)
        beliefs, iterations, residual = equilibrium_cutoffs(sc.schools, cohort, params)
        assert beliefs.tobytes() == expected.tobytes()
        assert (iterations, residual) == (expected_iterations, expected_residual)
        return calls["full"] + calls["prefix"]

    evaluated = evaluations()
    # with no state certified, each iteration evaluates once, and all
    # max_iter of them run
    monkeypatch.setattr(strategy, "_choice_radius", lambda *args: -math.inf)
    iterations_run = evaluations()
    assert evaluated < iterations_run / 1.5
    assert iterations_run == params.max_iter


@st.composite
def duplicated_column_markets(draw):
    """Noisy markets in which two schools have the same utility for every
    applicant, so their expected values tie exactly whenever their cutoffs
    do, and differ by a hair when the cutoffs nearly do."""
    n_schools = draw(st.integers(2, 3))
    n = draw(st.integers(2, 12))
    scores = draw(st.lists(st.integers(40, 44).map(float), min_size=n, max_size=n))
    utility = np.array([[float(draw(st.integers(0, 4))) for _ in range(n_schools)] for _ in range(n)])
    a, b = draw(st.sampled_from(list(itertools.combinations(range(n_schools), 2))))
    utility[:, b] = utility[:, a]
    applicants = [_app(i, scores[i], utility[i], outside=float(draw(st.integers(0, 1)))) for i in range(n)]
    cap = draw(st.integers(1, 3))
    caps = [cap if k in (a, b) else draw(st.integers(0, 3)) for k in range(n_schools)]
    params = BehaviorParams(
        # at 0.05 the exact CDF of a score 2 below a cutoff is 0.0
        score_noise_sd=draw(st.sampled_from([0.05, 0.5, 1.0, 5.0])),
        max_iter=draw(st.integers(1, 200)),
        tol=1e-9,
        damping=draw(st.sampled_from([0.3, 0.5, 1.0])),
    )
    initial = None
    if draw(st.booleans()):
        cut = [float(draw(st.integers(38, 46))) for _ in range(n_schools)]
        cut[b] = cut[a]
        initial = np.array(cut)
    return mk_schools(*caps), applicants, params, initial


@pytest.mark.filterwarnings("ignore:cutoff iteration")
@settings(max_examples=300, deadline=None)
@given(duplicated_column_markets(), st.randoms(use_true_random=False))
def test_equilibrium_with_tied_schools_matches_lexsort_loop(market, random):
    # a tie (gap 0) certifies no state, and a near tie only a small radius
    schools, applicants, params, initial = market
    cohort = cohort_of(applicants)
    ties = np.array([random.random() for _ in range(len(cohort))])
    beliefs, iterations, residual = equilibrium_cutoffs(schools, cohort, params, initial=initial)
    expected, expected_iterations, expected_residual = lexsort_equilibrium_cutoffs(
        schools, cohort, params, ties, initial
    )
    assert beliefs.tobytes() == expected.tobytes()
    assert (iterations, residual) == (expected_iterations, expected_residual)


def test_certificates_keep_evaluations_below_max_iter(monkeypatch):
    # a year that ends non-converged runs all max_iter iterations, but once
    # its cycle is certified, the iterations that reuse a certified state
    # compute no best response; none computes more than one from the first row
    calls = _count_best_responses(monkeypatch)
    sc = build_scenario(0.05)
    params = BehaviorParams()
    cohort = generate_applicants(sc, 1900, SeededRng(3))
    with pytest.warns(RuntimeWarning, match="cutoff iteration did not converge"):
        _, iterations, residual = equilibrium_cutoffs(sc.schools, cohort, params)
    assert iterations == params.max_iter and residual >= params.tol
    assert calls["full"] + calls["prefix"] < params.max_iter


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_evaluations_do_not_grow_with_max_iter(monkeypatch):
    # a non-converged year runs every one of its max_iter iterations, yet the
    # certified states answer all of them past the cycle's first turns: it
    # computes as many best responses at max_iter 100 as at the bound
    calls = _count_best_responses(monkeypatch)
    sc = build_scenario(0.05)
    cohort = generate_applicants(sc, 1900, SeededRng(3))

    def evaluations(max_iter):
        calls.update(full=0, prefix=0, rest=0)
        params = BehaviorParams(max_iter=max_iter)
        _, iterations, residual = equilibrium_cutoffs(sc.schools, cohort, params)
        assert iterations == max_iter and residual >= params.tol
        return calls["full"] + calls["prefix"]

    assert evaluations(100) == evaluations(250) == evaluations(1000) < 100
    # with no state certified, each of the 1000 iterations evaluates once
    monkeypatch.setattr(strategy, "_choice_radius", lambda *args: -math.inf)
    assert evaluations(1000) == 1000


# -- beliefs are read by position -------------------------------------------------


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_beliefs_are_read_by_position():
    # entry k is the cutoff of school k + 1: the applications match the scalar
    # choice at the equilibrium cutoffs and at the same cutoffs reversed, and
    # the two differ
    sc = build_scenario(0.05)
    params = BehaviorParams()
    cohort = generate_applicants(sc, 1900, SeededRng(3))
    beliefs, _, _ = equilibrium_cutoffs(sc.schools, cohort, params)
    chosen = []
    for cutoffs in (beliefs, beliefs[::-1]):
        singles = list(single_applications(cohort, cutoffs, params))
        expected = [choose_single_application(a, cutoffs, params) for a in cohort]
        assert singles == [e for e in expected if e is not None]
        chosen.append(singles)
    assert chosen[0] != chosen[1]


def _wrong_beliefs_rejected(beliefs, match):
    """Both entry points reject `beliefs` for the 8 schools of a scale-0.05 cohort."""
    sc = build_scenario(0.05)
    params = BehaviorParams()
    cohort = generate_applicants(sc, 1900, SeededRng(3))
    with pytest.raises(DomainError, match=match):
        single_applications(cohort, beliefs, params)
    with pytest.raises(DomainError, match=match):
        equilibrium_cutoffs(sc.schools, cohort, params, initial=beliefs)


def test_beliefs_for_missing_or_unknown_schools_rejected():
    for beliefs in (np.array([60.0, 50.0, 40.0]), np.full(9, 50.0)):
        _wrong_beliefs_rejected(beliefs, "for 8 schools")


def test_beliefs_reject_nan_cutoff():
    # a NaN belief would make every applicant who finds school 3 acceptable abstain
    beliefs = np.full(8, 50.0)
    beliefs[2] = math.nan
    _wrong_beliefs_rejected(beliefs, "school 3 is NaN")
    # an infinite cutoff is a belief: -inf admits everyone, inf no one
    sc = build_scenario(0.05)
    cohort = generate_applicants(sc, 1900, SeededRng(3))
    assert len(single_applications(cohort, np.array([-math.inf, math.inf, *[50.0] * 6]), BehaviorParams()))


def test_overflowing_surplus_is_named_without_a_warning():
    # finite utilities and outside options whose difference is not a double;
    # the suite turns a numpy overflow warning into an error
    sc = build_scenario(0.05)
    utility = np.full((3, 8), 1.0)
    utility[2, 5] = 1e308
    cohort = Cohort(np.zeros(3, dtype=np.int64), np.array([50.0, 60.0, 40.0]), utility, np.array([0.0, 0.0, -1e308]))
    message = "applicant 2 has a non-finite surplus"
    with pytest.raises(DomainError, match=message):
        equilibrium_cutoffs(sc.schools, cohort, BehaviorParams())
    with pytest.raises(DomainError, match=message):
        single_applications(cohort, np.zeros(8), BehaviorParams())


# -- submit_applications ------------------------------------------------------------


def test_submit_centralized_full_truthful_list():
    a = _app(0, 55.0, tuple(10.0 - i for i in range(8)), outside=0.0)
    out = submit_applications(cohort_of([a]), Regime(RegimeKind.CENTRALIZED, 1902))
    assert list(out) == [PreferenceList(applicant_id=0, ranked=(1, 2, 3, 4, 5, 6, 7, 8))]


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_decentralized_applications_match_scalar_choice():
    # both decentralized regimes apply through the equilibrium path the
    # pipeline uses; ranked lists exist only under the centralized ones
    sc = build_scenario(0.05)
    apps = generate_applicants(sc, 1910, SeededRng(5))
    params = BehaviorParams()
    beliefs, _, _ = equilibrium_cutoffs(sc.schools, apps, params)
    singles = single_applications(apps, beliefs, params)
    expected = [choose_single_application(a, beliefs, params) for a in apps]
    assert list(singles) == [e for e in expected if e is not None]
    assert 0 < len(singles) < len(apps)
    for kind in (RegimeKind.DECENTRALIZED, RegimeKind.DECENTRALIZED_UNIFIED_EXAM):
        with pytest.raises(DomainError):
            submit_applications(apps, Regime(kind, 1910))


def test_submit_grouped_constraint_forces_one_per_group():
    groups = (frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8}))
    utility = (10.0, 1, 1, 1, 9.0, 1, 1, 1)
    a = _app(1, 55.0, utility, outside=0.5)
    pl = grouped_ranking(a, groups)
    assert pl.ranked == (1, 5)


def test_submit_grouped_via_dispatch():
    groups = (frozenset({1, 3, 5, 7}), frozenset({2, 4, 6, 8}))
    a = _app(0, 55.0, (9.0, 8.0, 1, 1, 1, 1, 1, 1), outside=0.5)
    out = submit_applications(cohort_of([a]), Regime(RegimeKind.GROUPED_CENTRALIZED, 1926, groups))
    assert list(out) == [PreferenceList(applicant_id=0, ranked=(1, 2))]


@pytest.mark.parametrize("scale", [1.0, 0.05])
@pytest.mark.parametrize("ties", [False, True], ids=["drawn", "tied"])
def test_submitted_lists_match_the_earlier_builders(scale, ties):
    # `ranked_lists` replaced a sort of every row and a lexsort of the group
    # winners; rounding the utilities and outside options ties many of them
    sc, groups = build_scenario(scale), DEFAULT_GROUPS
    for seed, year in itertools.product(range(2), (1900, 1905, 1926)):
        cohort = generate_applicants(sc, year, SeededRng(seed))
        if ties:
            cohort = Cohort(cohort.birth, cohort.score, np.round(cohort.utility), np.round(cohort.outside))
        for regime, expected in (
            (Regime(RegimeKind.CENTRALIZED, year), argsort_truthful_lists(cohort)),
            (Regime(RegimeKind.GROUPED_CENTRALIZED, year, groups), lexsort_grouped_lists(cohort, groups)),
        ):
            got = submit_applications(cohort, regime)
            for name in ("ids", "schools", "lengths"):
                a, b = getattr(got, name), getattr(expected, name)
                assert (a.shape, a.dtype) == (b.shape, b.dtype) and np.array_equal(a, b), (seed, year, regime.kind, name)
            assert 0 < len(got) < len(cohort)  # some applicants submit nothing


def test_empty_cohort_applies_nowhere():
    # the array code needs no special case for a cohort without applicants
    sc = build_scenario(0.05)
    params, none = BehaviorParams(), np.empty(0)
    cohort = Cohort(birth=np.empty(0, dtype=np.int64), score=none, utility=np.empty((0, 8)), outside=none)
    beliefs, iterations, residual = equilibrium_cutoffs(sc.schools, cohort, params)
    assert (beliefs.tolist(), iterations, residual) == ([-math.inf] * 8, 1, 0.0)
    groups = (frozenset({1, 2, 3, 4}), frozenset({5, 6, 7, 8}))
    for apps in (
        submit_applications(cohort, Regime(RegimeKind.CENTRALIZED, 1900)),
        submit_applications(cohort, Regime(RegimeKind.GROUPED_CENTRALIZED, 1926, groups)),
        single_applications(cohort, beliefs, params),
    ):
        assert (len(apps), apps.schools.shape[0], len(apps.lengths)) == (0, 0, 0)


def test_submit_unknown_regime_rejected():
    with pytest.raises(DomainError):
        submit_applications(cohort_of([]), Regime("bogus", 1900))


def test_grouped_regime_requires_groups():
    with pytest.raises(DomainError):
        submit_applications(cohort_of([]), Regime(RegimeKind.GROUPED_CENTRALIZED, 1926))


# -- risk-taking comparative static ---------------------------------------------------


@pytest.mark.filterwarnings("ignore:cutoff iteration")
def test_centralized_first_choices_more_aggressive_than_decentralized():
    # scaled-down scenario for speed; the full-scale version is part of the
    # acceptance suite
    sc = build_scenario(0.05)
    params = BehaviorParams()
    wins = 0
    for seed in range(20):
        apps = generate_applicants(sc, 1900, SeededRng(seed))
        truthful = list(submit_applications(apps, Regime(RegimeKind.CENTRALIZED, 1900)))
        cen_share = sum(1 for t in truthful if t.ranked[0] == 1) / len(truthful)
        beliefs, _, _ = equilibrium_cutoffs(sc.schools, apps, params)
        singles = single_applications(apps, beliefs, params)
        dec_share = sum(1 for s in singles if s.ranked == (1,)) / len(singles)
        wins += cen_share > dec_share
    assert wins == 20

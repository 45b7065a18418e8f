"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line. The full-scale 20-seed simulation is shared across criteria 4 and 5.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import itertools
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from meritmatch.cli import main as cli_main
from meritmatch.config import build_scenario
from meritmatch.core import Cohort, SeededRng
from meritmatch.econometrics import did_centralization
from meritmatch.mechanisms import Applications, PreferenceList, run_meritocratic_boston
from meritmatch.metrics import build_panel
from meritmatch.pipeline import seed_regressions, simulate_seed
from meritmatch.strategy import BehaviorParams

from conftest import cohort_of, lottery_of, mk_applicant, mk_schools
from oracles import (
    add_at_two_way_demean,
    dominates_all_feasible_assignments,
    dominates_all_feasible_sets,
    dummy_ols,
    direct_cluster_cov,
    scalar_serial_dictatorship,
)
from test_econometrics import balanced_panel, _regressors, year_major

N_SEEDS = 20
SECONDS_PER_SEED_BUDGET = 10.0


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- criterion 1: exhaustive mechanism equivalence ---------------------------------


def _exhaustive_instances():
    """Exhaustive enumeration over a discretized preference/score grid:
    markets with up to 4 schools (capacity 1 or 2 each) and up to 6
    applicants with complete preference lists. Score alphabets {1,2,3} or
    {1,2} give dense ties; per-applicant preference orders run over all
    permutations where affordable and over cyclic rotations otherwise.
    """
    # one school: every score profile over {1,2,3}
    for caps in ((1,), (2,)):
        for n in range(1, 7):
            for scores in itertools.product((1.0, 2.0, 3.0), repeat=n):
                yield caps, scores, ((1,),) * n

    # two schools: both orders, tied scores {1,2}
    orders2 = ((1, 2), (2, 1))
    for caps in itertools.product((1, 2), repeat=2):
        for n in range(1, 7):
            for combo in itertools.product(tuple(itertools.product(orders2, (1.0, 2.0))), repeat=n):
                yield caps, tuple(s for _, s in combo), tuple(o for o, _ in combo)
        # distinct scores, all preference profiles
        for n in range(1, 7):
            scores = tuple(float(n - i) for i in range(n))
            for orders in itertools.product(orders2, repeat=n):
                yield caps, scores, orders

    # three schools: all 6 orders with tied scores up to n=3, rotations at
    # n=4, and all orders with distinct scores up to n=4
    orders3 = tuple(itertools.permutations((1, 2, 3)))
    rot3 = ((1, 2, 3), (2, 3, 1), (3, 1, 2))
    for caps in itertools.product((1, 2), repeat=3):
        for n in range(1, 4):
            for combo in itertools.product(tuple(itertools.product(orders3, (1.0, 2.0))), repeat=n):
                yield caps, tuple(s for _, s in combo), tuple(o for o, _ in combo)
        for combo in itertools.product(tuple(itertools.product(rot3, (1.0, 2.0))), repeat=4):
            yield caps, tuple(s for _, s in combo), tuple(o for o, _ in combo)
        for n in range(1, 5):
            scores = tuple(float(n - i) for i in range(n))
            for orders in itertools.product(orders3, repeat=n):
                yield caps, scores, orders

    # four schools: cyclic rotations with tied scores up to n=4
    rot4 = tuple(tuple((start + k) % 4 + 1 for k in range(4)) for start in range(4))
    for caps in itertools.product((1, 2), repeat=4):
        for n in range(1, 5):
            for combo in itertools.product(tuple(itertools.product(rot4, (1.0, 2.0))), repeat=n):
                yield caps, tuple(s for _, s in combo), tuple(o for o, _ in combo)


def test_criterion_1_admitted_set_equivalence_exhaustive():
    t0 = time.perf_counter()
    checked = 0
    mismatches = 0
    schools_cache = {}
    for caps, scores, orders in _exhaustive_instances():
        schools = schools_cache.get(caps)
        if schools is None:
            schools = schools_cache.setdefault(caps, mk_schools(*caps))
        n, n_schools = len(scores), len(caps)
        cohort = Cohort(np.zeros(n, np.int64), np.array(scores), np.zeros((n, n_schools)), np.zeros(n))
        prefs = Applications(np.arange(n), np.array(orders, dtype=np.int64), np.full(n, n_schools))
        rng = SeededRng(20240501, checked)
        b = run_meritocratic_boston(schools, cohort, prefs, rng)
        # the oracle's serial dictatorship, under the lottery Boston drew
        applicants = [mk_applicant(i, score, n_schools) for i, score in enumerate(scores)]
        lists = [PreferenceList(i, order) for i, order in enumerate(orders)]
        d, _ = scalar_serial_dictatorship(schools, applicants, lists, lottery_of(lists, rng))
        mismatches += set(b.ids.tolist()) != set(d)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0 and checked >= 100_000
    _report(
        "1 mechanism-equivalence",
        ok,
        f"{checked} instances, {mismatches} mismatches, {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert checked >= 100_000
    assert elapsed < 60.0


# -- criterion 2: first-order stochastic dominance ----------------------------------


def test_criterion_2_fosd_brute_force():
    gen = np.random.default_rng(77)

    def random_instance(max_apps=8):
        n_schools = int(gen.integers(1, 4))
        caps = [int(gen.integers(1, 3)) for _ in range(n_schools)]
        n = int(gen.integers(1, max_apps + 1))
        if gen.random() < 0.5:
            scores = gen.choice([1.0, 2.0, 3.0], size=n)
        else:
            scores = np.round(gen.uniform(0, 10, size=n), 1)
        orders = list(itertools.permutations(range(1, n_schools + 1)))
        prefs = [
            PreferenceList(i, orders[int(gen.integers(0, len(orders)))]) for i in range(n)
        ]
        applicants = cohort_of([mk_applicant(i, float(scores[i]), n_schools) for i in range(n)])
        return mk_schools(*caps), applicants, prefs

    # the subset enumeration is itself validated against full assignment
    # enumeration on 50 small instances
    for trial in range(50):
        schools, applicants, prefs = random_instance(max_apps=5)
        a = run_meritocratic_boston(schools, applicants, prefs, SeededRng(77, trial))
        scores_by_id = {x.id: x.score for x in applicants}
        caps = [s.capacity for s in schools]
        total = sum(caps)
        assert dominates_all_feasible_sets(scores_by_id, set(a.placed), total)
        assert dominates_all_feasible_assignments(scores_by_id, set(a.placed), caps)

    # negative control: a bottom-of-the-class set must not dominate
    ctrl_scores = {0: 1.0, 1: 2.0, 2: 3.0}
    assert not dominates_all_feasible_sets(ctrl_scores, {0}, total_capacity=1)

    failures = 0
    for trial in range(1000):
        schools, applicants, prefs = random_instance()
        a = run_meritocratic_boston(schools, applicants, prefs, SeededRng(78, trial))
        scores_by_id = {x.id: x.score for x in applicants}
        total = sum(s.capacity for s in schools)
        failures += not dominates_all_feasible_sets(scores_by_id, set(a.placed), total)
    ok = failures == 0
    _report("2 fosd", ok, f"1000 instances, {failures} dominance failures")
    assert failures == 0


# -- criterion 3: divergence witness -------------------------------------------------


def test_criterion_3_divergence_witness(xyz_instance):
    schools, applicants, prefs = xyz_instance
    boston = run_meritocratic_boston(schools, applicants, prefs, SeededRng(0))
    da, _ = scalar_serial_dictatorship(schools, applicants, prefs, lottery_of(prefs, SeededRng(0)))
    boston_map = {a: p.school_id for a, p in boston.placed.items()}
    da_map = {a: p.school_id for a, p in da.items()}
    ok = (
        boston_map == {0: 1, 2: 2, 1: 3}
        and da_map == {0: 1, 1: 2, 2: 3}
        and set(boston.placed) == set(da) == {0, 1, 2}
    )
    _report("3 divergence-witness", ok, f"boston={boston_map}, da={da_map}")
    assert boston_map == {0: 1, 2: 2, 1: 3}
    assert da_map == {0: 1, 1: 2, 2: 3}
    assert set(boston.placed) == set(da)


# -- criteria 4 and 5: full-scale qualitative replication ----------------------------


@dataclass
class SeedSummary:
    seed: int
    diff_share: float
    diff_distance: float
    diff_tokyo: float
    negative_local_monopoly: int
    elapsed: float


@pytest.fixture(scope="module")
def full_scale_summaries():
    scenario = build_scenario()
    behavior = BehaviorParams()
    summaries = []
    for seed in range(N_SEEDS):
        t0 = time.perf_counter()
        result = simulate_seed(scenario, behavior, seed)
        rows = build_panel(result.entrants, result.graduates, scenario)
        regressions = seed_regressions(rows, result.outcomes, seed)
        elapsed = time.perf_counter() - t0

        cen = [o for o in result.outcomes if o.regime.is_centralized]
        dec = [o for o in result.outcomes if not o.regime.is_centralized]

        def mean(rows_, key):
            return float(np.mean([getattr(o, key) for o in rows_]))

        negatives = sum(
            1
            for r in regressions
            if r.spec_id.startswith("local_monopoly_s") and r.estimate < 0
        )
        summaries.append(
            SeedSummary(
                seed=seed,
                diff_share=mean(cen, "share_first_choice_school1") - mean(dec, "share_first_choice_school1"),
                diff_distance=mean(cen, "mean_enrollment_distance_km") - mean(dec, "mean_enrollment_distance_km"),
                diff_tokyo=mean(cen, "tokyo_area_entrant_share") - mean(dec, "tokyo_area_entrant_share"),
                negative_local_monopoly=negatives,
                elapsed=elapsed,
            )
        )
    return summaries


def test_criterion_4_qualitative_replication(full_scale_summaries):
    share_pos = sum(1 for s in full_scale_summaries if s.diff_share > 0)
    dist_pos = sum(1 for s in full_scale_summaries if s.diff_distance > 0)
    tokyo_pos = sum(1 for s in full_scale_summaries if s.diff_tokyo > 0)
    slowest = max(s.elapsed for s in full_scale_summaries)
    ok = (
        share_pos >= 19
        and dist_pos >= 19
        and tokyo_pos >= 19
        and slowest < SECONDS_PER_SEED_BUDGET
    )
    _report(
        "4 qualitative-replication",
        ok,
        f"positive diffs: share {share_pos}/20, distance {dist_pos}/20, "
        f"tokyo {tokyo_pos}/20; slowest seed {slowest:.1f}s",
    )
    assert share_pos >= 19
    assert dist_pos >= 19
    assert tokyo_pos >= 19
    assert slowest < SECONDS_PER_SEED_BUDGET


def test_criterion_5_local_monopoly_signs(full_scale_summaries):
    good_seeds = sum(1 for s in full_scale_summaries if s.negative_local_monopoly >= 7)
    ok = good_seeds >= 18
    detail = ", ".join(str(s.negative_local_monopoly) for s in full_scale_summaries)
    _report("5 local-monopoly", ok, f"seeds with >=7/8 negative: {good_seeds}/20; per-seed [{detail}]")
    assert good_seeds >= 18


# -- criterion 6: estimator correctness ----------------------------------------------


def test_criterion_6_estimator_correctness():
    from meritmatch.econometrics import fe_ols, newey_west_ols

    gen = np.random.default_rng(606)

    # (a) within estimator vs dummy-variable OLS on 10^3 random panels
    worst = 0.0
    for _ in range(1000):
        n_units = int(gen.integers(3, 13))
        n_times = int(gen.integers(3, 10))
        k = int(gen.integers(1, 4))
        panel, _ = balanced_panel(gen, n_units, n_times, k=k)
        assert len(panel["entrants"]) <= 200
        res = fe_ols(panel, _regressors(k=k))
        oracle = dummy_ols(
            panel["entrants"],
            np.column_stack([panel[f"x{j}"] for j in range(k)]),
            panel["prefecture_id"],
            panel["year"],
        )
        worst = max(worst, float(np.max(np.abs(res.beta - oracle))))
    ok_a = worst < 1e-8

    # (b) cluster-robust SEs vs the direct sandwich oracle
    worst_se = 0.0
    for _ in range(100):
        panel, _ = balanced_panel(gen, 8, 6, k=2)
        res = fe_ols(panel, _regressors())
        Z = np.column_stack([panel["entrants"], panel["x0"], panel["x1"]])
        units, times = panel["prefecture_id"], panel["year"]  # 0..7 and 0..5
        Zt = add_at_two_way_demean(Z, units, times)
        yt, Xt = Zt[:, 0], Zt[:, 1:]
        beta = np.linalg.lstsq(Xt, yt, rcond=None)[0]
        resid = yt - Xt @ beta
        oracle_cov = direct_cluster_cov(Xt, resid, units, 2 + 8 + 6 - 1)
        rel = np.max(np.abs(res.se - np.sqrt(np.diag(oracle_cov))) / np.sqrt(np.diag(oracle_cov)))
        worst_se = max(worst_se, float(rel))
    ok_b = worst_se < 1e-10

    # (c) Newey-West at lag 0 equals HC0
    worst_nw = 0.0
    for _ in range(50):
        n = int(gen.integers(20, 80))
        x = gen.normal(0, 1, n)
        y = 1.0 + 0.5 * x + gen.normal(0, 1, n)
        table = {"y": y, "x0": x}
        res = newey_west_ols(table, "y", ("x0",), 0)
        X = np.column_stack([np.ones(n), x])
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        e = y - X @ beta
        bread = np.linalg.inv(X.T @ X)
        hc0 = bread @ (X * e[:, None] ** 2).T @ X @ bread
        worst_nw = max(worst_nw, float(np.max(np.abs(res.cov - hc0))))
    ok_c = worst_nw < 1e-12

    # (d) injected DiD effect recovered within 2 SE in >= 95% of 200 sims
    def did_panel(seed, effect, n_units=47, n_treated=23, n_times=31):
        g = np.random.default_rng(seed)
        units = np.repeat(np.arange(n_units), n_times)
        times = np.tile(np.arange(n_times), n_units)
        tokyo_area = (units < n_treated).astype(float)
        centralized = ((times >= n_times // 3) & (times <= 2 * n_times // 3)).astype(float)
        y = (
            effect * tokyo_area * centralized
            + g.normal(0, 2, n_units)[units]
            + g.normal(0, 1, n_times)[times]
            + g.normal(0, 1, len(units))
        )
        panel = {"entrants": y, "prefecture_id": units, "year": times, "tokyo_area": tokyo_area, "centralized": centralized}
        return year_major(panel)  # the draws unit by unit, the rows as `fe_ols` takes them

    hits = 0
    for k in range(200):
        res = did_centralization(did_panel(30_000 + k, effect=6.68))
        est = res.coef("centralized_x_tokyo_area")
        hits += abs(est - 6.68) <= 2 * res.se_of("centralized_x_tokyo_area")
    ok_d = hits >= 190

    ok = ok_a and ok_b and ok_c and ok_d
    _report(
        "6 estimator-correctness",
        ok,
        f"dummy-oracle max diff {worst:.1e}; cluster-SE rel diff {worst_se:.1e}; "
        f"NW0-HC0 max diff {worst_nw:.1e}; DiD coverage {hits}/200",
    )
    assert ok_a and ok_b and ok_c and ok_d


# -- criterion 7: determinism ---------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    artifacts = ["year_outcomes.csv", "manifest.lock", "panel_all.csv"] + [
        f"panel_school_{s}.csv" for s in range(1, 9)
    ] + ["regressions.csv"]

    def run_into(out_dir, config=None):
        argv = ["run", "--out", str(out_dir), "--seed", "0", "--seeds", "1"]
        if config is not None:
            argv += ["--config", str(config)]
        assert cli_main(argv) == 0
        return {name: (Path(out_dir) / name).read_bytes() for name in artifacts}

    first = run_into(tmp_path / "run1")
    second = run_into(tmp_path / "run2")
    replay = run_into(tmp_path / "run3", config=tmp_path / "run1" / "manifest.lock")
    ok = first == second == replay
    mismatched = sorted(n for n in artifacts if not (first[n] == second[n] == replay[n]))
    _report("7 determinism", ok, "byte-identical + lockfile replay" if ok else f"mismatch in {mismatched}")
    assert first == second
    assert first == replay
